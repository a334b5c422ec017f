package trace

import "sync"

// Chunk-annotation buffer pool. The shared fetch oracle annotates each
// chunk with a small per-record byte stream per cache geometry
// (cache.AccessAnnotations.Slots). Those buffers are transient — one live
// buffer per geometry group per in-flight chunk, not one per (trace,
// geometry) — and pooling them here keeps a sweep's steady-state
// allocation independent of how many chunks it replays.
var annBufPool = sync.Pool{
	New: func() any {
		b := make([]uint8, 0, DefaultChunkRecords)
		return &b
	},
}

// GetAnnBuf returns a length-n annotation buffer from the pool, growing it
// if the pooled capacity is short (chunks longer than DefaultChunkRecords
// are legal, just unusual). Contents are unspecified.
func GetAnnBuf(n int) []uint8 {
	b := *annBufPool.Get().(*[]uint8)
	if cap(b) < n {
		b = make([]uint8, n)
	}
	return b[:n]
}

// PutAnnBuf recycles a buffer obtained from GetAnnBuf. Nil (or foreign,
// zero-capacity) slices are ignored, so callers can release
// unconditionally.
func PutAnnBuf(b []uint8) {
	if cap(b) == 0 {
		return
	}
	b = b[:0]
	annBufPool.Put(&b)
}

// Event-list buffer pool, the uint32 sibling of the annotation pool: the
// shared fetch oracle emits one packed replay event per fill/break position
// of a chunk (cache.AccessAnnotations.Events), and those lists recycle
// through here with the same lifetime as their slot buffers.
var evtBufPool = sync.Pool{
	New: func() any {
		b := make([]uint32, 0, DefaultChunkRecords/2)
		return &b
	},
}

// GetEvtBuf returns an empty event buffer with capacity for at least n
// events, from the pool.
func GetEvtBuf(n int) []uint32 {
	b := *evtBufPool.Get().(*[]uint32)
	if cap(b) < n {
		b = make([]uint32, 0, n)
	}
	return b[:0]
}

// PutEvtBuf recycles a buffer obtained from GetEvtBuf.
func PutEvtBuf(b []uint32) {
	if cap(b) == 0 {
		return
	}
	b = b[:0]
	evtBufPool.Put(&b)
}
