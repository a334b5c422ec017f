package trace

import "sync"

// bufPool recycles buffers of T through a sync.Pool, so a steady stream of
// transient buffers allocates only when the pool runs dry.
type bufPool[T any] struct{ pool sync.Pool }

// get returns a length-n buffer: a recycled one when its capacity suffices,
// else a fresh one with capacity for at least hint elements. Contents are
// unspecified.
func (p *bufPool[T]) get(n, hint int) []T {
	if b, _ := p.pool.Get().(*[]T); b != nil && cap(*b) >= n {
		return (*b)[:n]
	}
	return make([]T, n, max(n, hint))
}

// put recycles b. Zero-capacity slices are ignored, so callers can release
// unconditionally.
func (p *bufPool[T]) put(b []T) {
	if cap(b) > 0 {
		p.pool.Put(&b)
	}
}

// Chunk-annotation buffer pool. The shared fetch oracle annotates each
// chunk with a small per-record byte stream per cache geometry
// (cache.AccessAnnotations.Slots). Those buffers are transient — one live
// buffer per geometry group per in-flight chunk, not one per (trace,
// geometry) — and pooling them here keeps a sweep's steady-state
// allocation independent of how many chunks it replays.
var annBufs bufPool[uint8]

// GetAnnBuf returns a length-n annotation buffer from the pool, growing it
// if the pooled capacity is short (chunks longer than DefaultChunkRecords
// are legal, just unusual). Contents are unspecified.
func GetAnnBuf(n int) []uint8 { return annBufs.get(n, DefaultChunkRecords) }

// PutAnnBuf recycles a buffer obtained from GetAnnBuf. Nil (or foreign,
// zero-capacity) slices are ignored, so callers can release
// unconditionally.
func PutAnnBuf(b []uint8) { annBufs.put(b) }

// Event-list buffer pool, the uint32 sibling of the annotation pool: the
// shared fetch oracle emits one packed replay event per fill/break position
// of a chunk (cache.AccessAnnotations.Events), and those lists recycle
// through here with the same lifetime as their slot buffers.
var evtBufs bufPool[uint32]

// GetEvtBuf returns an empty event buffer with capacity for at least n
// events, from the pool.
func GetEvtBuf(n int) []uint32 { return evtBufs.get(n, DefaultChunkRecords/2)[:0] }

// PutEvtBuf recycles a buffer obtained from GetEvtBuf.
func PutEvtBuf(b []uint32) { evtBufs.put(b) }
