package trace

import (
	"sync"

	"repro/internal/isa"
)

// This file adds the chunked trace representation behind the shared-replay
// sweep scheduler (DESIGN.md §7). A trace is split into fixed-size blocks
// of records so the executor and the replay machinery can hand simulators
// one block at a time: a sweep then needs O(chunk) live memory per stream
// instead of a fully materialized record slice, and a block that is hot in
// cache can be fanned out to many engines before the next one is touched.

// DefaultChunkRecords is the default records-per-chunk. At 12 bytes per
// Record a chunk is 48KB — small enough to stay resident in a per-core L2
// while every engine of a sweep cell replays it, large enough that the
// per-chunk dispatch overhead (one channel send and one dynamic call per
// engine) is amortized over thousands of records.
const DefaultChunkRecords = 4096

// A ChunkSource yields consecutive trace records one block at a time. It is
// the streaming counterpart of Source: the records of the successive
// non-empty blocks, concatenated, are the trace.
type ChunkSource interface {
	// NextChunk returns the next block of records, or an empty slice
	// when the source is exhausted. The returned slice must not be
	// modified and remains valid — across further NextChunk calls, so
	// blocks can be handed to concurrent consumers without copying —
	// until it is passed to Release.
	NextChunk() []Record
	// Release hands a non-empty block back once no reader will touch it
	// again, so the source may reuse its storage for a later block. Each
	// block is released at most once. Not releasing is always safe — the
	// source then simply allocates — and Release is safe to call from any
	// goroutine.
	Release(recs []Record)
}

// Chunked is an instruction trace stored as fixed-size blocks of records.
// All blocks hold exactly the size given to Chunk except the last, which
// may be shorter.
type Chunked struct {
	Name string
	// StaticCondSites mirrors Trace.StaticCondSites.
	StaticCondSites int

	blocks [][]Record
	n      int

	// Memoized per-block run annotations, keyed by line size (RunLens).
	runsMu sync.Mutex
	runsBy map[int][][]uint8
}

// Chunk splits a flat trace into blocks of chunkSize records without
// copying: the blocks alias the trace's record slice. chunkSize <= 0
// selects DefaultChunkRecords.
func Chunk(t *Trace, chunkSize int) *Chunked {
	if chunkSize <= 0 {
		chunkSize = DefaultChunkRecords
	}
	recs := t.Records
	c := &Chunked{
		Name:            t.Name,
		StaticCondSites: t.StaticCondSites,
		blocks:          make([][]Record, 0, (len(recs)+chunkSize-1)/chunkSize),
		n:               len(recs),
	}
	for len(recs) > 0 {
		k := chunkSize
		if k > len(recs) {
			k = len(recs)
		}
		c.blocks = append(c.blocks, recs[:k:k])
		recs = recs[k:]
	}
	return c
}

// Len returns the number of records.
func (c *Chunked) Len() int { return c.n }

// NumChunks returns the number of blocks.
func (c *Chunked) NumChunks() int { return len(c.blocks) }

// Block returns the i-th block. The caller must not modify it.
func (c *Chunked) Block(i int) []Record { return c.blocks[i] }

// Flatten copies the blocks back into a flat trace.
func (c *Chunked) Flatten() *Trace {
	t := &Trace{
		Name:            c.Name,
		StaticCondSites: c.StaticCondSites,
		Records:         make([]Record, 0, c.n),
	}
	for _, blk := range c.blocks {
		t.Records = append(t.Records, blk...)
	}
	return t
}

// RunLens returns the per-block run annotations for lineBytes-sized cache
// lines (BlockRuns of every block), computing them once per line size and
// memoizing the result (safe for concurrent callers).
func (c *Chunked) RunLens(lineBytes int) [][]uint8 {
	c.runsMu.Lock()
	defer c.runsMu.Unlock()
	if r, ok := c.runsBy[lineBytes]; ok {
		return r
	}
	all := make([][]uint8, len(c.blocks))
	for bi, blk := range c.blocks {
		all[bi] = BlockRuns(nil, blk, lineBytes)
	}
	if c.runsBy == nil {
		c.runsBy = make(map[int][][]uint8, 1)
	}
	c.runsBy[lineBytes] = all
	return all
}

// BlockRuns computes one block's sequential-fetch run annotation for
// lineBytes-sized cache lines into dst, growing it if its capacity is
// short, and returns it resliced to the block's length. Entry i counts the
// records immediately after record i that are non-branches lying in the
// same lineBytes-aligned line as record i — the records a replay may batch
// into one LRU-refreshing cache access after stepping record i — and is 0
// whenever record i is a break. Runs stop at the block's end and are capped
// at 255 (a longer run simply continues under a new leader, which is still
// a pure sequential fetch).
//
// The annotation depends only on the records and the line size, so one
// computation serves every consumer whose i-cache uses lineBytes lines:
// the broadcast computes it once per block and line size for all its
// engines and oracles. Every entry is written, so dst may hold a recycled
// buffer. lineBytes must be a power of two.
func BlockRuns(dst []uint8, blk []Record, lineBytes int) []uint8 {
	if cap(dst) < len(blk) {
		dst = make([]uint8, len(blk))
	}
	runs := dst[:len(blk)]
	if len(blk) == 0 {
		return runs
	}
	mask := ^isa.Addr(lineBytes - 1)
	runs[len(blk)-1] = 0
	for i := len(blk) - 2; i >= 0; i-- {
		r, nxt := blk[i], blk[i+1]
		var n uint8
		if !r.IsBreak() && nxt.Kind == isa.NonBranch && nxt.PC&mask == r.PC&mask {
			n = 255
			if m := runs[i+1]; m < 255 {
				n = m + 1
			}
		}
		runs[i] = n
	}
	return runs
}

// Chunks returns a fresh iterator over the blocks. The iterator implements
// both ChunkSource and Source, so a chunked trace can drive anything a flat
// trace can.
func (c *Chunked) Chunks() *ChunkIter { return &ChunkIter{c: c} }

// ChunksRuns is Chunks; lineBytes is ignored. It is kept only for the
// prodbench ledger, which still calls it.
func (c *Chunked) ChunksRuns(lineBytes int) *ChunkIter { return c.Chunks() }

// ChunkIter iterates a Chunked trace. It implements ChunkSource (block at a
// time) and Source (record at a time); the views share one cursor.
type ChunkIter struct {
	c     *Chunked
	block int
	off   int // record offset within the current block (Source view only)
}

// NextChunk implements ChunkSource. A block partially consumed through Run
// is finished first (its remaining records are returned as one short
// chunk).
func (it *ChunkIter) NextChunk() []Record {
	if it.block >= len(it.c.blocks) {
		return nil
	}
	blk := it.c.blocks[it.block][it.off:]
	it.block++
	it.off = 0
	return blk
}

// Release implements ChunkSource. It is a no-op: the blocks alias the
// chunked trace, which outlives every replay of it.
func (it *ChunkIter) Release([]Record) {}

// Run implements Source: it emits up to n records from the cursor.
func (it *ChunkIter) Run(n int, emit func(Record)) int {
	count := 0
	for count < n && it.block < len(it.c.blocks) {
		blk := it.c.blocks[it.block]
		for it.off < len(blk) && count < n {
			emit(blk[it.off])
			it.off++
			count++
		}
		if it.off == len(blk) {
			it.block++
			it.off = 0
		}
	}
	return count
}

// Reset rewinds the iterator to the first record.
func (it *ChunkIter) Reset() { it.block, it.off = 0, 0 }

// SourceChunks adapts any Source (for example an exec.Executor walking a
// synthetic program) into a ChunkSource bounded to a total record budget.
// Each NextChunk call draws up to chunkSize records into a released block
// when one is free, else into a fresh one, so at any moment only the
// blocks still held by consumers are live: a streamed 2M-record run needs
// O(chunk) memory, not O(trace).
type SourceChunks struct {
	src       Source
	remaining int
	chunkSize int
	free      freeList[Record]
}

// NewSourceChunks bounds src to total records in blocks of chunkSize
// (<= 0 selects DefaultChunkRecords).
func NewSourceChunks(src Source, total, chunkSize int) *SourceChunks {
	if chunkSize <= 0 {
		chunkSize = DefaultChunkRecords
	}
	return &SourceChunks{src: src, remaining: total, chunkSize: chunkSize}
}

// NextChunk implements ChunkSource.
func (s *SourceChunks) NextChunk() []Record {
	if s.remaining <= 0 {
		return nil
	}
	k := s.chunkSize
	if k > s.remaining {
		k = s.remaining
	}
	blk := s.free.get(s.chunkSize)
	got := s.src.Run(k, func(r Record) { blk = append(blk, r) })
	s.remaining -= k
	if got == 0 {
		s.remaining = 0 // source exhausted early
		s.free.put(blk)
		return nil
	}
	return blk
}

// Release implements ChunkSource: the block's storage is drawn into again.
func (s *SourceChunks) Release(recs []Record) { s.free.put(recs) }

// freeList is the free list behind every recycling chunk source
// (PayloadChunks and SourceChunks): a buffer its
// consumer released is filled again instead of a fresh one allocated. It
// holds no fixed number of buffers — its length is the peak number of
// blocks outstanding at once, which the consumer bounds (see the
// broadcast's bound in DESIGN.md §16) — and it is safe for concurrent
// use, since a block may be released from any replay goroutine.
type freeList[T any] struct {
	mu   sync.Mutex
	bufs [][]T
}

// get returns an empty buffer with capacity for at least n elements: a
// released one when available, else a fresh one.
func (f *freeList[T]) get(n int) []T {
	f.mu.Lock()
	var b []T
	if k := len(f.bufs); k > 0 {
		b = f.bufs[k-1]
		f.bufs = f.bufs[:k-1]
	}
	f.mu.Unlock()
	if cap(b) < n {
		return make([]T, 0, n)
	}
	return b[:0]
}

// put makes b available to a later get.
func (f *freeList[T]) put(b []T) {
	if cap(b) == 0 {
		return
	}
	f.mu.Lock()
	f.bufs = append(f.bufs, b)
	f.mu.Unlock()
}
