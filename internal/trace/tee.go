package trace

// TeeChunks wraps a chunk source so every drawn block is also handed to
// observe, in order, before the consumer sees it. This is how the grid
// executor derives per-program statistics (StatsCollector, fetch-block
// counts) from the same single trace read that drives the broadcast replay:
// the broadcaster draws blocks through the tee, and the observer runs on
// the drawing goroutine, serialized with the draws.
//
// When src also implements RunChunkSource, the returned source does too,
// forwarding the run annotations untouched — wrapping never downgrades the
// broadcaster's shared-annotation fast path.
func TeeChunks(src ChunkSource, observe func([]Record)) ChunkSource {
	t := teeChunks{src: src, observe: observe}
	if rs, ok := src.(RunChunkSource); ok {
		return &teeRunChunks{teeChunks: t, rs: rs}
	}
	return &t
}

type teeChunks struct {
	src     ChunkSource
	observe func([]Record)
}

// NextChunk implements ChunkSource.
func (t *teeChunks) NextChunk() []Record {
	blk := t.src.NextChunk()
	if len(blk) > 0 {
		t.observe(blk)
	}
	return blk
}

// Release implements ChunkSource by forwarding to the wrapped source (the
// observer is done with a block before its consumer ever sees it).
func (t *teeChunks) Release(recs []Record) { t.src.Release(recs) }

type teeRunChunks struct {
	teeChunks
	rs RunChunkSource
}

// NextChunkRuns implements RunChunkSource.
func (t *teeRunChunks) NextChunkRuns() (recs []Record, runs []uint8) {
	recs, runs = t.rs.NextChunkRuns()
	if len(recs) > 0 {
		t.observe(recs)
	}
	return recs, runs
}

// RunLineBytes implements RunChunkSource.
func (t *teeRunChunks) RunLineBytes() int { return t.rs.RunLineBytes() }
