package trace

// TeeChunks wraps a chunk source so every drawn block is also handed to
// observe, in order, before the consumer sees it. This is how the grid
// executor derives per-program statistics (StatsCollector, fetch-block
// counts) from the same single trace read that drives the broadcast replay:
// the broadcaster draws blocks through the tee, and the observer runs on
// the drawing goroutine, serialized with the draws.
func TeeChunks(src ChunkSource, observe func([]Record)) ChunkSource {
	return &teeChunks{src: src, observe: observe}
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
