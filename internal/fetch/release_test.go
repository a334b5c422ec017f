package fetch

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/btb"
	"repro/internal/cache"
	"repro/internal/isa"
	"repro/internal/metrics"
	"repro/internal/pht"
	"repro/internal/trace"
	"repro/internal/workload"
)

// recyclingSource is a ChunkSource over a chunked trace that copies every
// block into recycled storage and overwrites it with garbage the moment it
// is released. A consumer that reads a block after releasing it — or a
// broadcaster that releases it before its last reader — sees the garbage
// (and, under -race, the detector sees the unsynchronized write). It also
// counts outstanding blocks and flags any block released twice or never
// drawn.
type recyclingSource struct {
	t    *testing.T
	c    *trace.Chunked
	next int

	mu          sync.Mutex
	free        [][]trace.Record
	out         map[*trace.Record]bool // outstanding blocks
	drawn, peak int
	released    int
}

func newRecyclingSource(t *testing.T, c *trace.Chunked) *recyclingSource {
	return &recyclingSource{t: t, c: c, out: make(map[*trace.Record]bool)}
}

func (s *recyclingSource) NextChunk() []trace.Record {
	if s.next >= s.c.NumChunks() {
		return nil
	}
	bi := s.next
	s.next++
	s.mu.Lock()
	defer s.mu.Unlock()
	var recs []trace.Record
	if k := len(s.free); k > 0 {
		recs, s.free = s.free[k-1][:0], s.free[:k-1]
	}
	recs = append(recs, s.c.Block(bi)...)
	s.out[&recs[0]] = true
	s.drawn++
	s.peak = max(s.peak, len(s.out))
	return recs
}

func (s *recyclingSource) Release(recs []trace.Record) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.out[&recs[0]] {
		s.t.Errorf("released a block that is not outstanding (double release?)")
		return
	}
	delete(s.out, &recs[0])
	s.released++
	for i := range recs {
		recs[i] = trace.Record{PC: 0xdead0000 + isa.Addr(4*i), Kind: isa.CondBranch, Taken: i%2 == 0, Target: 0xbeef0000}
	}
	s.free = append(s.free, recs)
}

// checkReleased asserts every drawn block was released exactly once
// (double releases are flagged by Release itself) and that at most bound
// were outstanding at any moment.
func (s *recyclingSource) checkReleased(t *testing.T, name string, bound int) {
	t.Helper()
	if s.drawn != s.c.NumChunks() {
		t.Errorf("%s: drew %d blocks, want %d", name, s.drawn, s.c.NumChunks())
	}
	if s.released != s.drawn || len(s.out) != 0 {
		t.Errorf("%s: released %d of %d drawn blocks", name, s.released, s.drawn)
	}
	if s.peak > bound {
		t.Errorf("%s: %d blocks outstanding at once, bound %d", name, s.peak, bound)
	}
}

// releaseEngines is a mixed engine set exercising every replay path of the
// broadcaster at once: oracle groups on three geometries (two line sizes,
// so blocks carry two run-annotation slots), BTB engines echoed
// across geometries — including a geometry whose every member is echoed
// away — a shared gshare direction annotation, TAGE, a grouped engine with
// an attached probe, and the private paths (wrong-path pollution, a
// decoupled FDIP frontend).
// fdip is the decoupled engine's index: its reference replays the same
// chunking, since its lookahead horizon is the replay block.
func releaseEngines() (engines []*Frontend, fdip int) {
	g1 := cache.MustGeometry(8*1024, 32, 1)
	g2 := cache.MustGeometry(16*1024, 32, 2)
	g3 := cache.MustGeometry(4*1024, 16, 2)
	g4 := cache.MustGeometry(32*1024, 32, 4)
	gshare := func() *pht.GShare { return pht.NewGShare(1024, 6) }
	bcfg := btb.Config{Entries: 128, Assoc: 1}

	polluted := NewBTBEngine(g1, bcfg, gshare(), 32)
	polluted.SetWrongPathPollution(true)
	probed := NewNLSCacheEngine(g1, 2, gshare(), 32)
	probed.AttachProbe(&collectProbe{})
	prefetched := NewNLSTableEngine(g2, 512, gshare(), 32)
	prefetched.ICache().EnablePrefetch(8, 20)
	prefetched.SetFTQDepth(8)
	prefetched.AttachPrefetcher(NewFDIPPrefetcher(prefetched.ICache()))

	engines = []*Frontend{
		NewNLSTableEngine(g1, 512, gshare(), 32), // grouped, drives the direction annotation
		NewJohnsonEngine(g1),
		NewBTBEngine(g1, bcfg, gshare(), 32), // echo leader
		NewNLSTableEngine(g2, 512, gshare(), 32),
		NewNLSCacheEngine(g2, 2, gshare(), 32),
		NewBTBEngine(g2, bcfg, gshare(), 32), // echoed
		NewNLSTableEngine(g1, 512, testTAGE(), 32),
		NewBTBEngine(g2, bcfg, testTAGE(), 32),
		NewJohnsonEngine(g3), // 16-byte lines: a second run slot
		NewNLSTableEngine(g3, 256, gshare(), 32),
		NewBTBEngine(g4, bcfg, gshare(), 32), // g4: every member echoed
		NewBTBEngine(g4, bcfg, gshare(), 32),
		polluted,
		probed,
		prefetched,
	}
	return engines, len(engines) - 1
}

// TestBroadcastOutstandingBlocksBounded: at every worker count the
// broadcast releases each drawn block exactly once, and never holds more
// blocks outstanding than the fan-out's documented bound (broadcastBound).
func TestBroadcastOutstandingBlocksBounded(t *testing.T) {
	tr := workload.Gcc().MustTrace(40_000)
	chunked := trace.Chunk(tr, 256)
	for _, workers := range []int{1, 2, 4} {
		src := newRecyclingSource(t, chunked)
		engines, _ := releaseEngines()
		if n := BroadcastWorkers(src, workers, engines...); n != int64(tr.Len()) {
			t.Fatalf("workers=%d: replayed %d records, want %d", workers, n, tr.Len())
		}
		src.checkReleased(t, fmt.Sprintf("workers=%d", workers), broadcastBound)
	}

	src := newRecyclingSource(t, chunked)
	RunChunks(NewJohnsonEngine(cache.MustGeometry(8*1024, 32, 1)), src)
	src.checkReleased(t, "RunChunks", 1)
}

// TestStressReleasedBlockPoisoned replays the mixed engine set over a
// source that poisons every block as soon as it is released and reuses the storage for later blocks, at workers 1, 2 and 4,
// and repeats the matrix over the recycling streamed sources of package
// trace. A block released before its last reader would feed that reader
// garbage; every counter must instead equal the per-record fetch.Run
// reference. Run under -race via `make stress`.
func TestStressReleasedBlockPoisoned(t *testing.T) {
	tr := workload.Li().MustTrace(40_000)
	chunked := trace.Chunk(tr, 1024)

	// The set must actually exercise echoes and the direction annotation.
	probe, _ := releaseEngines()
	private, groups := replayPlan(probe)
	if len(extractEchoes(groups)) < 3 {
		t.Fatal("engine set echoes fewer than three engines")
	}
	if len(planDirs(private, groups)) == 0 {
		t.Fatal("engine set shares no direction annotation")
	}

	ref, fdip := releaseEngines()
	want := make([]metrics.Counters, len(ref))
	for i, e := range ref {
		if i == fdip {
			want[i] = *RunChunks(e, chunked.Chunks())
		} else {
			want[i] = *Run(e, tr)
		}
	}

	// Besides the poisoning source, the streamed sources' own free lists
	// take releases from every replay goroutine at once.
	sources := map[string]func() (trace.ChunkSource, func(bound int)){
		"poisoned": func() (trace.ChunkSource, func(bound int)) {
			src := newRecyclingSource(t, chunked)
			return src, func(bound int) { src.checkReleased(t, "poisoned", bound) }
		},
		"streamed": func() (trace.ChunkSource, func(bound int)) {
			return trace.NewSourceChunks(&trace.SliceSource{Records: tr.Records}, tr.Len(), 1024), func(int) {}
		},
	}
	for name, mkSrc := range sources {
		for _, workers := range []int{1, 2, 4} {
			src, check := mkSrc()
			engines, _ := releaseEngines()
			if n := BroadcastWorkers(src, workers, engines...); n != int64(tr.Len()) {
				t.Fatalf("%s: replayed %d records, want %d", name, n, tr.Len())
			}
			check(broadcastBound)
			for i, e := range engines {
				if got := *e.Counters(); got != want[i] {
					t.Errorf("%s workers=%d engine %d (%s): counters diverge over recycled blocks\n got %+v\nwant %+v",
						name, workers, i, e.Name(), got, want[i])
				}
			}
		}
	}
}
