package fetch

import (
	"testing"

	"repro/internal/btb"
	"repro/internal/cache"
	"repro/internal/metrics"
	"repro/internal/pht"
	"repro/internal/trace"
	"repro/internal/workload"
)

// broadcastEngines builds one engine of each architecture on a shared
// geometry, twice: a broadcast set and a per-engine oracle set.
func broadcastEngines() (bcast, oracle []*Frontend) {
	g := cache.MustGeometry(8*1024, 32, 1)
	mk := func() []*Frontend {
		return []*Frontend{
			NewNLSTableEngine(g, 512, pht.NewGShare(1024, 6), 32),
			NewNLSCacheEngine(g, 2, pht.NewGShare(1024, 6), 32),
			NewBTBEngine(g, btb.Config{Entries: 128, Assoc: 1}, pht.NewGShare(1024, 6), 32),
			NewCoupledBTBEngine(g, btb.Config{Entries: 128, Assoc: 4}, 32),
			NewJohnsonEngine(g),
		}
	}
	return mk(), mk()
}

// TestBroadcastMatchesRun: replaying a chunked trace once through Broadcast
// leaves every engine with exactly the counters the per-record Run path
// produces, at any worker count.
func TestBroadcastMatchesRun(t *testing.T) {
	tr := workload.Li().MustTrace(60_000)
	chunked := trace.Chunk(tr, 1024)

	for _, workers := range []int{0, 1, 2, 3, 16} {
		bcast, oracle := broadcastEngines()
		n := BroadcastWorkers(chunked.Chunks(), workers, bcast...)
		if n != int64(tr.Len()) {
			t.Fatalf("workers=%d: replayed %d records, want %d", workers, n, tr.Len())
		}
		for i, e := range oracle {
			want := *Run(e, tr)
			got := *bcast[i].Counters()
			if got != want {
				t.Errorf("workers=%d engine %s: counters diverge\n got %+v\nwant %+v",
					workers, bcast[i].Name(), got, want)
			}
		}
	}
}

// TestBroadcastRunsAnnotated: engines each alone in a geometry of 32-byte
// lines (so every one is demoted to a private replay) all read the one run
// annotation the broadcast computes per block, and end with the per-record
// Run counters at any worker count.
func TestBroadcastRunsAnnotated(t *testing.T) {
	tr := workload.Li().MustTrace(60_000)
	chunked := trace.Chunk(tr, 1000)
	mk := func() []*Frontend {
		return []*Frontend{
			NewNLSTableEngine(cache.MustGeometry(8*1024, 32, 1), 512, pht.NewGShare(1024, 6), 32),
			NewNLSCacheEngine(cache.MustGeometry(8*1024, 32, 2), 2, pht.NewGShare(1024, 6), 32),
			NewBTBEngine(cache.MustGeometry(16*1024, 32, 1), btb.Config{Entries: 128, Assoc: 1}, pht.NewGShare(1024, 6), 32),
			NewCoupledBTBEngine(cache.MustGeometry(16*1024, 32, 4), btb.Config{Entries: 128, Assoc: 4}, 32),
			NewJohnsonEngine(cache.MustGeometry(4*1024, 32, 1)),
		}
	}

	private, groups := replayPlan(mk())
	if lines := planRuns(private, groups); len(groups) != 0 || len(lines) != 1 || lines[0] != 32 {
		t.Fatalf("plan has %d groups and run slots %v, want 0 groups and one 32-byte slot", len(groups), lines)
	}
	for _, workers := range []int{1, 3} {
		bcast, oracle := mk(), mk()
		n := BroadcastWorkers(chunked.Chunks(), workers, bcast...)
		if n != int64(tr.Len()) {
			t.Fatalf("workers=%d: replayed %d records, want %d", workers, n, tr.Len())
		}
		for i, e := range oracle {
			want := *Run(e, tr)
			if got := *bcast[i].Counters(); got != want {
				t.Errorf("workers=%d engine %s: counters diverge\n got %+v\nwant %+v",
					workers, bcast[i].Name(), got, want)
			}
		}
	}
}

// mixedLineEngines builds grouped engines on 16-, 32- and 64-byte-line
// geometries (two geometries share the 64-byte line size), plus a private
// singleton on 32-byte lines and a polluted engine on 16-byte lines.
func mixedLineEngines() []*Frontend {
	g16 := cache.MustGeometry(4*1024, 16, 2)
	g32 := cache.MustGeometry(8*1024, 32, 1)
	g64a := cache.MustGeometry(16*1024, 64, 2)
	g64b := cache.MustGeometry(8*1024, 64, 1)
	gshare := func() *pht.GShare { return pht.NewGShare(1024, 6) }
	bcfg := btb.Config{Entries: 128, Assoc: 1}

	polluted := NewBTBEngine(g16, bcfg, gshare(), 32)
	polluted.SetWrongPathPollution(true)
	return []*Frontend{
		NewNLSTableEngine(g16, 512, gshare(), 32),
		NewJohnsonEngine(g16),
		NewNLSTableEngine(g32, 512, gshare(), 32),
		NewNLSCacheEngine(g32, 2, gshare(), 32),
		NewBTBEngine(g32, bcfg, gshare(), 32),
		NewNLSTableEngine(g64a, 512, gshare(), 32),
		NewJohnsonEngine(g64a),
		NewNLSCacheEngine(g64b, 2, gshare(), 32),
		NewJohnsonEngine(g64b),
		NewNLSTableEngine(cache.MustGeometry(16*1024, 32, 4), 512, gshare(), 32), // singleton: private
		polluted,
	}
}

// TestBroadcastMixedLineSizes: one broadcast over engines of three line
// sizes computes one run annotation per line size, shared by every group
// oracle and private engine of that size, and leaves every engine with the
// per-record Run counters at workers 1, 2 and 4. Run under -race via
// `make stress`.
func TestBroadcastMixedLineSizes(t *testing.T) {
	tr := workload.Gcc().MustTrace(40_000)
	chunked := trace.Chunk(tr, 1000)

	probe := mixedLineEngines()
	private, groups := replayPlan(probe)
	extractEchoes(groups)
	lines := planRuns(private, groups)
	if len(groups) != 4 || len(private) != 2 {
		t.Fatalf("plan has %d groups and %d private engines, want 4 and 2", len(groups), len(private))
	}
	if len(lines) != 3 {
		t.Fatalf("run slots %v, want one per line size (16, 32, 64)", lines)
	}
	seen := map[int]bool{}
	for _, lb := range lines {
		if seen[lb] {
			t.Fatalf("run slots %v repeat line size %d", lines, lb)
		}
		seen[lb] = true
	}
	for _, g := range groups {
		if lb := g.oracle.Geometry().LineBytes(); lines[g.runs] != lb {
			t.Errorf("group on %v reads the %d-byte run slot", g.oracle.Geometry(), lines[g.runs])
		}
	}
	for _, m := range private {
		if m.runs < 0 || lines[m.runs] != m.fr.geom.LineBytes() {
			t.Errorf("private engine %d on %v reads run slot %d", m.idx, m.fr.geom, m.runs)
		}
	}

	want := make([]metrics.Counters, len(probe))
	for i, e := range mixedLineEngines() {
		want[i] = *Run(e, tr)
	}
	for _, workers := range []int{1, 2, 4} {
		engines := mixedLineEngines()
		if n := BroadcastWorkers(chunked.Chunks(), workers, engines...); n != int64(tr.Len()) {
			t.Fatalf("workers=%d: replayed %d records, want %d", workers, n, tr.Len())
		}
		for i, e := range engines {
			if got := *e.Counters(); got != want[i] {
				t.Errorf("workers=%d engine %d (%s): counters diverge\n got %+v\nwant %+v",
					workers, i, e.Name(), got, want[i])
			}
		}
	}
}

// TestStepBlockRunsMatchesStepBlock: replaying every block from the
// trace's precomputed run annotation (replayRuns) is exactly a plain Step
// loop for every engine.
func TestStepBlockRunsMatchesStepBlock(t *testing.T) {
	tr := workload.Groff().MustTrace(30_000)
	chunked := trace.Chunk(tr, 1000)
	runs := chunked.RunLens(32)

	bcast, oracle := broadcastEngines()
	for i := range bcast {
		for bi := 0; bi < chunked.NumChunks(); bi++ {
			bcast[i].replayRuns(chunked.Block(bi), runs[bi])
		}
		want := *Run(oracle[i], tr)
		if got := *bcast[i].Counters(); got != want {
			t.Errorf("engine %s: replayRuns diverges from Step", bcast[i].Name())
		}
	}
}

// TestBroadcastStreaming: a streaming source (no materialized trace)
// broadcast to several engines matches the materialized replay.
func TestBroadcastStreaming(t *testing.T) {
	const n = 60_000
	spec := workload.Espresso()
	tr := spec.MustTrace(n)
	src, err := spec.Source()
	if err != nil {
		t.Fatal(err)
	}

	bcast, oracle := broadcastEngines()
	got := BroadcastWorkers(trace.NewSourceChunks(src, n, 512), 2, bcast...)
	if got != n {
		t.Fatalf("streamed %d records, want %d", got, n)
	}
	for i, e := range oracle {
		want := *Run(e, tr)
		if g := *bcast[i].Counters(); g != want {
			t.Errorf("engine %s: streamed counters diverge from materialized", bcast[i].Name())
		}
	}
}

// TestBroadcastNoEngines: with no engines the source must not be consumed.
func TestBroadcastNoEngines(t *testing.T) {
	tr := trace.Chunk(workload.Li().MustTrace(2_000), 256)
	it := tr.Chunks()
	if n := Broadcast(it); n != 0 {
		t.Fatalf("replayed %d records with no engines", n)
	}
	if blk := it.NextChunk(); len(blk) != 256 {
		t.Fatalf("source was consumed: first chunk now %d records", len(blk))
	}
}

// TestStepBlockMatchesStep: StepBlock is exactly a Step loop for every
// engine.
func TestStepBlockMatchesStep(t *testing.T) {
	tr := workload.Groff().MustTrace(30_000)
	bcast, oracle := broadcastEngines()
	for i := range bcast {
		// Feed via StepBlock in uneven slices to cross block sizes.
		recs := tr.Records
		for len(recs) > 0 {
			k := 777
			if k > len(recs) {
				k = len(recs)
			}
			bcast[i].StepBlock(recs[:k])
			recs = recs[k:]
		}
		want := *Run(oracle[i], tr)
		if got := *bcast[i].Counters(); got != want {
			t.Errorf("engine %s: StepBlock diverges from Step", bcast[i].Name())
		}
	}
}
