package fetch

import (
	"testing"

	"repro/internal/btb"
	"repro/internal/cache"
	"repro/internal/isa"
	"repro/internal/metrics"
	"repro/internal/pht"
	"repro/internal/trace"
	"repro/internal/workload"
)

// TestReplayPlanPartitioning: the broadcast planner groups exactly the
// engines whose cache state is a pure function of the trace — pollution-on
// engines, probed engines, and engines alone in their geometry must all
// keep the private-cache path (DESIGN.md §11).
func TestReplayPlanPartitioning(t *testing.T) {
	g1 := cache.MustGeometry(8*1024, 32, 1)
	g2 := cache.MustGeometry(4*1024, 16, 2)
	mk := func(g cache.Geometry) *NLSEngine {
		return NewNLSTableEngine(g, 512, pht.NewGShare(1024, 6), 32)
	}

	eligibleA := mk(g1)
	polluted := mk(g1)
	polluted.SetWrongPathPollution(true)
	eligibleB := NewJohnsonEngine(g1)
	probed := mk(g1)
	probed.AttachProbe(&collectProbe{})
	lone := mk(g2) // eligible, but a singleton group is pure overhead
	prefetched := mk(g1)
	prefetched.ICache().EnablePrefetch(8, 20)
	prefetched.SetFTQDepth(8)
	prefetched.AttachPrefetcher(NewFDIPPrefetcher(prefetched.ICache()))

	for _, e := range []Engine{eligibleA, eligibleB, lone} {
		if !asFrontend(e).oracleEligible() {
			t.Fatal("clean engine reported ineligible for oracle sharing")
		}
	}
	if polluted.oracleEligible() {
		t.Error("pollution-on engine reported eligible for oracle sharing")
	}
	if probed.oracleEligible() {
		t.Error("probed engine reported eligible for oracle sharing")
	}
	if prefetched.oracleEligible() {
		t.Error("prefetching engine reported eligible for oracle sharing")
	}

	engines := []Engine{eligibleA, polluted, eligibleB, probed, lone, prefetched}
	src := trace.Chunk(workload.Li().MustTrace(1_000), 256)
	_, private, groups := replayPlan(src.Chunks(), engines)

	if len(groups) != 1 {
		t.Fatalf("got %d oracle groups, want 1", len(groups))
	}
	grp := groups[0]
	if grp.oracle.Geometry() != g1 {
		t.Errorf("group oracle geometry %v, want %v", grp.oracle.Geometry(), g1)
	}
	if len(grp.members) != 2 || grp.members[0].idx != 0 || grp.members[1].idx != 2 {
		t.Errorf("group members %v, want engine indices [0 2]", grp.members)
	}
	// polluted, probed, the prefetching engine, and the demoted singleton
	// replay privately.
	if len(private) != 4 {
		t.Errorf("got %d private engines, want 4 (polluted, probed, singleton, prefetched)", len(private))
	}

	// Detaching the probe, the prefetcher (with its FTQ), and disabling
	// pollution restores full grouping: only the singleton stays private.
	polluted.SetWrongPathPollution(false)
	probed.AttachProbe(nil)
	prefetched.AttachPrefetcher(nil)
	prefetched.SetFTQDepth(0)
	_, private, groups = replayPlan(src.Chunks(), engines)
	if len(groups) != 1 || len(groups[0].members) != 5 || len(private) != 1 {
		t.Errorf("after detach: %d groups / %d members / %d private, want 1/5/1",
			len(groups), len(groups[0].members), len(private))
	}
}

// TestBroadcastMixedEligibility: a broadcast over engines mixing geometries,
// wrong-path pollution, and attached probes — so grouped, fallback, and
// singleton paths all run in one replay — is counter-for-counter identical
// to the per-engine Run path, at any worker count, with and without shared
// run annotations and the sequential pipeline. Every engine stepped on any
// of those paths reports a nonzero ReplayTime: a path the broadcaster
// forgot to time would leave the counters intact and fail only here.
func TestBroadcastMixedEligibility(t *testing.T) {
	g1 := cache.MustGeometry(8*1024, 32, 1)
	g2 := cache.MustGeometry(4*1024, 16, 2)
	mkSet := func() []Engine {
		polluted := NewBTBEngine(g1, btb.Config{Entries: 128, Assoc: 1}, pht.NewGShare(1024, 6), 32)
		polluted.SetWrongPathPollution(true)
		probed := NewNLSCacheEngine(g1, 2, pht.NewGShare(1024, 6), 32)
		probed.AttachProbe(&collectProbe{})
		prefetched := NewNLSTableEngine(g1, 512, pht.NewGShare(1024, 6), 32)
		prefetched.ICache().EnablePrefetch(8, 20)
		prefetched.SetFTQDepth(8)
		prefetched.AttachPrefetcher(NewFDIPPrefetcher(prefetched.ICache()))
		return []Engine{
			NewNLSTableEngine(g1, 512, pht.NewGShare(1024, 6), 32), // grouped (g1)
			polluted,             // private: pollution forks cache state
			NewJohnsonEngine(g1), // grouped (g1)
			probed,               // private: probe attached
			NewJohnsonEngine(g2), // grouped (g2)
			NewNLSTableEngine(g2, 512, pht.NewGShare(1024, 6), 32), // grouped (g2)
			prefetched, // private: decoupled frontend prefetches
		}
	}

	tr := workload.Li().MustTrace(60_000)
	chunked := trace.Chunk(tr, 1024)
	sources := map[string]func() trace.ChunkSource{
		"plain": func() trace.ChunkSource { return chunked.Chunks() },
		"runs":  func() trace.ChunkSource { return chunked.ChunksRuns(32) },
	}
	// The prefetched engine's independent oracle replays the identical
	// chunking (its FTQ lookahead is bounded by the replay block, so
	// per-record Step is a different — also correct — configuration).
	oracleRun := func(i int, e Engine) metrics.Counters {
		if _, ok := e.(PrefetchAttacher); ok && i == 6 {
			return *RunChunks(e, chunked.Chunks())
		}
		return *Run(e, tr)
	}
	defer func(old bool) { broadcastPipeline = old }(broadcastPipeline)
	for name, mkSrc := range sources {
		for _, workers := range []int{1, 3} {
			for _, pipelined := range []bool{false, true} {
				broadcastPipeline = pipelined
				bcast, oracle := mkSet(), mkSet()
				n := BroadcastWorkers(mkSrc(), workers, bcast...)
				if n != int64(tr.Len()) {
					t.Fatalf("%s workers=%d pipelined=%v: replayed %d records, want %d",
						name, workers, pipelined, n, tr.Len())
				}
				for i, e := range oracle {
					want := oracleRun(i, e)
					if got := *bcast[i].Counters(); got != want {
						t.Errorf("%s workers=%d pipelined=%v engine %s: counters diverge\n got %+v\nwant %+v",
							name, workers, pipelined, bcast[i].Name(), got, want)
					}
					if ReplayTime(bcast[i]) <= 0 {
						t.Errorf("%s workers=%d pipelined=%v engine %s: stepped but ReplayTime = %v",
							name, workers, pipelined, bcast[i].Name(), ReplayTime(bcast[i]))
					}
				}
			}
		}
	}
}

// TestStepBlockEventsLongRun: a straight-line run longer than the uint8
// RunLens cap (255) continues under a new leader; the oracle event-list
// replay must agree with the per-record path across that boundary, with
// and without the shared run annotation. 2048-byte lines hold 512
// instructions, so one line spans two run segments.
func TestStepBlockEventsLongRun(t *testing.T) {
	g := cache.MustGeometry(8*1024, 2048, 1)
	b := newTB(0x4000)
	for i := 0; i < 3; i++ {
		b.plain(400) // crosses the 255-cap inside one line
		b.br(isa.UncondBranch, true, b.pc+4*500)
	}
	b.plain(400)
	tr := b.trace(t)
	chunked := trace.Chunk(tr, 600) // runs also truncate at block boundaries

	mk := func() []Engine {
		return []Engine{
			NewNLSTableEngine(g, 512, pht.NewGShare(1024, 6), 32),
			NewJohnsonEngine(g),
		}
	}
	for name, runs := range map[string][][]uint8{
		"plain": nil,
		"runs":  chunked.RunLens(2048),
	} {
		events, oracle := mk(), mk()
		orc := cache.NewOracle(g)
		var ann cache.AccessAnnotations
		for bi := 0; bi < chunked.NumChunks(); bi++ {
			var blkRuns []uint8
			if runs != nil {
				blkRuns = runs[bi]
			}
			orc.Annotate(chunked.Block(bi), blkRuns, &ann)
			for _, e := range events {
				asFrontend(e).replayEvents(chunked.Block(bi), &ann)
			}
		}
		ann.Release()
		for i, e := range oracle {
			want := *Run(e, tr)
			if got := *events[i].Counters(); got != want {
				t.Errorf("%s engine %s: counters diverge across 255-run boundary\n got %+v\nwant %+v",
					name, events[i].Name(), got, want)
			}
		}
	}
}

// recordingTP is a scripted TargetPredictor that defers every Update and
// records the Resolve calls it receives.
type recordingTP struct {
	resolved []struct {
		rec trace.Record
		way int
	}
}

func (p *recordingTP) Lookup(rec trace.Record, set, way int, dirTaken bool) Outcome {
	return Outcome{Correct: true}
}
func (p *recordingTP) Update(rec trace.Record) bool { return true }
func (p *recordingTP) Resolve(rec trace.Record, way int) {
	p.resolved = append(p.resolved, struct {
		rec trace.Record
		way int
	}{rec, way})
}
func (p *recordingTP) WrongPath(rec trace.Record) (isa.Addr, bool) { return 0, false }
func (p *recordingTP) Name() string                                { return "recording" }
func (p *recordingTP) SizeBits() int                               { return 0 }
func (p *recordingTP) Reset()                                      { p.resolved = nil }

// TestPendingResolveGuard: a deferred predictor update is resolved only by
// the break's actual successor. On well-chained input the next record IS
// the successor and Resolve fires with its cache way; on non-chained input
// (rec.PC != pending.rec.Next()) the guard must drop the update without
// calling Resolve — and the pending slot must clear either way.
func TestPendingResolveGuard(t *testing.T) {
	br := trace.Record{PC: 0x1000, Kind: isa.UncondBranch, Taken: true, Target: 0x2000}

	t.Run("chained", func(t *testing.T) {
		tp := &recordingTP{}
		f := newFrontend(smallGeom(), pht.Static{}, 8)
		f.bind(tp, Traits{})
		f.Step(br)
		f.Step(trace.Record{PC: br.Next(), Kind: isa.NonBranch})
		if len(tp.resolved) != 1 {
			t.Fatalf("got %d Resolve calls, want 1", len(tp.resolved))
		}
		got := tp.resolved[0]
		if got.rec.PC != br.PC {
			t.Errorf("resolved record PC %#x, want %#x", got.rec.PC, br.PC)
		}
		if w, hit := f.icache.Probe(br.Next()); !hit || got.way != w {
			t.Errorf("resolved way %d, want successor's resident way %d (hit=%v)", got.way, w, hit)
		}
		if f.pending.active {
			t.Error("pending update still active after resolve")
		}
	})

	t.Run("non-chained", func(t *testing.T) {
		tp := &recordingTP{}
		f := newFrontend(smallGeom(), pht.Static{}, 8)
		f.bind(tp, Traits{})
		f.Step(br)
		f.Step(trace.Record{PC: 0x3000, Kind: isa.NonBranch}) // not br.Next()
		if len(tp.resolved) != 0 {
			t.Fatalf("Resolve called %d times on non-chained successor, want 0", len(tp.resolved))
		}
		if f.pending.active {
			t.Error("pending update not cleared by non-chained record")
		}
		// The dropped update must not leak onto a later chained pair.
		f.Step(trace.Record{PC: 0x3004, Kind: isa.NonBranch})
		if len(tp.resolved) != 0 {
			t.Errorf("stale pending update resolved later: %d calls", len(tp.resolved))
		}
	})
}
