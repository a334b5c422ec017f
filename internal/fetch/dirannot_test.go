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

// countingGShare is a gshare predictor that counts the protocol calls made
// on it, so a test can see which engines' predictors a broadcast trained.
type countingGShare struct {
	*pht.GShare
	calls int
}

func (c *countingGShare) Predict(pc isa.Addr) (bool, pht.Token) {
	c.calls++
	return c.GShare.Predict(pc)
}

func (c *countingGShare) Query(pc isa.Addr) bool {
	c.calls++
	return c.GShare.Query(pc)
}

func (c *countingGShare) Resolve(pc isa.Addr, tok pht.Token, taken bool) {
	c.calls++
	c.GShare.Resolve(pc, tok, taken)
}

func (c *countingGShare) AdoptState(src pht.Predictor) bool {
	s, ok := src.(*countingGShare)
	return ok && c.GShare.AdoptState(s.GShare)
}

// dirShareEngines builds one gshare configuration across two geometries —
// grouped engines on both — plus a private prefetching (FDIP) engine with
// the same configuration, the last engine. preds are the engines'
// predictors, in engine order.
func dirShareEngines() (engines []*Frontend, preds []*countingGShare) {
	g1 := cache.MustGeometry(8*1024, 32, 1)
	g2 := cache.MustGeometry(16*1024, 32, 2)
	gshare := func() *countingGShare {
		p := &countingGShare{GShare: pht.NewGShare(1024, 6)}
		preds = append(preds, p)
		return p
	}
	engines = []*Frontend{
		NewNLSTableEngine(g1, 512, gshare(), 32),
		NewBTBEngine(g1, btb.Config{Entries: 128, Assoc: 1}, gshare(), 32),
		NewNLSTableEngine(g2, 512, gshare(), 32),
		NewNLSCacheEngine(g2, 2, gshare(), 32),
	}
	fdip := NewNLSTableEngine(g2, 512, gshare(), 32)
	fdip.ICache().EnablePrefetch(8, 20)
	fdip.SetFTQDepth(8)
	fdip.AttachPrefetcher(NewFDIPPrefetcher(fdip.ICache()))
	return append(engines, fdip), preds
}

// TestBroadcastSharesDirAnnotation: engines holding one direction-predictor
// configuration read one shared direction annotation whether they are
// grouped on either geometry or private, at every worker count — exactly
// one predictor (the annotation's driver) is trained during the broadcast —
// and every counter equals the Run/RunChunks reference, at workers 1, 2
// and 4. Run under -race via
// `make stress`: the main goroutine trains the driven predictor while a
// worker replays its engine.
func TestBroadcastSharesDirAnnotation(t *testing.T) {
	tr := workload.Gcc().MustTrace(40_000)
	chunked := trace.Chunk(tr, 1024)

	ref, _ := dirShareEngines()
	fdip := len(ref) - 1
	want := make([]metrics.Counters, len(ref))
	for i, e := range ref {
		if i == fdip {
			// Its lookahead horizon is the replay block, so the reference
			// replays the broadcast's chunking.
			want[i] = *RunChunks(e, chunked.Chunks())
		} else {
			want[i] = *Run(e, tr)
		}
	}

	probe, _ := dirShareEngines()
	private, groups := replayPlan(probe)
	extractEchoes(groups)
	if drivers := planDirs(private, groups); len(drivers) != 1 || len(drivers[0].readers) != len(probe) {
		t.Fatalf("plan gives %d direction annotations, want one read by all %d engines", len(drivers), len(probe))
	}

	for _, workers := range []int{1, 2, 4} {
		engines, preds := dirShareEngines()
		if n := BroadcastWorkers(chunked.Chunks(), workers, engines...); n != int64(tr.Len()) {
			t.Fatalf("workers=%d: replayed %d records, want %d", workers, n, tr.Len())
		}
		trained := 0
		for _, p := range preds {
			if p.calls > 0 {
				trained++
			}
		}
		if trained != 1 {
			t.Errorf("workers=%d: %d engines trained their own predictor, want 1 (the annotation's driver)", workers, trained)
		}
		for i, e := range engines {
			if got := *e.Counters(); got != want[i] {
				t.Errorf("workers=%d engine %d (%s): counters diverge\n got %+v\nwant %+v",
					workers, i, e.Name(), got, want[i])
			}
		}
	}
}

// TestBroadcastDirAnnotationDecoupledOnly: when every reader of a direction
// annotation is decoupled, no run annotation is computed, so its driver
// walks every record of each block; the counters still equal RunChunks.
// Where a reader reads runs, the driver skips by them.
func TestBroadcastDirAnnotationDecoupledOnly(t *testing.T) {
	mk := func() []*Frontend {
		var es []*Frontend
		for _, g := range []cache.Geometry{cache.MustGeometry(8*1024, 32, 1), cache.MustGeometry(16*1024, 64, 2)} {
			e := NewNLSTableEngine(g, 512, pht.NewGShare(1024, 6), 32)
			e.ICache().EnablePrefetch(8, 20)
			e.SetFTQDepth(8)
			e.AttachPrefetcher(NewFDIPPrefetcher(e.ICache()))
			es = append(es, e)
		}
		return es
	}
	private, groups := replayPlan(mk())
	if lines := planRuns(groups); len(lines) != 0 {
		t.Fatalf("decoupled engines read %d run slots, want none", len(lines))
	}
	if ds := planDirs(private, groups); len(ds) != 1 || ds[0].runs != -1 {
		t.Fatalf("plan: %d direction drivers, want one walking every record", len(ds))
	}
	probe, _ := dirShareEngines()
	private, groups = replayPlan(probe)
	extractEchoes(groups)
	planRuns(groups)
	if ds := planDirs(private, groups); len(ds) != 1 || ds[0].runs < 0 {
		t.Fatal("a direction driver with grouped readers reads no run slot")
	}

	tr := workload.Gcc().MustTrace(30_000)
	chunked := trace.Chunk(tr, 1024)
	var want []metrics.Counters
	for _, e := range mk() {
		want = append(want, *RunChunks(e, chunked.Chunks()))
	}
	for _, workers := range []int{1, 2} {
		checkBroadcast(t, "decoupled-only", chunked.Chunks(), workers, mk, want)
	}
}

// handOffEngines mixes grouped engines on three direct-mapped geometries
// (one BTB echoed across two of them, one TAGE engine that reads no
// annotation, an NLS-cache alone in its geometry) with private ones (a
// polluted engine and a prefetching FDIP engine, the last), most on one
// gshare configuration.
func handOffEngines() []*Frontend {
	g1 := cache.MustGeometry(8*1024, 32, 1)
	g2 := cache.MustGeometry(16*1024, 32, 1)
	g3 := cache.MustGeometry(16*1024, 32, 2)
	g4 := cache.MustGeometry(8*1024, 32, 4)
	gshare := func() *pht.GShare { return pht.NewGShare(1024, 6) }
	bcfg := btb.Config{Entries: 128, Assoc: 1}

	polluted := NewBTBEngine(g1, bcfg, gshare(), 32)
	polluted.SetWrongPathPollution(true)
	fdip := NewNLSTableEngine(g3, 512, gshare(), 32)
	fdip.ICache().EnablePrefetch(8, 20)
	fdip.SetFTQDepth(8)
	fdip.AttachPrefetcher(NewFDIPPrefetcher(fdip.ICache()))
	return []*Frontend{
		NewNLSTableEngine(g1, 512, gshare(), 32),
		NewNLSCacheEngine(g1, 2, gshare(), 32),
		NewBTBEngine(g1, bcfg, gshare(), 32), // echo leader
		NewJohnsonEngine(g1),
		NewNLSTableEngine(g2, 512, gshare(), 32),
		NewBTBEngine(g2, bcfg, gshare(), 32), // echoed
		NewNLSTableEngine(g2, 512, testTAGE(), 32),
		NewNLSCacheEngine(g3, 2, gshare(), 32), // alone: a group of one
		NewNLSTableEngine(g4, 512, gshare(), 32),
		polluted,
		fdip,
	}
}

// TestBroadcastHandOffMatchesStep: after a broadcast over a first trace
// segment, every engine that replayed (all but the echoed one) continues
// through a second segment with Step and ends with the counters of a
// reference engine that stepped both segments record by record. This pins
// the hand-offs: each reader of a direction annotation, having adopted the
// driven predictor's state (AdoptState), is exactly as if it had trained
// its own predictor; each reader of a table annotation, having rebuilt its
// table and adopted the driven return stack and pending break, is exactly
// as if it had replayed; and every grouped engine, having taken its
// oracle's resident lines and LRU order, continues its i-cache exactly.
// Run under -race via `make stress`.
func TestBroadcastHandOffMatchesStep(t *testing.T) {
	tr := workload.Li().MustTrace(60_000)
	const split = 30 * 1024 // a block boundary
	first := trace.Chunk(&trace.Trace{Records: tr.Records[:split]}, 1024)
	rest := tr.Records[split:]

	ref := handOffEngines()
	fdip := len(ref) - 1
	want := make([]metrics.Counters, len(ref))
	for i, e := range ref {
		recs := tr.Records
		if i == fdip {
			// The broadcast replays its first segment in blocks, which
			// bound its lookahead.
			RunChunks(e, first.Chunks())
			recs = rest
		}
		want[i] = *Run(e, &trace.Trace{Records: recs})
	}

	probe := handOffEngines()
	private, groups := replayPlan(probe)
	echoes := extractEchoes(groups)
	if drivers := planDirs(private, groups); len(echoes) != 1 || len(drivers) != 1 {
		t.Fatalf("plan has %d echoes and %d direction annotations, want 1 and 1", len(echoes), len(drivers))
	}
	if tables := planTables(groups); len(tables) != 1 || len(tables[0].readers) != 3 {
		t.Fatalf("plan has %d table annotations, want 1 read by the three gshare NLS-tables", len(tables))
	}
	echoed := map[int]bool{}
	grouped := map[int]bool{}
	for i, e := range probe {
		echoed[i] = e == echoes[0].echo
	}
	for _, g := range groups {
		for _, m := range g.members {
			grouped[m.idx] = true
		}
		for _, m := range g.readers {
			grouped[m.idx] = true
		}
	}

	for _, workers := range []int{1, 2} {
		engines := handOffEngines()
		if n := BroadcastWorkers(first.Chunks(), workers, engines...); n != split {
			t.Fatalf("workers=%d: replayed %d records, want %d", workers, n, split)
		}
		for i, e := range engines {
			if echoed[i] {
				continue
			}
			for _, r := range rest {
				e.Step(r)
			}
			got, w := *e.Counters(), want[i]
			if grouped[i] {
				// A grouped engine takes the oracle's resident lines and
				// LRU order at the hand-off, so the 2-way NLS-cache and
				// the 4-way NLS-table continue exactly, but first-touch
				// tracking stays with the oracle, so the continuation
				// recounts its cold misses.
				got.ICacheColdMisses, w.ICacheColdMisses = 0, 0
			}
			if got != w {
				t.Errorf("workers=%d engine %d (%s): continuation diverges from record-by-record stepping\n got %+v\nwant %+v",
					workers, i, e.Name(), got, w)
			}
		}
	}
}
