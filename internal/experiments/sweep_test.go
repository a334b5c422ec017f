package experiments

import (
	"math/rand"
	"sync"
	"testing"

	"repro/internal/btb"
	"repro/internal/cache"
	"repro/internal/fetch"
	"repro/internal/trace"
)

// programTraces generates every configured program's whole trace, in
// parallel: the materialized input of the per-cell oracles. Production
// code never holds a whole trace (Runner.source streams).
func programTraces(t testing.TB, cfg Config) []*trace.Trace {
	t.Helper()
	traces := make([]*trace.Trace, len(cfg.Programs))
	if err := forEachProgram(len(traces), func(i int) (err error) {
		traces[i], err = cfg.Programs[i].Trace(cfg.Insns)
		return err
	}); err != nil {
		t.Fatal(err)
	}
	return traces
}

// sweepPerCell is the legacy scheduler: every (program × factory × cache)
// cell replays the full materialized trace independently through
// fetch.Run, under a bounded worker pool. It is the differential-test
// oracle for the grid executor; rows come back in Sweep's order.
func sweepPerCell(t testing.TB, cfg Config, factories []Factory, caches []cache.Geometry) []Row {
	traces := programTraces(t, cfg)
	results := make([]Row, len(traces)*len(factories)*len(caches))
	var wg sync.WaitGroup
	sem := make(chan struct{}, maxParallel())
	idx := 0
	for _, tr := range traces {
		for _, f := range factories {
			for _, g := range caches {
				wg.Add(1)
				sem <- struct{}{}
				go func(slot int, tr *trace.Trace, f Factory, g cache.Geometry) {
					defer wg.Done()
					defer func() { <-sem }()
					m := fetch.Run(f.New(g), tr)
					results[slot] = Row{Program: tr.Name, Arch: f.Name,
						Spec: f.Spec.WithGeometry(g), M: *m}
				}(idx, tr, f, g)
				idx++
			}
		}
	}
	wg.Wait()
	return results
}

// sweepMatrix is the architecture axis used by the scheduler tests: one
// factory per engine family, so the differential covers every Step path.
func sweepMatrix() []Factory {
	return []Factory{
		NLSCacheFactory(NLSPerLine),
		NLSTableFactory(1024),
		BTBFactory(btb.Config{Entries: 128, Assoc: 1}),
		JohnsonFactory(),
	}
}

// TestSweepMatchesPerCellOracle is the differential test for the
// shared-replay scheduler: for the fixed built-in seeds, Sweep (broadcast
// path) must produce bit-identical metrics.Counters for EVERY
// (program × arch × cache) cell versus the legacy per-cell fetch.Run path,
// in the same deterministic order.
func TestSweepMatchesPerCellOracle(t *testing.T) {
	r := NewRunner(DefaultConfig(120_000))
	factories := sweepMatrix()
	caches := PaperCaches()

	got, err := r.Sweep(factories, caches)
	if err != nil {
		t.Fatal(err)
	}
	want := sweepPerCell(t, r.Cfg, factories, caches)
	if len(got) != len(want) {
		t.Fatalf("Sweep returned %d cells, oracle %d", len(got), len(want))
	}
	if len(got) != len(r.Cfg.Programs)*len(factories)*len(caches) {
		t.Fatalf("unexpected cell count %d", len(got))
	}
	for i := range want {
		if got[i].Program != want[i].Program || got[i].Arch != want[i].Arch ||
			got[i].Spec.Cache != want[i].Spec.Cache {
			t.Fatalf("cell %d keyed (%s, %s, %s), oracle (%s, %s, %s)",
				i, got[i].Program, got[i].Arch, got[i].Cache(),
				want[i].Program, want[i].Arch, want[i].Cache())
		}
		if got[i].M != want[i].M {
			t.Errorf("cell %d (%s, %s, %s): counters diverge\n got %+v\nwant %+v",
				i, got[i].Program, got[i].Arch, got[i].Cache(), got[i].M, want[i].M)
		}
	}
}

// TestSweepPropertyRandomMatrix: randomized differential for the grouped
// fetch-oracle scheduler. Each trial draws a random architecture matrix —
// factories duplicated and reordered, wrong-path pollution flipped per arm
// (pollution-on arms must take the private-cache fallback), line sizes and
// associativities mixed so geometry groups form and dissolve — and asserts
// the broadcast Sweep is counter-for-counter identical to the per-cell
// replay. The probed/unprobed mix is asserted at the fetch layer
// (TestBroadcastMixedEligibility); Sweep itself never attaches probes.
func TestSweepPropertyRandomMatrix(t *testing.T) {
	rng := rand.New(rand.NewSource(1995)) // deterministic trials
	pool := func() []Factory {
		return []Factory{
			NLSCacheFactory(NLSPerLine),
			NLSCacheFactory(1),
			NLSTableFactory(256),
			NLSTableFactory(1024),
			BTBFactory(btb.Config{Entries: 128, Assoc: 1}),
			BTBFactory(btb.Config{Entries: 256, Assoc: 4}),
			JohnsonFactory(),
		}
	}
	allCaches := []cache.Geometry{
		cache.MustGeometry(4*1024, 16, 1),
		cache.MustGeometry(8*1024, 32, 1),
		cache.MustGeometry(8*1024, 32, 4),
		cache.MustGeometry(16*1024, 64, 2),
	}

	for trial := 0; trial < 4; trial++ {
		src := pool()
		var factories []Factory
		for len(factories) < 2+rng.Intn(4) {
			f := src[rng.Intn(len(src))]
			if rng.Intn(2) == 0 {
				f.Name += " (polluted)"
				f.Spec.Pollution = true
			}
			factories = append(factories, f)
		}
		caches := append([]cache.Geometry(nil), allCaches...)
		rng.Shuffle(len(caches), func(i, j int) { caches[i], caches[j] = caches[j], caches[i] })
		caches = caches[:1+rng.Intn(len(caches))]

		cfg := DefaultConfig(40_000)
		cfg.Programs = cfg.Programs[:2]
		r := NewRunner(cfg)
		got, err := r.Sweep(factories, caches)
		if err != nil {
			t.Fatal(err)
		}
		want := sweepPerCell(t, r.Cfg, factories, caches)
		if len(got) != len(want) {
			t.Fatalf("trial %d: Sweep returned %d cells, oracle %d", trial, len(got), len(want))
		}
		for i := range want {
			if got[i].M != want[i].M {
				t.Errorf("trial %d cell %d (%s, %s, %s): counters diverge\n got %+v\nwant %+v",
					trial, i, got[i].Program, got[i].Arch, got[i].Cache(), got[i].M, want[i].M)
			}
		}
	}
}

// TestSweepStats: the scheduler's counters account every cell and every
// record exactly once per program replay.
func TestSweepStats(t *testing.T) {
	r := NewRunner(DefaultConfig(50_000))
	var calls int
	r.Progress = func(SweepStats) { calls++ }
	factories := sweepMatrix()
	caches := PaperCaches()[:2]
	if _, err := r.Sweep(factories, caches); err != nil {
		t.Fatal(err)
	}
	s := r.LastSweepStats()
	wantCells := len(r.Cfg.Programs) * len(factories) * len(caches)
	if s.Cells != wantCells || s.TotalCells != wantCells {
		t.Errorf("cells = %d/%d, want %d", s.Cells, s.TotalCells, wantCells)
	}
	// Shared replay: each program's trace is read once, NOT once per cell.
	wantRecords := int64(len(r.Cfg.Programs)) * int64(r.Cfg.Insns)
	if s.Records != wantRecords {
		t.Errorf("records replayed = %d, want %d (one replay per program)", s.Records, wantRecords)
	}
	if s.Elapsed <= 0 || s.RecordsPerSec() <= 0 {
		t.Errorf("elapsed/throughput not populated: %+v", s)
	}
	if calls != len(r.Cfg.Programs) {
		t.Errorf("Progress called %d times, want %d", calls, len(r.Cfg.Programs))
	}
}
