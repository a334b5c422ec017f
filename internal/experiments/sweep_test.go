package experiments

import (
	"math/rand"
	"sync"
	"testing"

	"repro/internal/arch"
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

// sweepPerCell is the legacy scheduler: every grid cell replays its
// program's full materialized trace independently through fetch.Run, under
// a bounded worker pool. It is the differential-test oracle for the grid
// executor; rows come back in cell order, as ResultSet.Rows returns them.
func sweepPerCell(t testing.TB, cfg Config, g Grid) []Row {
	traces := programTraces(t, cfg)
	cells := g.Cells(cfg.Programs)
	cpp := len(cells) / len(traces)
	results := make([]Row, len(cells))
	var wg sync.WaitGroup
	sem := make(chan struct{}, maxParallel())
	for i, c := range cells {
		wg.Add(1)
		sem <- struct{}{}
		go func(slot int, tr *trace.Trace, c Cell) {
			defer wg.Done()
			defer func() { <-sem }()
			m := fetch.Run(c.Spec.MustBuild(), tr)
			results[slot] = Row{Program: tr.Name, Arch: c.Arm, Spec: c.Spec, M: *m}
		}(i, traces[i/cpp], c)
	}
	wg.Wait()
	return results
}

// runGrid runs g through a store-less Executor on r and returns its rows in
// cell order (program-major, arm-major, cache-minor).
func runGrid(t testing.TB, r *Runner, g Grid) []Row {
	t.Helper()
	rs, err := (&Executor{R: r}).RunGrids(false, g)
	if err != nil {
		t.Fatal(err)
	}
	return rs.Rows(g)
}

// sweepArms is the architecture axis used by the scheduler tests: one arm
// per engine family, so the differential covers every Step path.
func sweepArms() []Arm {
	return []Arm{
		{Name: "NLS-cache", Spec: arch.NLSCache(NLSPerLine)},
		{Name: "1024 NLS-table", Spec: arch.NLSTable(1024)},
		{Name: "128-entry direct BTB", Spec: arch.BTB(128, 1)},
		{Name: "Johnson 1-bit", Spec: arch.Johnson()},
	}
}

// sweepGrid sweeps arms over caches.
func sweepGrid(arms []Arm, caches []cache.Geometry) Grid {
	for i := range arms {
		arms[i].Caches = caches
	}
	return Grid{Name: "sweep", Arms: arms}
}

// TestSweepMatchesPerCellOracle is the differential test for the
// shared-replay scheduler: for the fixed built-in seeds, a grid run through
// the Executor (broadcast path) must produce bit-identical metrics.Counters
// for EVERY (program × arch × cache) cell versus the legacy per-cell
// fetch.Run path, in the same deterministic order.
func TestSweepMatchesPerCellOracle(t *testing.T) {
	r := NewRunner(DefaultConfig(120_000))
	arms := sweepArms()
	caches := PaperCaches()
	g := sweepGrid(arms, caches)

	got := runGrid(t, r, g)
	want := sweepPerCell(t, r.Cfg, g)
	if len(got) != len(want) {
		t.Fatalf("executor returned %d cells, oracle %d", len(got), len(want))
	}
	if len(got) != len(r.Cfg.Programs)*len(arms)*len(caches) {
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
// arms duplicated and reordered, wrong-path pollution flipped per arm
// (pollution-on arms must take the private-cache fallback), line sizes and
// associativities mixed so geometry groups form and dissolve — and asserts
// the executor's grid run is counter-for-counter identical to the per-cell
// replay. The probed/unprobed mix is asserted at the fetch layer
// (TestBroadcastMixedEligibility); RunGrids itself never attaches probes.
func TestSweepPropertyRandomMatrix(t *testing.T) {
	rng := rand.New(rand.NewSource(1995)) // deterministic trials
	pool := []Arm{
		{Name: "NLS-cache", Spec: arch.NLSCache(NLSPerLine)},
		{Name: "NLS-cache", Spec: arch.NLSCache(1)},
		{Name: "256 NLS-table", Spec: arch.NLSTable(256)},
		{Name: "1024 NLS-table", Spec: arch.NLSTable(1024)},
		{Name: "128-entry direct BTB", Spec: arch.BTB(128, 1)},
		{Name: "256-entry 4-way BTB", Spec: arch.BTB(256, 4)},
		{Name: "Johnson 1-bit", Spec: arch.Johnson()},
	}
	allCaches := []cache.Geometry{
		cache.MustGeometry(4*1024, 16, 1),
		cache.MustGeometry(8*1024, 32, 1),
		cache.MustGeometry(8*1024, 32, 4),
		cache.MustGeometry(16*1024, 64, 2),
	}

	for trial := 0; trial < 4; trial++ {
		var arms []Arm
		for len(arms) < 2+rng.Intn(4) {
			a := pool[rng.Intn(len(pool))]
			if rng.Intn(2) == 0 {
				a.Name += " (polluted)"
				a.Spec.Pollution = true
			}
			arms = append(arms, a)
		}
		caches := append([]cache.Geometry(nil), allCaches...)
		rng.Shuffle(len(caches), func(i, j int) { caches[i], caches[j] = caches[j], caches[i] })
		caches = caches[:1+rng.Intn(len(caches))]

		cfg := DefaultConfig(40_000)
		cfg.Programs = cfg.Programs[:2]
		r := NewRunner(cfg)
		g := sweepGrid(arms, caches)
		got := runGrid(t, r, g)
		want := sweepPerCell(t, r.Cfg, g)
		if len(got) != len(want) {
			t.Fatalf("trial %d: executor returned %d cells, oracle %d", trial, len(got), len(want))
		}
		for i := range want {
			if got[i].M != want[i].M {
				t.Errorf("trial %d cell %d (%s, %s, %s): counters diverge\n got %+v\nwant %+v",
					trial, i, got[i].Program, got[i].Arch, got[i].Cache(), got[i].M, want[i].M)
			}
		}
	}
}

// TestSweepStats: the run record accounts every cell and every record
// exactly once per program replay, and the last Progress copy is the
// finished record but for its wall time.
func TestSweepStats(t *testing.T) {
	cfg := DefaultConfig(50_000)
	var calls []RunStats
	x := &Executor{R: NewRunner(cfg), Progress: func(s RunStats) { calls = append(calls, s) }}
	arms := sweepArms()
	caches := PaperCaches()[:2]
	g := sweepGrid(arms, caches)
	rs, err := x.RunGrids(false, g)
	if err != nil {
		t.Fatal(err)
	}
	s := rs.RunStats
	wantCells := len(cfg.Programs) * len(arms) * len(caches)
	if s.Simulated != wantCells || s.TotalCells != wantCells || s.Loaded != 0 {
		t.Errorf("cells: simulated %d, loaded %d, total %d, want %d, 0, %d",
			s.Simulated, s.Loaded, s.TotalCells, wantCells, wantCells)
	}
	// Shared replay: each program's trace is read once, NOT once per cell.
	wantRecords := int64(len(cfg.Programs)) * int64(cfg.Insns)
	if s.Records != wantRecords || s.Replays != len(cfg.Programs) {
		t.Errorf("replayed %d records in %d replays, want %d in %d (one replay per program)",
			s.Records, s.Replays, wantRecords, len(cfg.Programs))
	}
	if s.Elapsed <= 0 || s.RecordsPerSec() <= 0 {
		t.Errorf("elapsed/throughput not populated: %+v", s)
	}
	if len(calls) != len(cfg.Programs) {
		t.Fatalf("Progress called %d times, want %d", len(calls), len(cfg.Programs))
	}
	last := calls[len(calls)-1]
	last.Elapsed = s.Elapsed
	if last != s {
		t.Errorf("last progress %+v, want the finished record %+v", last, s)
	}
	for i, c := range calls {
		if c.Replays != i+1 {
			t.Errorf("progress call %d reports %d replays, want %d", i, c.Replays, i+1)
		}
	}
}

// TestStressConcurrentRunsOwnRecords: two runs sharing one Runner each
// report their own accounting — the record lives in the ResultSet, not on
// the Runner, so neither run sees the other's replays. Run under -race by
// `make stress`.
func TestStressConcurrentRunsOwnRecords(t *testing.T) {
	cfg := DefaultConfig(30_000)
	cfg.Programs = cfg.Programs[:2]
	r := NewRunner(cfg)
	grids := []Grid{
		sweepGrid(sweepArms()[:1], PaperCaches()[:1]),
		sweepGrid(sweepArms(), PaperCaches()[:2]),
	}
	results := make([]*ResultSet, len(grids))
	var wg sync.WaitGroup
	for i, g := range grids {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rs, err := (&Executor{R: r}).RunGrids(false, g)
			if err != nil {
				t.Error(err)
				return
			}
			results[i] = rs
		}()
	}
	wg.Wait()
	wantRecords := int64(len(cfg.Programs)) * int64(cfg.Insns)
	for i, rs := range results {
		if rs == nil {
			continue
		}
		wantCells := len(rs.Rows(grids[i]))
		if rs.Replays != len(cfg.Programs) || rs.Records != wantRecords || rs.Simulated != wantCells {
			t.Errorf("run %d: replays=%d records=%d simulated=%d, want %d, %d, %d",
				i, rs.Replays, rs.Records, rs.Simulated, len(cfg.Programs), wantRecords, wantCells)
		}
	}
}
