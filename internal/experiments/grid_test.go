package experiments

import (
	"testing"

	"repro/internal/arch"
	"repro/internal/fetch"
	"repro/internal/metrics"
	"repro/internal/trace"
	"repro/internal/workload"
)

// gridTestConfig is shared by the golden and accounting tests: two
// programs with contrasting branch behaviour, small enough to oracle
// every cell per-cell.
func gridTestConfig() Config {
	cfg := DefaultConfig(80_000)
	cfg.Programs = []workload.Spec{workload.Espresso(), workload.Gcc()}
	return cfg
}

// TestGridGolden is the equivalence test for the whole pipeline: every
// figure's rendered output from the grid executor must be identical (a)
// to a per-cell oracle that replays each cell's trace independently
// through fetch.Run, and (b) across a cold store-backed run, a store-less
// run, and a warm run that loads every cell. This pins the refactor's
// bit-for-bit claim: shared replay, cell dedup across figures, and the
// store round-trip change nothing observable.
func TestGridGolden(t *testing.T) {
	cfg := gridTestConfig()
	figs := Figures()

	// Cold run, store-backed.
	store, err := OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	coldR := NewRunner(cfg)
	cold, err := (&Executor{R: coldR, Store: store}).Run(figs...)
	if err != nil {
		t.Fatal(err)
	}
	if cold.Loaded != 0 {
		t.Errorf("cold run loaded %d cells from an empty store", cold.Loaded)
	}

	// Per-cell oracle: every unique cell of every grid, replayed
	// independently on the materialized trace.
	traces := map[string]*trace.Trace{}
	for _, tr := range programTraces(t, cfg) {
		traces[tr.Name] = tr
	}
	checked := map[string]bool{}
	for _, f := range figs {
		rows := cold.Rows(f.Grid)
		for i, c := range f.Grid.Cells(cfg.Programs) {
			k := c.Key(cfg)
			if checked[k] {
				continue
			}
			checked[k] = true
			tr := traces[c.Prog.Name]
			var want *metrics.Counters
			if c.Spec.Prefetch != nil {
				// A decoupled (prefetching) frontend's FTQ run-ahead is
				// bounded by the replay block, so its independent oracle
				// is the executor's own chunking, not per-record Step.
				want = fetch.RunChunks(c.Spec.MustBuild(),
					trace.Chunk(tr, trace.DefaultChunkRecords).Chunks())
			} else {
				want = fetch.Run(c.Spec.MustBuild(), tr)
			}
			if rows[i].M != *want {
				t.Errorf("%s cell %s/%s: executor counters diverge from per-cell oracle\n got %+v\nwant %+v",
					f.Name, c.Prog.Name, c.Arm, rows[i].M, *want)
			}
		}
	}

	// Render every figure from three sources; all must match byte for byte.
	// Probed figures read their attribution counts from the same result
	// sets (their reports are pinned against per-record replay by
	// TestProbedReportsMatchReference).
	renderAll := func(rs *ResultSet) map[string]string {
		out := map[string]string{}
		for _, f := range figs {
			text, _ := f.Render(rs.Context(f))
			out[f.Name] = text
		}
		return out
	}
	coldText := renderAll(cold)

	noStore, err := (&Executor{R: NewRunner(cfg)}).Run(figs...)
	if err != nil {
		t.Fatal(err)
	}
	for name, text := range renderAll(noStore) {
		if text != coldText[name] {
			t.Errorf("figure %s: store-less run differs from cold store-backed run\n%q\nvs\n%q",
				name, text, coldText[name])
		}
	}

	warm, err := (&Executor{R: NewRunner(cfg), Store: store}).Run(figs...)
	if err != nil {
		t.Fatal(err)
	}
	// Probed cells are never stored, so they alone replay each program.
	if warm.Simulated != 0 || warm.Replays != len(cfg.Programs) {
		t.Errorf("warm run simulated %d cells, replayed %d traces; want 0, %d",
			warm.Simulated, warm.Replays, len(cfg.Programs))
	}
	if warm.Loaded != cold.Loaded+cold.Simulated {
		t.Errorf("warm run loaded %d cells, want %d", warm.Loaded, cold.Simulated)
	}
	for name, text := range renderAll(warm) {
		if text != coldText[name] {
			t.Errorf("figure %s: warm store-backed run differs from cold run\n%q\nvs\n%q",
				name, text, coldText[name])
		}
	}
}

// TestExecutorReplayAccounting pins the executor's scheduling claim: a
// full multi-figure run replays each program's trace EXACTLY once, no
// matter how many figures and cells share it, probed cells included; a
// warm run replays each program once for its probed cells only, and a
// warm run without probed figures replays nothing.
func TestExecutorReplayAccounting(t *testing.T) {
	cfg := gridTestConfig()
	figs := Figures()

	store, err := OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	r := NewRunner(cfg)
	rs, err := (&Executor{R: r, Store: store}).Run(figs...)
	if err != nil {
		t.Fatal(err)
	}
	s := r.LastSweepStats()
	if s.Replays != len(cfg.Programs) || rs.Replays != len(cfg.Programs) {
		t.Errorf("cold run replayed %d/%d traces, want exactly %d (one per program)",
			s.Replays, rs.Replays, len(cfg.Programs))
	}
	wantRecords := int64(len(cfg.Programs)) * int64(cfg.Insns)
	if s.Records != wantRecords {
		t.Errorf("cold run replayed %d records, want %d (each trace read once)",
			s.Records, wantRecords)
	}
	if s.Cells != s.TotalCells || s.Cells != rs.Simulated {
		t.Errorf("cell accounting: Cells=%d TotalCells=%d Simulated=%d", s.Cells, s.TotalCells, rs.Simulated)
	}

	warmR := NewRunner(cfg)
	warm, err := (&Executor{R: warmR, Store: store}).Run(figs...)
	if err != nil {
		t.Fatal(err)
	}
	ws := warmR.LastSweepStats()
	if warm.Replays != len(cfg.Programs) || ws.Records != wantRecords {
		t.Errorf("warm run: replays=%d records=%d, want %d, %d (probed cells only)",
			warm.Replays, ws.Records, len(cfg.Programs), wantRecords)
	}
	if ws.Loaded != s.TotalCells || warm.Simulated != 0 {
		t.Errorf("warm run loaded %d cells and simulated %d, want %d, 0",
			ws.Loaded, warm.Simulated, s.TotalCells)
	}

	// Without probed figures a warm run must not even generate traces
	// (laziness is what makes the warm path fast).
	var counterFigs []Figure
	for _, f := range figs {
		if f.Probed == nil {
			counterFigs = append(counterFigs, f)
		}
	}
	lazyR := NewRunner(cfg)
	lazy, err := (&Executor{R: lazyR, Store: store}).Run(counterFigs...)
	if err != nil {
		t.Fatal(err)
	}
	if ls := lazyR.LastSweepStats(); lazy.Replays != 0 || ls.Records != 0 {
		t.Errorf("warm counter-only run: replays=%d records=%d, want 0, 0", lazy.Replays, ls.Records)
	}

	// -force bypasses the warm path and re-simulates everything.
	forceR := NewRunner(cfg)
	forced, err := (&Executor{R: forceR, Store: store, Force: true}).Run(figs...)
	if err != nil {
		t.Fatal(err)
	}
	if forced.Loaded != 0 || forced.Replays != len(cfg.Programs) {
		t.Errorf("forced run: loaded=%d replays=%d, want 0, %d",
			forced.Loaded, forced.Replays, len(cfg.Programs))
	}
}

// TestCellDedupAcrossGrids: two grids declaring the same (spec, cache)
// under different arm names share one cell, and each reads it back under
// its own labels.
func TestCellDedupAcrossGrids(t *testing.T) {
	cfg := Config{Insns: 50_000, Programs: []workload.Spec{workload.Li()},
		Penalties: DefaultConfig(0).Penalties}
	a := Grid{Name: "a", Arms: []Arm{{Name: "first name", Spec: arch.NLSTable(1024), Caches: cache16KDirect()}}}
	b := Grid{Name: "b", Arms: []Arm{{Name: "second name", Spec: arch.NLSTable(1024), Caches: cache16KDirect()}}}
	r := NewRunner(cfg)
	rs, err := (&Executor{R: r}).RunGrids(false, a, b)
	if err != nil {
		t.Fatal(err)
	}
	if rs.Simulated != 1 {
		t.Errorf("simulated %d cells for two aliased grids, want 1", rs.Simulated)
	}
	ra, rb := rs.Rows(a), rs.Rows(b)
	if ra[0].Arch != "first name" || rb[0].Arch != "second name" {
		t.Errorf("arm labels not applied per grid: %q, %q", ra[0].Arch, rb[0].Arch)
	}
	if ra[0].M != rb[0].M {
		t.Error("aliased cells returned different counters")
	}
}

// TestExecutorNonPositiveInsns: a corpus-less run with a zero or negative
// instruction budget (nlssim -n 0 or -n -5) streams no records and
// returns all-zero rows, not an error.
func TestExecutorNonPositiveInsns(t *testing.T) {
	for _, insns := range []int{0, -1} {
		cfg := DefaultConfig(insns)
		cfg.Programs = []workload.Spec{workload.Li()}
		g := heapCeilingGrid()
		rs, err := (&Executor{R: NewRunner(cfg)}).RunGrids(false, g)
		if err != nil {
			t.Fatalf("insns=%d: %v", insns, err)
		}
		rows := rs.Rows(g)
		if rs.Simulated != len(rows) || len(rows) != 2 {
			t.Fatalf("insns=%d: simulated %d of %d rows, want 2 of 2", insns, rs.Simulated, len(rows))
		}
		for _, row := range rows {
			if row.M != (metrics.Counters{}) {
				t.Errorf("insns=%d %s: counters %+v, want all zero", insns, row.Arch, row.M)
			}
		}
	}
}
