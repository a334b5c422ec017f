package experiments

import (
	"encoding/json"
	"os"
	"reflect"
	"strings"
	"testing"

	"repro/internal/arch"
	"repro/internal/cache"
	"repro/internal/fetch"
	"repro/internal/obs"
	"repro/internal/trace"
	"repro/internal/workload"
)

// probedReports runs g as the Probed grid of a figure with no counter
// cells and returns one report per cell, in cell order, with topN
// offenders each (all of them for topN <= 0).
func probedReports(t testing.TB, x *Executor, g Grid, topN int) []obs.Report {
	t.Helper()
	f := Figure{Name: g.Name, Probed: &g}
	rs, err := x.Run(f)
	if err != nil {
		t.Fatal(err)
	}
	return rs.Context(f).Reports(topN)
}

// TestProbedFigureReports exercises the probed replay path end to end on
// a small run: one report per grid cell in cell order, totals that are
// real (every arm breaks somewhere), and the §4.1 structural claim —
// eviction loss only for the line-coupled organizations — holding on the
// full attribution grid, not just the two-engine golden pair in package
// obs.
func TestProbedFigureReports(t *testing.T) {
	cfg := DefaultConfig(60_000)
	cfg.Programs = []workload.Spec{workload.Espresso(), workload.Gcc()}
	g := AttributionGrid()

	reports := probedReports(t, &Executor{R: NewRunner(cfg)}, g, AttributionTopN)
	cells := g.Cells(cfg.Programs)
	if len(reports) != len(cells) {
		t.Fatalf("got %d reports for %d cells", len(reports), len(cells))
	}
	for i, rep := range reports {
		if rep.Arch != cells[i].Arm || rep.Program != cells[i].Prog.Name {
			t.Errorf("report %d labeled %s/%s, cell is %s/%s",
				i, rep.Arch, rep.Program, cells[i].Arm, cells[i].Prog.Name)
		}
		if rep.Breaks == 0 || rep.StaticBranches == 0 {
			t.Errorf("report %d (%s/%s) saw no breaks", i, rep.Arch, rep.Program)
		}
		if len(rep.Top) > AttributionTopN {
			t.Errorf("report %d has %d offenders, cap is %d", i, len(rep.Top), AttributionTopN)
		}
		evict := rep.Causes[fetch.CauseEvictionLoss]
		lineCoupled := strings.Contains(rep.Arch, "NLS-cache") || strings.Contains(rep.Arch, "Johnson")
		if !lineCoupled && evict != 0 {
			t.Errorf("%s/%s reports %d eviction losses; only line-coupled state can die with a line",
				rep.Arch, rep.Program, evict)
		}
	}
}

// TestProbedReportsMatchReference is the reference differential for
// probed figures: every attribution and h2p report of one Executor.Run
// over every figure — so probed engines share each program's broadcast,
// oracles and direction annotations with the counter cells — deep-equals
// (per-PC tables, cause mix, totals) the report of the same spec stepped
// one record at a time by fetch.Run with a probe attached.
func TestProbedReportsMatchReference(t *testing.T) {
	cfg := DefaultConfig(60_000)
	cfg.Programs = []workload.Spec{workload.Espresso(), workload.Li()}
	rs, err := (&Executor{R: NewRunner(cfg)}).Run(Figures()...)
	if err != nil {
		t.Fatal(err)
	}
	traces := map[string]*trace.Trace{}
	for _, tr := range programTraces(t, cfg) {
		traces[tr.Name] = tr
	}
	var probedFigs []string
	for _, f := range Figures() {
		if f.Probed == nil {
			continue
		}
		probedFigs = append(probedFigs, f.Name)
		got := rs.Context(f).Reports(0)
		for i, c := range f.Probed.Cells(cfg.Programs) {
			e := c.Spec.MustBuild()
			att := obs.NewAttribution()
			e.AttachProbe(att)
			fetch.Run(e, traces[c.Prog.Name])
			want := att.Report(c.Arm, c.Prog.Name, 0, cfg.Penalties)
			if want.Breaks == 0 || !reflect.DeepEqual(got[i], want) {
				t.Errorf("%s cell %s/%s: executor report diverges from per-record reference\n got %+v\nwant %+v",
					f.Name, c.Prog.Name, c.Arm, got[i], want)
			}
		}
	}
	if !reflect.DeepEqual(probedFigs, []string{"attribution", "h2p"}) {
		t.Errorf("probed figures %v, want [attribution h2p]", probedFigs)
	}
}

// TestProbedReportsMatchCounters pins the probe contract at the
// executor level: a probed replay reports exactly the counters an
// unprobed grid run produces for the same cells.
func TestProbedReportsMatchCounters(t *testing.T) {
	cfg := DefaultConfig(50_000)
	cfg.Programs = []workload.Spec{workload.Li()}
	g := AttributionGrid()

	reports := probedReports(t, &Executor{R: NewRunner(cfg)}, g, 0)
	rs, err := (&Executor{R: NewRunner(cfg)}).RunGrids(false, g)
	if err != nil {
		t.Fatal(err)
	}
	rows := rs.Rows(g)
	for i, rep := range reports {
		m := rows[i].M
		if rep.Breaks != m.Breaks || rep.Misfetches != m.Misfetches || rep.Mispredicts != m.Mispredicts {
			t.Errorf("%s/%s: attribution (%d/%d/%d) diverges from counters (%d/%d/%d)",
				rep.Arch, rep.Program, rep.Breaks, rep.Misfetches, rep.Mispredicts,
				m.Breaks, m.Misfetches, m.Mispredicts)
		}
	}
}

// TestAttributionFigureRenders drives the registered figure through the
// CLI's dispatch path, beside a counter figure in one run, and checks that
// a nil result set (run the figure first) renders the same.
func TestAttributionFigureRenders(t *testing.T) {
	f, ok := FigureByName("attribution")
	if !ok {
		t.Fatal("attribution figure not registered")
	}
	if f.Probed == nil || len(f.Grid.Arms) != 0 {
		t.Fatal("attribution figure must probe its grid and declare no counter cells")
	}
	fig5, _ := FigureByName("fig5")
	cfg := DefaultConfig(40_000)
	cfg.Programs = []workload.Spec{workload.Espresso()}
	x := &Executor{R: NewRunner(cfg)}
	rs, err := x.Run(fig5, f)
	if err != nil {
		t.Fatal(err)
	}
	if rs.Replays != 1 {
		t.Errorf("run replayed %d traces, want 1", rs.Replays)
	}
	text, data, err := x.RenderFigure(f, rs)
	if err != nil {
		t.Fatal(err)
	}
	alone, _, err := (&Executor{R: NewRunner(cfg)}).RenderFigure(f, nil)
	if err != nil {
		t.Fatal(err)
	}
	if alone != text {
		t.Errorf("figure run alone renders differently:\n%s\nvs\n%s", alone, text)
	}
	for _, want := range []string{"Attribution", "NLS-cache 2/line", "dir-wrong"} {
		if !strings.Contains(text, want) {
			t.Errorf("figure text missing %q:\n%s", want, text)
		}
	}
	if _, err := json.Marshal(data); err != nil {
		t.Errorf("figure data not JSON-marshalable: %v", err)
	}
}

// TestCellTimingsAndDedup checks the executor's telemetry accounting:
// every simulated cell gets a wall-time entry, store-served cells get
// none, and cross-grid duplicate requests are counted. Every replay path is
// timed: a grouped or private cell reports a nonzero replay time, and only
// a cell whose break metrics the broadcast echoed reports exactly 0.
func TestCellTimingsAndDedup(t *testing.T) {
	cfg := Config{Insns: 40_000, Programs: []workload.Spec{workload.Li()},
		Penalties: DefaultConfig(0).Penalties}
	a := Grid{Name: "a", Arms: []Arm{{Name: "nls", Spec: arch.NLSTable(1024), Caches: cache16KDirect()}}}
	b := Grid{Name: "b", Arms: []Arm{
		{Name: "nls again", Spec: arch.NLSTable(1024), Caches: cache16KDirect()},
		{Name: "btb", Spec: arch.BTB(128, 1), Caches: cache16KDirect()},
	}}
	store, err := OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	x := &Executor{R: NewRunner(cfg), Store: store}
	rs, err := x.RunGrids(false, a, b)
	if err != nil {
		t.Fatal(err)
	}
	if rs.Deduped != 1 {
		t.Errorf("Deduped = %d, want 1 (the aliased NLS cell)", rs.Deduped)
	}
	if len(rs.Timings) != rs.Simulated {
		t.Fatalf("%d timings for %d simulated cells", len(rs.Timings), rs.Simulated)
	}
	for _, ct := range rs.Timings {
		if ct.Program == "" || ct.Arch == "" || ct.Cache == "" || ct.Seconds <= 0 {
			t.Errorf("malformed timing entry: %+v", ct)
		}
	}

	// Every registered arch plus a polluted and a prefetching BTB, on two
	// geometries: grouped, private (pollution, prefetch) and echoed cells
	// in one replay. Groups form in first-seen geometry order, so each
	// clean BTB cell on the second geometry echoes its twin on the first.
	caches := []cache.Geometry{
		cache.MustGeometry(16*1024, LineBytes, 1),
		cache.MustGeometry(8*1024, LineBytes, 2),
	}
	paths := Grid{Name: "paths"}
	for _, name := range arch.Names() {
		s, _ := arch.Lookup(name)
		paths.Arms = append(paths.Arms, Arm{Name: name, Spec: s, Caches: caches})
	}
	polluted := arch.BTB(128, 1)
	polluted.Pollution = true
	fdip := arch.BTB(128, 1)
	fdip.Prefetch = &arch.PrefetchSpec{Kind: arch.PrefKindFDIP, FTQDepth: 8}
	paths.Arms = append(paths.Arms,
		Arm{Name: "btb-128 polluted", Spec: polluted, Caches: caches},
		Arm{Name: "btb-128 fdip", Spec: fdip, Caches: caches})
	specs := make(map[string]arch.Spec)
	for _, a := range paths.Arms {
		specs[a.Name] = a.Spec
	}
	prs, err := (&Executor{R: NewRunner(cfg)}).RunGrids(false, paths)
	if err != nil {
		t.Fatal(err)
	}
	if len(prs.Timings) != prs.Simulated || prs.Simulated != len(paths.Arms)*len(caches) {
		t.Fatalf("%d timings for %d simulated cells of %d", len(prs.Timings), prs.Simulated,
			len(paths.Arms)*len(caches))
	}
	echoed := 0
	for _, ct := range prs.Timings {
		s := specs[ct.Arch]
		if s.Predictor.Kind == arch.KindBTB && !s.Pollution && s.Prefetch == nil &&
			ct.Cache == caches[1].String() {
			echoed++
			if ct.Seconds != 0 {
				t.Errorf("echoed cell %s/%s timed %gs, want 0", ct.Arch, ct.Cache, ct.Seconds)
			}
			continue
		}
		if ct.Seconds <= 0 {
			t.Errorf("replayed cell %s/%s timed %gs, want > 0", ct.Arch, ct.Cache, ct.Seconds)
		}
	}
	if echoed == 0 {
		t.Error("no echoed BTB cell in the grid")
	}

	// Warm run: everything store-served, so no timings.
	warm := &Executor{R: NewRunner(cfg), Store: store}
	wrs, err := warm.RunGrids(false, a, b)
	if err != nil {
		t.Fatal(err)
	}
	if len(wrs.Timings) != 0 {
		t.Errorf("warm run produced %d timings, want 0", len(wrs.Timings))
	}

	// The manifest assembles the run's accounting and writes valid JSON.
	m := NewRunManifest(rs, []string{"a", "b"}, []string{"test"})
	if m.Schema != ManifestSchema || m.Simulated != rs.Simulated ||
		m.Deduped != 1 || m.Build.GoVersion == "" {
		t.Errorf("manifest accounting: %+v", m)
	}
	dir := t.TempDir()
	path, err := m.Write(dir)
	if err != nil {
		t.Fatal(err)
	}
	buf, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var back RunManifest
	if err := json.Unmarshal(buf, &back); err != nil {
		t.Fatalf("manifest does not round-trip: %v", err)
	}
	if back.Schema != ManifestSchema || back.Simulated != m.Simulated ||
		len(back.Cells) != len(m.Cells) {
		t.Errorf("manifest round-trip mismatch: %+v vs %+v", back, m)
	}
}
