package experiments

import (
	"strings"
	"testing"

	"repro/internal/arch"
	"repro/internal/cache"
	"repro/internal/workload"
)

// testRunner builds a runner small enough for CI but large enough that the
// paper's qualitative shapes are stable.
func testRunner() *Runner {
	return NewRunner(DefaultConfig(400_000))
}

// runnerOn builds a runner over a subset of programs.
func runnerOn(insns int, specs ...workload.Spec) *Runner {
	cfg := DefaultConfig(insns)
	cfg.Programs = specs
	return NewRunner(cfg)
}

func avgBEP(avgs []Average, arch string, cacheStr string) (float64, bool) {
	for _, a := range avgs {
		if a.Arch == arch && (cacheStr == "" || a.Cache.String() == cacheStr) {
			return a.BEP(), true
		}
	}
	return 0, false
}

// runFigure executes one figure on a store-less executor and returns the
// resolved result set alongside the figure.
func runFigure(t testing.TB, r *Runner, name string) (Figure, *ResultSet) {
	t.Helper()
	f, ok := FigureByName(name)
	if !ok {
		t.Fatalf("unknown figure %q", name)
	}
	rs, err := (&Executor{R: r}).Run(f)
	if err != nil {
		t.Fatal(err)
	}
	return f, rs
}

// figureData executes one figure and returns its rendered text and -json
// data rows.
func figureData(t testing.TB, r *Runner, name string) (string, any) {
	t.Helper()
	f, rs := runFigure(t, r, name)
	text, data := f.Render(rs.Context(f))
	return text, data
}

// figureRows executes one figure and returns its grid's resolved rows.
func figureRows(t testing.TB, r *Runner, name string) []Row {
	t.Helper()
	f, rs := runFigure(t, r, name)
	return rs.Rows(f.Grid)
}

// figureAverages executes one figure and averages its rows over programs.
func figureAverages(t testing.TB, r *Runner, name string) []Average {
	t.Helper()
	return Averages(figureRows(t, r, name), r.Cfg.Penalties)
}

func TestTable1Renders(t *testing.T) {
	r := runnerOn(100_000, workload.Espresso())
	out, _ := figureData(t, r, "table1")
	if !strings.Contains(out, "espresso-like") {
		t.Errorf("table missing program:\n%s", out)
	}
}

// Shape 1 (Figure 4): the NLS-table outperforms the NLS-cache, and larger
// tables help with diminishing returns (512 -> 1024 > 1024 -> 2048).
func TestShapeNLSTableBeatsNLSCache(t *testing.T) {
	r := testRunner()
	avgs := figureAverages(t, r, "fig4")
	for _, cacheStr := range []string{"8KB direct", "16KB direct", "32KB direct"} {
		nlsCache, ok1 := avgBEP(avgs, "NLS-cache", cacheStr)
		nlsTable, ok2 := avgBEP(avgs, "1024 NLS-table", cacheStr)
		if !ok1 || !ok2 {
			t.Fatalf("missing rows for %s", cacheStr)
		}
		if nlsTable >= nlsCache {
			t.Errorf("%s: 1024 NLS-table BEP %.4f not better than NLS-cache %.4f",
				cacheStr, nlsTable, nlsCache)
		}
	}
	// Diminishing returns from table growth.
	b512, _ := avgBEP(avgs, "512 NLS-table", "16KB direct")
	b1024, _ := avgBEP(avgs, "1024 NLS-table", "16KB direct")
	b2048, _ := avgBEP(avgs, "2048 NLS-table", "16KB direct")
	if !(b512 >= b1024 && b1024 >= b2048) {
		t.Errorf("table size ordering violated: %.4f %.4f %.4f", b512, b1024, b2048)
	}
	if (b512 - b1024) < (b1024 - b2048) {
		t.Errorf("returns not diminishing: 512->1024 %.4f, 1024->2048 %.4f",
			b512-b1024, b1024-b2048)
	}
}

// Shape 2 (Figure 5): the 1024-entry NLS-table at least matches the
// equal-cost 128-entry BTB on average BEP.
func TestShapeNLSMatchesEqualCostBTB(t *testing.T) {
	r := testRunner()
	avgs := figureAverages(t, r, "fig5")
	btb128, ok := avgBEP(avgs, "128-entry direct BTB", "")
	if !ok {
		t.Fatal("no 128-entry BTB row")
	}
	nls, ok := avgBEP(avgs, "1024 NLS-table", "16KB direct")
	if !ok {
		t.Fatal("no NLS-table row")
	}
	if nls > btb128 {
		t.Errorf("1024 NLS-table BEP %.4f worse than equal-cost 128-BTB %.4f", nls, btb128)
	}
	// And roughly comparable to the double-cost 256-entry BTB.
	btb256, _ := avgBEP(avgs, "256-entry direct BTB", "")
	if nls > btb256*1.08 {
		t.Errorf("1024 NLS-table BEP %.4f not comparable to 256-BTB %.4f", nls, btb256)
	}
}

// Shape 3 (Figure 7): NLS BEP falls as the cache grows; BTB BEP is flat in
// cache configuration by construction.
func TestShapeNLSImprovesWithCacheSize(t *testing.T) {
	// Use the branchy programs where the effect is visible.
	r := runnerOn(400_000, workload.Gcc(), workload.Cfront())
	avgs := figureAverages(t, r, "fig4")
	small, _ := avgBEP(avgs, "1024 NLS-table", "8KB direct")
	large, _ := avgBEP(avgs, "1024 NLS-table", "32KB direct")
	if large >= small {
		t.Errorf("NLS BEP did not improve with cache size: 8K %.4f -> 32K %.4f", small, large)
	}
}

// Shape 4 (Figure 7): branch-rich programs benefit most from NLS; programs
// with few hot sites show parity.
func TestShapeProgramClassContrast(t *testing.T) {
	r := testRunner()
	rows := figureRows(t, r, "fig7")
	byProg := map[string][]Row{}
	for _, res := range rows {
		byProg[res.Program] = append(byProg[res.Program], res)
	}
	p := r.Cfg.Penalties
	relAdvantage := func(prog string) float64 {
		var btbMf, nlsMf float64
		found := 0
		for _, res := range byProg[prog] {
			if res.Arch == "128-entry direct BTB" {
				btbMf = res.M.MisfetchBEP(p)
				found++
			}
			if res.Arch == "1024 NLS-table" && res.Cache().String() == "16KB direct" {
				nlsMf = res.M.MisfetchBEP(p)
				found++
			}
		}
		if found != 2 {
			t.Fatalf("missing results for %s", prog)
		}
		return btbMf - nlsMf // positive: NLS wins on misfetch
	}
	gcc := relAdvantage("gcc-like")
	doduc := relAdvantage("doduc-like")
	if gcc <= 0 {
		t.Errorf("NLS should beat the 128-BTB on gcc-like misfetch (delta %.4f)", gcc)
	}
	if gcc <= doduc {
		t.Errorf("NLS advantage should be larger on gcc-like (%.4f) than doduc-like (%.4f)",
			gcc, doduc)
	}
}

// Shape 5 (Figure 3): area scaling laws.
func TestShapeAreaScaling(t *testing.T) {
	rows := Fig3()
	get := func(label string) float64 {
		for _, r := range rows {
			if r.Label == label {
				return r.RBE
			}
		}
		t.Fatalf("missing row %q", label)
		return 0
	}
	// NLS-cache linear: 64K is ~8x the 8K cost.
	if ratio := get("NLS-cache 64K") / get("NLS-cache 8K"); ratio < 7 {
		t.Errorf("NLS-cache 64K/8K = %.2f, want ~8 (linear)", ratio)
	}
	// NLS-table logarithmic: 64K is barely above 8K.
	if ratio := get("1024 NLS-table 64K") / get("1024 NLS-table 8K"); ratio > 1.4 {
		t.Errorf("NLS-table 64K/8K = %.2f, want close to 1 (logarithmic)", ratio)
	}
	// BTB flat in cache size (no cache label at all) and 128 ≈ NLS-1024.
	if ratio := get("128 BTB 1-way") / get("1024 NLS-table 16K"); ratio < 0.8 || ratio > 1.25 {
		t.Errorf("128-BTB / 1024-table = %.2f, want ~1", ratio)
	}
}

// Shape 6 (Figure 6): associative access-time penalty.
func TestShapeAccessTime(t *testing.T) {
	rows := Fig6()
	var direct, way4 float64
	for _, r := range rows {
		if r.Entries == 128 && r.Assoc == 1 {
			direct = r.NS
		}
		if r.Entries == 128 && r.Assoc == 4 {
			way4 = r.NS
		}
	}
	if ratio := way4 / direct; ratio < 1.25 || ratio > 1.45 {
		t.Errorf("4-way/direct = %.3f, want 1.3-1.4", ratio)
	}
}

// Figure 8: CPI ordering is consistent with BEP plus miss penalties, and
// every CPI is >= 1.
func TestFig8CPI(t *testing.T) {
	r := runnerOn(400_000, workload.Gcc(), workload.Espresso())
	avgs := figureAverages(t, r, "fig8")
	if len(avgs) == 0 {
		t.Fatal("no CPI rows")
	}
	for _, a := range avgs {
		if a.CPI < 1 {
			t.Errorf("%s %s: CPI %.3f < 1", a.Arch, a.Cache, a.CPI)
		}
	}
	// Bigger caches give lower CPI for the same architecture.
	c8, _ := avgCPI(avgs, "1024 NLS-table", "8KB direct")
	c32, _ := avgCPI(avgs, "1024 NLS-table", "32KB direct")
	if c32 >= c8 {
		t.Errorf("CPI did not improve with cache size: %.4f -> %.4f", c8, c32)
	}
}

func avgCPI(avgs []Average, arch, cacheStr string) (float64, bool) {
	for _, a := range avgs {
		if a.Arch == arch && a.Cache.String() == cacheStr {
			return a.CPI, true
		}
	}
	return 0, false
}

func TestSweepDeterministic(t *testing.T) {
	r := runnerOn(100_000, workload.Li())
	g := sweepGrid([]Arm{{Name: "1024 NLS-table", Spec: arch.NLSTable(1024)}},
		[]cache.Geometry{cache.MustGeometry(8*1024, LineBytes, 1)})
	a := runGrid(t, r, g)
	b := runGrid(t, r, g)
	if a[0].M != b[0].M {
		t.Error("repeated sweep diverged")
	}
}

func TestJohnsonWorseThanNLS(t *testing.T) {
	// §6.2: the decoupled two-level design beats Johnson's coupled
	// one-bit successor-index scheme.
	r := runnerOn(400_000, workload.Gcc(), workload.Espresso())
	caches := []cache.Geometry{cache.MustGeometry(16*1024, LineBytes, 1)}
	res := runGrid(t, r, sweepGrid([]Arm{
		{Name: "1024 NLS-table", Spec: arch.NLSTable(1024)},
		{Name: "Johnson 1-bit", Spec: arch.Johnson()},
	}, caches))
	avgs := Averages(res, r.Cfg.Penalties)
	nls, _ := avgBEP(avgs, "1024 NLS-table", "")
	johnson, _ := avgBEP(avgs, "Johnson 1-bit", "")
	if nls >= johnson {
		t.Errorf("NLS BEP %.4f should beat Johnson %.4f", nls, johnson)
	}
}

func TestRenderersProduceOutput(t *testing.T) {
	if out := RenderFig3(Fig3()); !strings.Contains(out, "NLS-cache 8K") {
		t.Error("Fig3 render incomplete")
	}
	if out := RenderFig6(Fig6()); !strings.Contains(out, "128-entry") {
		t.Error("Fig6 render incomplete")
	}
}

func TestBTBConfigsAndCaches(t *testing.T) {
	if len(BTBConfigs()) != 4 {
		t.Error("expected 4 BTB configurations")
	}
	if len(PaperCaches()) != 6 {
		t.Error("expected 6 paper cache configurations")
	}
	if len(AllCaches()) != 9 {
		t.Error("expected 9 extended cache configurations")
	}
}
