package experiments

import (
	"os"
	"path/filepath"
	"testing"

	"repro/internal/arch"
	"repro/internal/metrics"
	"repro/internal/workload"
)

// penaltyArmGrids returns the key-test grids that cover every arm kind: the
// arch registry, on its own geometry and on the paper caches, and the TAGE,
// pollution, FDIP and next-line prefetch arms.
func penaltyArmGrids(t *testing.T) []Grid {
	var grids []Grid
	for _, g := range keyTestGrids() {
		if g.Name == "registry" || g.Name == "omitempty" {
			grids = append(grids, g)
		}
	}
	if len(grids) != 2 {
		t.Fatalf("found %d of the registry and omitempty grids", len(grids))
	}
	return grids
}

// TestCountersIndependentOfPenalties pins what leaving the penalties out of
// cell keys rests on: no engine reads them. Every arm kind is simulated
// through a storeless Executor under the paper's penalties and under a very
// different set, and every cell's counters must be bit-identical.
func TestCountersIndependentOfPenalties(t *testing.T) {
	grids := penaltyArmGrids(t)
	progs := []workload.Spec{workload.Li(), workload.Gcc()}
	run := func(p metrics.Penalties) *ResultSet {
		rs, err := NewExecutor(Config{Insns: 20_000, Programs: progs, Penalties: p}).RunGrids(false, grids...)
		if err != nil {
			t.Fatal(err)
		}
		if rs.Loaded != 0 || rs.Simulated == 0 {
			t.Fatalf("penalties %+v: loaded=%d simulated=%d, want every cell simulated", p, rs.Loaded, rs.Simulated)
		}
		return rs
	}
	base := run(metrics.Default())
	other := run(metrics.Penalties{Misfetch: 17.5, Mispredict: 0, CacheMiss: 1e6})
	cells := 0
	for _, g := range grids {
		want, got := base.Rows(g), other.Rows(g)
		if len(want) != len(got) || len(want) == 0 {
			t.Fatalf("%s: %d rows vs %d rows", g.Name, len(want), len(got))
		}
		for i := range want {
			if want[i].M != got[i].M {
				t.Errorf("%s: %s/%s counters depend on the penalties:\n%+v\n%+v",
					g.Name, want[i].Program, want[i].Arch, want[i].M, got[i].M)
			}
			cells++
		}
	}
	t.Logf("%d cells bit-identical under both penalty sets", cells)
}

// v1CellKey is the nls-cell/v1 key document, which also hashed the
// penalties.
func v1CellKey(w workload.Spec, insns int, s arch.Spec, p metrics.Penalties) string {
	return hashDoc(struct {
		Schema    string            `json:"schema"`
		Workload  workload.Spec     `json:"workload"`
		Insns     int               `json:"insns"`
		Spec      arch.Spec         `json:"spec"`
		Penalties metrics.Penalties `json:"penalties"`
	}{"nls-cell/v1", w, insns, s, p})
}

// TestV1KeyedStoreResimulated: a store holding only cells written under
// nls-cell/v1 keys serves none of them. Each v1 file holds a valid current
// value with wrong counters, so serving one would show in the rows; the
// executor instead re-simulates every cell, matching a storeless run, and
// a second run is served entirely under the v2 keys.
func TestV1KeyedStoreResimulated(t *testing.T) {
	g := Grid{Name: "v1", Arms: []Arm{
		{Name: "1024 NLS-table", Spec: arch.NLSTable(1024), Caches: PaperCaches()[:2]},
		{Name: "256 BTB", Spec: arch.BTB(256, 4)},
	}}
	cfg := Config{Insns: 40_000, Programs: []workload.Spec{workload.Li(), workload.Gcc()},
		Penalties: metrics.Default()}
	dir := t.TempDir()
	store, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	kg := g.Keyed(cfg)
	stale := metrics.Counters{Instructions: 40_000, Breaks: 1}
	for i, c := range kg.Cells {
		key := v1CellKey(c.Prog, cfg.Insns, c.Spec, cfg.Penalties)
		if key == kg.Keys[i] {
			t.Fatalf("%s/%s: v1 and v2 keys alias", c.Prog.Name, c.Arm)
		}
		path := store.path(key)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, encodeCell(&stale), 0o644); err != nil {
			t.Fatal(err)
		}
	}

	rs, err := (&Executor{R: NewRunner(cfg), Store: store}).RunKeyed(false, kg)
	if err != nil {
		t.Fatal(err)
	}
	if rs.Loaded != 0 || rs.Simulated != len(kg.Cells) {
		t.Fatalf("v1-keyed store: loaded=%d simulated=%d, want %d simulated", rs.Loaded, rs.Simulated, len(kg.Cells))
	}
	ref, err := NewExecutor(cfg).RunGrids(false, g)
	if err != nil {
		t.Fatal(err)
	}
	got, want := rs.Rows(g), ref.Rows(g)
	for i := range want {
		if got[i].M != want[i].M {
			t.Errorf("%s/%s: re-simulated counters %+v, storeless run %+v", got[i].Program, got[i].Arch, got[i].M, want[i].M)
		}
	}

	fresh, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	warm, err := (&Executor{R: NewRunner(cfg), Store: fresh}).RunKeyed(false, kg)
	if err != nil {
		t.Fatal(err)
	}
	if warm.Simulated != 0 || warm.Loaded != len(kg.Cells) {
		t.Fatalf("after re-simulation: loaded=%d simulated=%d, want every cell loaded", warm.Loaded, warm.Simulated)
	}
}
