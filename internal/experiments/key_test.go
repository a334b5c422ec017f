package experiments

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/arch"
	"repro/internal/metrics"
	"repro/internal/workload"
)

// refCellKey derives a cell key from one json.Marshal of the whole key
// document as a struct: the reference every derived key must equal.
func refCellKey(w workload.Spec, insns int, s arch.Spec, p metrics.Penalties) string {
	return hashDoc(struct {
		Schema    string            `json:"schema"`
		Workload  workload.Spec     `json:"workload"`
		Insns     int               `json:"insns"`
		Spec      arch.Spec         `json:"spec"`
		Penalties metrics.Penalties `json:"penalties"`
	}{cellSchema, w, insns, s, p})
}

// TestCellKeyGolden pins a stored key: the 2M-insn key of fig4's first
// cell (doduc-like on the NLS-cache arm), computed before cell keys were
// derived from fragments. A change here strands every cell in every
// existing results store.
func TestCellKeyGolden(t *testing.T) {
	cfg := DefaultConfig(2_000_000)
	var fig4 Grid
	for _, f := range Figures() {
		if f.Name == "fig4" {
			fig4 = f.Grid
		}
	}
	kg := fig4.Keyed(cfg)
	c := kg.Cells[0]
	if c.Prog.Name != "doduc-like" || c.Arm != "NLS-cache" {
		t.Fatalf("fig4's first cell is %s/%s, want doduc-like/NLS-cache", c.Prog.Name, c.Arm)
	}
	const want = "d439740a57fb74c200a097bc607553d61067cf9bc17b93408e276830e2a5ffa0"
	if kg.Keys[0] != want {
		t.Errorf("Keyed key = %s, want %s", kg.Keys[0], want)
	}
	if k := c.Key(cfg); k != want {
		t.Errorf("Cell.Key = %s, want %s", k, want)
	}
}

// keyTestGrids returns every figure grid plus grids over the arch
// registry and over specs exercising each omitempty field of arch.Spec
// (TAGE, prefetch, RAS depth, pollution).
func keyTestGrids() []Grid {
	var grids []Grid
	for _, f := range Figures() {
		grids = append(grids, f.Grid)
	}
	reg := Grid{Name: "registry"}
	for _, n := range arch.Names() {
		s, _ := arch.Lookup(n)
		reg.Arms = append(reg.Arms, Arm{Name: n, Spec: s})
		reg.Arms = append(reg.Arms, Arm{Name: n + " on paper caches", Spec: s, Caches: PaperCaches()})
	}
	grids = append(grids, reg)

	tage := arch.NLSTable(1024)
	tage.PHT = arch.TAGEPHT()
	tage.RASDepth = 16
	polluted := arch.BTB(256, 4)
	polluted.Pollution = true
	fdip := arch.NLSTable(512)
	fdip.Prefetch = &arch.PrefetchSpec{Kind: arch.PrefKindFDIP, FTQDepth: 8, MSHRs: 4, Latency: 30}
	nextLine := arch.NLSCache(NLSPerLine)
	nextLine.Prefetch = &arch.PrefetchSpec{Kind: arch.PrefKindNextLine, Degree: 2}
	grids = append(grids, Grid{Name: "omitempty", Arms: []Arm{
		{Name: "tage", Spec: tage, Caches: PaperCaches()},
		{Name: "polluted", Spec: polluted},
		{Name: "fdip", Spec: fdip, Caches: PaperCaches()},
		{Name: "next-line", Spec: nextLine},
	}})
	return append(grids, Grid{Name: "empty"})
}

// TestKeyedCellsMatchStructMarshal is the differential check on the
// fragment derivation: over every test grid, several budgets and penalty
// sets down to float extremes, every key Grid.Keyed and Cell.Key derive
// equals the whole-document marshal.
func TestKeyedCellsMatchStructMarshal(t *testing.T) {
	penalties := []metrics.Penalties{
		metrics.Default(),
		{Misfetch: 5e-324, Mispredict: 0.1, CacheMiss: 1e21},
		{Misfetch: 0, Mispredict: 1e-7, CacheMiss: 123456789.125},
	}
	programSets := [][]workload.Spec{workload.All(), {workload.Gcc()}, nil}
	cells := 0
	for _, g := range keyTestGrids() {
		for _, insns := range []int{1, 2_000_000, 20_000_000} {
			for pi, p := range penalties {
				for _, progs := range programSets {
					cfg := Config{Insns: insns, Programs: progs, Penalties: p}
					name := fmt.Sprintf("%s/insns=%d/pen%d/%dprogs", g.Name, insns, pi, len(progs))
					kg := g.Keyed(cfg)
					want := g.Cells(progs)
					if len(kg.Cells) != len(want) || len(kg.Keys) != len(want) {
						t.Fatalf("%s: %d cells, %d keys, want %d", name, len(kg.Cells), len(kg.Keys), len(want))
					}
					for i, c := range kg.Cells {
						if !reflect.DeepEqual(c, want[i]) {
							t.Fatalf("%s: cell %d = %+v, want %+v", name, i, c, want[i])
						}
						ref := refCellKey(c.Prog, insns, c.Spec, p)
						if kg.Keys[i] != ref {
							t.Errorf("%s: cell %s/%s keyed %s, struct marshal %s", name, c.Prog.Name, c.Arm, kg.Keys[i], ref)
						}
						if k := c.Key(cfg); k != ref {
							t.Errorf("%s: cell %s/%s Cell.Key %s, struct marshal %s", name, c.Prog.Name, c.Arm, k, ref)
						}
						cells++
					}
				}
			}
		}
	}
	if cells == 0 {
		t.Fatal("no cells checked")
	}
}

// TestRowsOfUngatheredGrid: Rows reuses the run's keys for a grid the run
// gathered and keys any other grid afresh, with the same result for equal
// grids.
func TestRowsOfUngatheredGrid(t *testing.T) {
	cfg := DefaultConfig(20_000)
	cfg.Programs = []workload.Spec{workload.Li()}
	g := Grid{Name: "g", Arms: []Arm{{Name: "nls", Spec: arch.NLSTable(1024), Caches: PaperCaches()[:2]}}}
	rs, err := NewExecutor(cfg).RunGrids(false, g)
	if err != nil {
		t.Fatal(err)
	}
	gathered := rs.Rows(g)

	// An equal grid built separately matches the gathered one; a subset of
	// its cells under another label is keyed afresh. Both find the run's
	// rows.
	again := Grid{Name: "g", Arms: []Arm{{Name: "nls", Spec: arch.NLSTable(1024), Caches: PaperCaches()[:2]}}}
	if _, ok := rs.gathered(again); !ok {
		t.Error("an equal grid did not match the gathered one")
	}
	for i, row := range rs.Rows(again) {
		if row != gathered[i] {
			t.Errorf("equal grid row %d = %+v, want %+v", i, row, gathered[i])
		}
	}
	sub := Grid{Name: "sub", Arms: []Arm{{Name: "other", Spec: arch.NLSTable(1024), Caches: PaperCaches()[1:2]}}}
	if _, ok := rs.gathered(sub); ok {
		t.Fatal("a different grid matched the gathered one")
	}
	rows := rs.Rows(sub)
	if len(rows) != 1 || rows[0].M != gathered[1].M || rows[0].Arch != "other" {
		t.Fatalf("ungathered grid rows = %+v, want the gathered cell 1 relabeled", rows)
	}
	if rows[0].M.Instructions == 0 {
		t.Error("ungathered grid row is empty")
	}
}
