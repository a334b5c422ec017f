package experiments

import (
	"os"
	"path/filepath"
	"testing"

	"repro/internal/arch"
	"repro/internal/cache"
	"repro/internal/metrics"
	"repro/internal/workload"
)

func testCell() (workload.Spec, arch.Spec) {
	spec := arch.NLSTable(1024).WithGeometry(cache.MustGeometry(16*1024, LineBytes, 1))
	return workload.Li(), spec
}

// testCellKey is the store key of one (workload, budget, spec, penalties)
// cell.
func testCellKey(w workload.Spec, insns int, s arch.Spec, p metrics.Penalties) string {
	return Cell{Prog: w, Spec: s}.Key(Config{Insns: insns, Penalties: p})
}

func TestStoreRoundTrip(t *testing.T) {
	s, err := OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	w, spec := testCell()
	key := testCellKey(w, 100_000, spec, metrics.Default())

	var missing Row
	if ok, err := s.Load(key, &missing); err != nil || ok {
		t.Fatalf("empty store Load = (%v, %v), want miss", ok, err)
	}

	in := Row{Program: w.Name, Arch: "1024 NLS-table", Spec: spec,
		M: metrics.Counters{Instructions: 100_000, Breaks: 12345, Misfetches: 67}}
	if err := s.Save(key, in); err != nil {
		t.Fatal(err)
	}
	var out Row
	ok, err := s.Load(key, &out)
	if err != nil || !ok {
		t.Fatalf("Load after Save = (%v, %v), want hit", ok, err)
	}
	if out.M != in.M || out.Program != in.Program || out.Spec != in.Spec {
		t.Errorf("round trip mutated the row:\n in %+v\nout %+v", in, out)
	}
}

func TestStoreCorruptCellIsAMiss(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	w, spec := testCell()
	key := testCellKey(w, 100_000, spec, metrics.Default())
	if err := s.Save(key, Row{Program: w.Name}); err != nil {
		t.Fatal(err)
	}
	// Truncate the stored document mid-JSON: the store is a cache, so the
	// damage must degrade to a recomputation, not an error.
	path := filepath.Join(dir, key[:2], key+".json")
	if err := os.WriteFile(path, []byte(`{"program": "li-`), 0o644); err != nil {
		t.Fatal(err)
	}
	var out Row
	if ok, err := s.Load(key, &out); err != nil || ok {
		t.Errorf("corrupt cell Load = (%v, %v), want miss without error", ok, err)
	}
}

// TestCellKeyInvalidation: the content key must change whenever ANY input
// the counters depend on changes — and must not change otherwise. This is
// the store's only invalidation mechanism.
func TestCellKeyInvalidation(t *testing.T) {
	w, spec := testCell()
	p := metrics.Default()
	base := testCellKey(w, 100_000, spec, p)

	if k := testCellKey(w, 100_000, spec, p); k != base {
		t.Error("identical inputs produced different keys")
	}

	mutations := map[string]string{}
	mutations["insns"] = testCellKey(w, 200_000, spec, p)

	w2 := w
	w2.Seed = w.Seed + 1
	mutations["workload seed"] = testCellKey(w2, 100_000, spec, p)

	s2 := spec.WithGeometry(cache.MustGeometry(32*1024, LineBytes, 1))
	mutations["cache geometry"] = testCellKey(w, 100_000, s2, p)

	s3 := spec
	s3.Predictor.Entries = 512
	mutations["predictor size"] = testCellKey(w, 100_000, s3, p)

	s4 := spec
	s4.Pollution = true
	mutations["pollution flag"] = testCellKey(w, 100_000, s4, p)

	s5 := spec
	s5.PHT = arch.PHTSpec{Kind: "bimodal", Entries: PHTEntries}
	mutations["direction predictor"] = testCellKey(w, 100_000, s5, p)

	p2 := p
	p2.Mispredict = 6
	mutations["penalties"] = testCellKey(w, 100_000, spec, p2)

	seen := map[string]string{base: "base"}
	for name, k := range mutations {
		if k == base {
			t.Errorf("changing %s did not change the cell key", name)
		}
		if prev, dup := seen[k]; dup {
			t.Errorf("mutations %s and %s alias to one key", name, prev)
		}
		seen[k] = name
	}
}

// TestInfoKeySeparateNamespace: per-program replay info and cells must
// never collide, and info keys must track their own inputs.
func TestInfoKeySeparateNamespace(t *testing.T) {
	w, spec := testCell()
	if infoKey(w, 100_000) == testCellKey(w, 100_000, spec, metrics.Default()) {
		t.Error("info and cell key namespaces collide")
	}
	if infoKey(w, 100_000) == infoKey(w, 200_000) {
		t.Error("info key ignores the instruction budget")
	}
	if infoKey(w, 100_000) != infoKey(w, 100_000) {
		t.Error("info key not deterministic")
	}
}

// TestStoreInvalidationEndToEnd: a stored cell is served for the exact
// same configuration but re-simulated after the instruction budget
// changes.
func TestStoreInvalidationEndToEnd(t *testing.T) {
	store, err := OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	g := Grid{Name: "one", Arms: []Arm{
		{Name: "1024 NLS-table", Spec: arch.NLSTable(1024), Caches: cache16KDirect()},
	}}
	cfg := Config{Insns: 40_000, Programs: []workload.Spec{workload.Li()},
		Penalties: metrics.Default()}

	rs, err := (&Executor{R: NewRunner(cfg), Store: store}).RunGrids(false, g)
	if err != nil {
		t.Fatal(err)
	}
	if rs.Simulated != 1 || rs.Loaded != 0 {
		t.Fatalf("cold: simulated=%d loaded=%d", rs.Simulated, rs.Loaded)
	}

	rs, err = (&Executor{R: NewRunner(cfg), Store: store}).RunGrids(false, g)
	if err != nil {
		t.Fatal(err)
	}
	if rs.Simulated != 0 || rs.Loaded != 1 {
		t.Fatalf("warm: simulated=%d loaded=%d", rs.Simulated, rs.Loaded)
	}

	bigger := cfg
	bigger.Insns = 60_000
	rs, err = (&Executor{R: NewRunner(bigger), Store: store}).RunGrids(false, g)
	if err != nil {
		t.Fatal(err)
	}
	if rs.Simulated != 1 || rs.Loaded != 0 {
		t.Fatalf("changed insns: simulated=%d loaded=%d, want re-simulation", rs.Simulated, rs.Loaded)
	}
}
