package experiments

import (
	"bytes"
	"encoding/hex"
	"encoding/json"
	"fmt"
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

// testCellKey is the store key of one (workload, budget, spec) cell.
func testCellKey(w workload.Spec, insns int, s arch.Spec) string {
	return Cell{Prog: w, Spec: s}.Key(Config{Insns: insns, Penalties: metrics.Default()})
}

func TestStoreRoundTrip(t *testing.T) {
	s, err := OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	w, spec := testCell()
	key := testCellKey(w, 100_000, spec)

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
	key := testCellKey(w, 100_000, spec)
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
// the store's only invalidation mechanism. The penalties are not such an
// input (TestCountersIndependentOfPenalties): a penalties-only change keeps
// the key, so a penalty sweep is served by the cells already stored.
func TestCellKeyInvalidation(t *testing.T) {
	w, spec := testCell()
	base := testCellKey(w, 100_000, spec)

	if k := testCellKey(w, 100_000, spec); k != base {
		t.Error("identical inputs produced different keys")
	}
	for _, p := range []metrics.Penalties{
		{Misfetch: 1, Mispredict: 6, CacheMiss: 5},
		{Misfetch: 0, Mispredict: 0, CacheMiss: 0},
		{Misfetch: 7.5, Mispredict: 1e9, CacheMiss: 5e-324},
	} {
		if k := (Cell{Prog: w, Spec: spec}).Key(Config{Insns: 100_000, Penalties: p}); k != base {
			t.Errorf("penalties %+v changed the cell key", p)
		}
	}

	mutations := map[string]string{}
	mutations["insns"] = testCellKey(w, 200_000, spec)

	w2 := w
	w2.Seed = w.Seed + 1
	mutations["workload seed"] = testCellKey(w2, 100_000, spec)

	s2 := spec.WithGeometry(cache.MustGeometry(32*1024, LineBytes, 1))
	mutations["cache geometry"] = testCellKey(w, 100_000, s2)

	s3 := spec
	s3.Predictor.Entries = 512
	mutations["predictor size"] = testCellKey(w, 100_000, s3)

	s4 := spec
	s4.Pollution = true
	mutations["pollution flag"] = testCellKey(w, 100_000, s4)

	s5 := spec
	s5.PHT = arch.PHTSpec{Kind: "bimodal", Entries: PHTEntries}
	mutations["direction predictor"] = testCellKey(w, 100_000, s5)

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
	if infoKey(w, 100_000) == testCellKey(w, 100_000, spec) {
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

// goldenCounters sets every Counters field to a distinct value, so the
// golden encoding pins each field's offset.
func goldenCounters() metrics.Counters {
	m := metrics.Counters{
		Instructions: 1, Breaks: 2, Misfetches: 3, Mispredicts: 4,
		CondBranches: 30, CondDirWrong: 31,
		ICacheAccesses: 40, ICacheMisses: 41, ICacheColdMisses: 42,
		PrefIssued: 50, PrefUseful: 51, PrefLate: 52,
		PrefDropped: 53, PrefRedundant: 54, PrefUnused: 55,
	}
	for k := range m.MisfetchByKind {
		m.MisfetchByKind[k] = 10 + uint64(k)
		m.MispredictByKind[k] = 20 + uint64(k)
	}
	return m
}

// TestCellValueGolden pins the encoded bytes of one Counters value: the
// magic, the value-schema version, then every field in declaration order
// as a little-endian uint64. Adding, removing or reordering a Counters
// field breaks it; bump cellValueVersion with the new golden, so cells of
// the old layout miss instead of decoding into the wrong fields.
func TestCellValueGolden(t *testing.T) {
	m := goldenCounters()
	const want = "4e4c5343" + "02000000" + // "NLSC", version 2
		"0100000000000000" + "0200000000000000" + "0300000000000000" + "0400000000000000" + // instructions, breaks, misfetches, mispredicts
		"0a00000000000000" + "0b00000000000000" + "0c00000000000000" + "0d00000000000000" + "0e00000000000000" + "0f00000000000000" + // misfetch_by_kind
		"1400000000000000" + "1500000000000000" + "1600000000000000" + "1700000000000000" + "1800000000000000" + "1900000000000000" + // mispredict_by_kind
		"1e00000000000000" + "1f00000000000000" + // cond_branches, cond_dir_wrong
		"2800000000000000" + "2900000000000000" + "2a00000000000000" + // icache accesses, misses, cold misses
		"3200000000000000" + "3300000000000000" + "3400000000000000" + "3500000000000000" + "3600000000000000" + "3700000000000000" // prefetch issued … unused
	enc := encodeCell(&m)
	if len(enc) != cellValueLen {
		t.Errorf("encodeCell wrote %d bytes, cellValueLen is %d", len(enc), cellValueLen)
	}
	if got := hex.EncodeToString(enc); got != want {
		t.Errorf("encodeCell = %s\nwant          %s", got, want)
	}
	var back metrics.Counters
	if !decodeCell(enc, &back) || back != m {
		t.Errorf("decodeCell(encodeCell(m)) = %+v, want %+v", back, m)
	}
}

// TestStoreCountersRoundTrip: saved counters are served from the memo by
// the saving store and decoded from disk by a fresh store over the same
// directory.
func TestStoreCountersRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	w, spec := testCell()
	key := testCellKey(w, 100_000, spec)
	var got metrics.Counters
	if ok, err := s.LoadCounters(key, &got); err != nil || ok {
		t.Fatalf("empty store LoadCounters = (%v, %v), want miss", ok, err)
	}
	want := goldenCounters()
	if err := s.SaveCounters(key, &want); err != nil {
		t.Fatal(err)
	}
	fresh, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	for name, st := range map[string]*Store{"memo": s, "disk": fresh} {
		got = metrics.Counters{}
		if ok, err := st.LoadCounters(key, &got); err != nil || !ok || got != want {
			t.Errorf("%s: LoadCounters = (%v, %v, %+v), want hit of %+v", name, ok, err, got, want)
		}
	}
}

// TestStoreRejectsMalformedCells: anything at a cell path but an exact
// current-version value is a miss that leaves the destination untouched —
// v1 JSON Row cells (with and without the icache_cold_misses field),
// truncated and extended values, another version, another magic — and a
// rejected file is never memoized, so a later valid file at the same key
// is read.
func TestStoreRejectsMalformedCells(t *testing.T) {
	m := goldenCounters()
	valid := encodeCell(&m)
	w, spec := testCell()
	v1 := func(c metrics.Counters) []byte {
		buf, err := json.MarshalIndent(Row{Program: w.Name, Arch: "1024 NLS-table", Spec: spec, M: c}, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		return append(buf, '\n')
	}
	preCold := m
	preCold.ICacheColdMisses = 0
	otherVersion := bytes.Clone(valid)
	otherVersion[len(cellMagic)] = 3
	otherMagic := bytes.Clone(valid)
	otherMagic[0] = 'X'
	cases := map[string][]byte{
		"v1 row":                    v1(m),
		"v1 row before cold misses": v1(preCold),
		"truncated":                 valid[:len(valid)-1],
		"header only":               valid[:len(cellMagic)+4],
		"extended":                  append(bytes.Clone(valid), 0),
		"version 3":                 otherVersion,
		"wrong magic":               otherMagic,
		"empty":                     {},
	}
	for name, data := range cases {
		dir := t.TempDir()
		s, err := OpenStore(dir)
		if err != nil {
			t.Fatal(err)
		}
		key := testCellKey(w, 100_000, spec)
		path := s.path(key)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		sentinel := metrics.Counters{Instructions: 99}
		got := sentinel
		if ok, err := s.LoadCounters(key, &got); err != nil || ok || got != sentinel {
			t.Errorf("%s: LoadCounters = (%v, %v, %+v), want a miss leaving %+v", name, ok, err, got, sentinel)
		}
		if err := os.WriteFile(path, valid, 0o644); err != nil {
			t.Fatal(err)
		}
		if ok, err := s.LoadCounters(key, &got); err != nil || !ok || got != m {
			t.Errorf("%s: valid file after a miss: LoadCounters = (%v, %v), want hit", name, ok, err)
		}
	}
}

// TestV1CellResimulated: a v1 indented-JSON Row at a cell's key is a miss
// by schema, whatever its counters say — including a cell written before
// icache_cold_misses existed (misses but no cold misses) and one written
// after. The executor re-simulates the cell, returns the simulated
// counters rather than the stored ones, and overwrites the file with a v2
// value a fresh store then serves.
func TestV1CellResimulated(t *testing.T) {
	g := Grid{Name: "one", Arms: []Arm{
		{Name: "1024 NLS-table", Spec: arch.NLSTable(1024), Caches: cache16KDirect()},
	}}
	cfg := Config{Insns: 40_000, Programs: []workload.Spec{workload.Li()},
		Penalties: metrics.Default()}
	kg := g.Keyed(cfg)
	c := kg.Cells[0]
	for _, cold := range []uint64{0, 3} {
		t.Run(fmt.Sprintf("cold=%d", cold), func(t *testing.T) {
			dir := t.TempDir()
			store, err := OpenStore(dir)
			if err != nil {
				t.Fatal(err)
			}
			stale := Row{Program: c.Prog.Name, Arch: c.Arm, Spec: c.Spec, M: metrics.Counters{
				Instructions: 40_000, Breaks: 1, ICacheAccesses: 100, ICacheMisses: 5, ICacheColdMisses: cold}}
			doc, err := json.MarshalIndent(stale, "", "  ")
			if err != nil {
				t.Fatal(err)
			}
			path := store.path(kg.Keys[0])
			if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, append(doc, '\n'), 0o644); err != nil {
				t.Fatal(err)
			}

			rs, err := (&Executor{R: NewRunner(cfg), Store: store}).RunKeyed(false, kg)
			if err != nil {
				t.Fatal(err)
			}
			if rs.Simulated != 1 || rs.Loaded != 0 {
				t.Fatalf("v1 cell: simulated=%d loaded=%d, want re-simulation", rs.Simulated, rs.Loaded)
			}
			got := rs.Rows(g)[0].M
			if got == stale.M || got.Breaks == 1 {
				t.Fatalf("v1 cell's counters returned as a row: %+v", got)
			}

			fresh, err := OpenStore(dir)
			if err != nil {
				t.Fatal(err)
			}
			var back metrics.Counters
			if ok, err := fresh.LoadCounters(kg.Keys[0], &back); err != nil || !ok || back != got {
				t.Fatalf("overwritten cell: LoadCounters = (%v, %v, %+v), want hit of %+v", ok, err, back, got)
			}
			warm, err := (&Executor{R: NewRunner(cfg), Store: fresh}).RunKeyed(false, kg)
			if err != nil {
				t.Fatal(err)
			}
			if warm.Simulated != 0 || warm.Loaded != 1 {
				t.Fatalf("after overwrite: simulated=%d loaded=%d, want a store hit", warm.Simulated, warm.Loaded)
			}
		})
	}
}

// TestStoreMemoBounded: the memo never holds more than memoCells cells,
// and the cell remembered last survives the clear.
func TestStoreMemoBounded(t *testing.T) {
	s, err := OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	var last string
	for i := 0; i <= memoCells; i++ {
		last = fmt.Sprintf("%064x", i)
		s.remember(last, metrics.Counters{Instructions: uint64(i)})
	}
	if n := len(s.memo); n > memoCells {
		t.Errorf("memo holds %d cells, bound %d", n, memoCells)
	}
	var got metrics.Counters
	if ok, err := s.LoadCounters(last, &got); err != nil || !ok || got.Instructions != memoCells {
		t.Errorf("last remembered cell: LoadCounters = (%v, %v, %+v)", ok, err, got)
	}
}

// FuzzCellDecode writes arbitrary bytes at a cell path and loads them
// through a fresh store, so the disk decode runs: no input may panic or
// error, and an input decodes only when it is a well-formed current-version
// cell — exactly the encoding of the counters it decoded to.
func FuzzCellDecode(f *testing.F) {
	m := goldenCounters()
	valid := encodeCell(&m)
	f.Add(valid)
	f.Add(valid[:len(valid)-1])
	f.Add(append(bytes.Clone(valid), '\n'))
	v1, err := json.MarshalIndent(Row{Program: "li", M: m}, "", "  ")
	if err != nil {
		f.Fatal(err)
	}
	f.Add(v1)
	f.Add([]byte(cellMagic))
	f.Add([]byte{})

	// Inputs run one at a time in each fuzzing process, so they share one
	// directory; each opens a fresh store, whose memo is empty.
	dir := f.TempDir()
	const key = "c0ffeec0ffeec0ffeec0ffeec0ffeec0ffeec0ffeec0ffeec0ffeec0ffeec0ff"
	path := (&Store{dir: dir}).path(key)
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := OpenStore(dir)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		var got metrics.Counters
		ok, err := s.LoadCounters(key, &got)
		if err != nil {
			t.Fatalf("LoadCounters error on a cell file: %v", err)
		}
		if !ok {
			if got != (metrics.Counters{}) {
				t.Fatalf("a miss wrote counters %+v", got)
			}
			return
		}
		if !bytes.Equal(encodeCell(&got), data) {
			t.Fatalf("decoded %d bytes that are not a current-version cell into %+v", len(data), got)
		}
	})
}
