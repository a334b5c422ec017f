package fetch

import (
	"path/filepath"
	"testing"

	"repro/internal/btb"
	"repro/internal/cache"
	"repro/internal/isa"
	"repro/internal/pht"
	"repro/internal/trace"
	"repro/internal/workload"
)

// paperCaches are the paper's BEP geometries, experiments.PaperCaches
// (which this package cannot import): 8K, 16K and 32K, direct-mapped and
// 4-way, 32-byte lines.
func paperCaches() []cache.Geometry {
	var gs []cache.Geometry
	for _, kb := range []int{8, 16, 32} {
		for _, assoc := range []int{1, 4} {
			gs = append(gs, cache.MustGeometry(kb*1024, 32, assoc))
		}
	}
	return gs
}

// coldGroupedEngines puts an NLS-table, an NLS-cache, a BTB and a Johnson
// engine on every paper geometry: the NLS-tables read one table
// annotation, the BTBs after the first are echoes, and the rest replay as
// grouped members.
func coldGroupedEngines() []*Frontend {
	var es []*Frontend
	for _, g := range paperCaches() {
		es = append(es,
			NewNLSTableEngine(g, 512, pht.NewGShare(1024, 6), 32),
			NewNLSCacheEngine(g, 2, pht.NewGShare(1024, 6), 32),
			NewBTBEngine(g, btb.Config{Entries: 128, Assoc: 1}, pht.NewGShare(1024, 6), 32),
			NewJohnsonEngine(g))
	}
	return es
}

// coldPrivateEngines puts one NLS-cache engine with a fetch-target queue
// and no prefetcher on every paper geometry: the decoupled pipeline makes
// each replay privately, and its demand fetches are the trace's. (A
// polluted engine also replays privately, but its wrong-path fetches touch
// lines the trace never executes, so no independent figure pins them.)
func coldPrivateEngines() []*Frontend {
	var es []*Frontend
	for _, g := range paperCaches() {
		e := NewNLSCacheEngine(g, 2, pht.NewGShare(1024, 6), 32)
		e.SetFTQDepth(8)
		es = append(es, e)
	}
	return es
}

// TestColdMissesCountDistinctLines pins the compulsory-miss count to an
// independent figure: with no prefetcher and no pollution, every engine's
// ICacheColdMisses equals the number of distinct 32-byte lines the trace
// touches, on every paper geometry, through per-record fetch.Run and
// through every broadcast path (grouped member, echo, table reader and
// private), replaying from the generator and from a corpus. A cache that
// counted a capacity or conflict miss as cold, on any path, fails it.
func TestColdMissesCountDistinctLines(t *testing.T) {
	const n = 60_000
	spec := workload.Li()
	tr := spec.MustTrace(n)
	lines := make(map[isa.Addr]bool)
	for _, r := range tr.Records {
		lines[r.PC&^31] = true
	}
	want := uint64(len(lines))

	// The plans exercise every path.
	private, groups, tables := planAll(coldGroupedEngines())
	members, echoes := 0, 0
	for _, g := range groups {
		members += len(g.members)
		echoes += len(g.echoes)
	}
	if len(private) != 0 || members == 0 || echoes == 0 || len(tables) != 1 {
		t.Fatalf("grouped plan: %d private, %d members, %d echoes, %d table drivers", len(private), members, echoes, len(tables))
	}
	if private, groups, _ := planAll(coldPrivateEngines()); len(private) != len(paperCaches()) || len(groups) != 0 {
		t.Fatalf("private plan: %d private engines, %d groups", len(private), len(groups))
	}

	path := filepath.Join(t.TempDir(), "cold.nlsc")
	w, err := trace.CreateCorpus(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Add(tr); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	c, err := trace.OpenCorpus(path)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	check := func(how string, es []*Frontend) {
		t.Helper()
		for _, e := range es {
			if got := e.Counters().ICacheColdMisses; got != want {
				t.Errorf("%s: %s on %v: %d cold misses, want %d (distinct lines)", how, e.Name(), e.ICache().Geometry(), got, want)
			}
		}
	}
	for _, mk := range []func() []*Frontend{coldGroupedEngines, coldPrivateEngines} {
		es := mk()
		warm := false
		for _, e := range es {
			m := Run(e, tr)
			warm = warm || m.ICacheMisses > want
		}
		if !warm {
			t.Fatal("no engine takes a capacity or conflict miss; the trace cannot tell them from cold ones")
		}
		check("fetch.Run", es)

		es = mk()
		gen, err := spec.Stream(n)
		if err != nil {
			t.Fatal(err)
		}
		BroadcastWorkers(gen, 2, es...)
		check("broadcast from the generator", es)

		es = mk()
		d, err := c.ChunkSource(tr.Name, trace.DefaultChunkRecords)
		if err != nil {
			t.Fatal(err)
		}
		BroadcastWorkers(d, 2, es...)
		if d.Err() != nil {
			t.Fatal(d.Err())
		}
		check("broadcast from the corpus", es)
	}
}
