package fetch

import (
	"bytes"
	"fmt"
	"slices"
	"testing"

	"repro/internal/btb"
	"repro/internal/cache"
	"repro/internal/isa"
	"repro/internal/metrics"
	"repro/internal/pht"
	"repro/internal/trace"
	"repro/internal/workload"
)

// nonChainedTrace is a short loop whose closing jump, every seventh
// iteration, is followed by records that are not its target: they run two
// more jumps to the loop head, the first of them again followed by a
// record that is not its target, as a foreign or tampered trace could
// hold. The second of the three jumps runs only there, so Step never
// trains its entry. The code blocks lie in distinct sets of the 8-set
// caches of the tests below.
func nonChainedTrace() *trace.Trace {
	var recs []trace.Record
	add := func(pc isa.Addr, kind isa.Kind, taken bool, target isa.Addr) {
		recs = append(recs, trace.Record{PC: pc, Kind: kind, Taken: taken, Target: target})
	}
	for it := 0; it < 24; it++ {
		add(0x1000, isa.NonBranch, false, 0)
		add(0x1004, isa.NonBranch, false, 0)
		add(0x1008, isa.Call, true, 0x4020)
		add(0x4020, isa.NonBranch, false, 0)
		add(0x4024, isa.Return, true, 0x100c)
		add(0x100c, isa.CondBranch, it%3 != 0, 0x2040)
		if it%3 == 0 {
			add(0x1010, isa.UncondBranch, true, 0x2040)
		}
		add(0x2040, isa.NonBranch, false, 0)
		add(0x2044, isa.UncondBranch, true, 0x1000)
		if it%7 == 6 {
			add(0x3080, isa.NonBranch, false, 0)
			add(0x3084, isa.UncondBranch, true, 0x1000)
			add(0x6060, isa.NonBranch, false, 0)
			add(0x6064, isa.UncondBranch, true, 0x1000)
		}
	}
	return &trace.Trace{Name: "non-chained", Records: recs}
}

// runRef returns per-record fetch.Run's counters for fresh engines.
func runRef(mk func() []*Frontend, tr *trace.Trace) []metrics.Counters {
	ref := mk()
	want := make([]metrics.Counters, len(ref))
	for i, e := range ref {
		want[i] = *Run(e, tr)
	}
	return want
}

// checkBroadcast broadcasts src to fresh engines and compares every counter
// with want.
func checkBroadcast(t *testing.T, name string, src trace.ChunkSource, workers int, mk func() []*Frontend, want []metrics.Counters) {
	t.Helper()
	engines := mk()
	BroadcastWorkers(src, workers, engines...)
	for i, e := range engines {
		if got := *e.Counters(); got != want[i] {
			t.Errorf("%s workers=%d engine %d (%s): counters diverge from fetch.Run\n got %+v\nwant %+v",
				name, workers, i, e.Name(), got, want[i])
		}
	}
}

// TestGroupedReplayNonChained: on a trace with non-chained records, every
// oracle-eligible architecture replays as per-record fetch.Run does at
// workers 1 and 2. Grouped replay resolves a deferred update inline with
// the next record's way, so it must apply Step's chaining guard: a next
// record that is not the break's successor drops the update.
func TestGroupedReplayNonChained(t *testing.T) {
	tr := nonChainedTrace()
	mk := func() []*Frontend {
		var es []*Frontend
		for _, g := range []cache.Geometry{cache.MustGeometry(256, 32, 1), cache.MustGeometry(512, 32, 2)} {
			gshare := func() *pht.GShare { return pht.NewGShare(256, 4) }
			bcfg := btb.Config{Entries: 16, Assoc: 1}
			es = append(es,
				NewNLSTableEngine(g, 64, gshare(), 8),
				NewNLSTableEngine(g, 64, testTAGE(), 8), // replays: no shared direction slot
				NewNLSCacheEngine(g, 2, gshare(), 8),
				NewBTBEngine(g, bcfg, gshare(), 8),
				NewCoupledBTBEngine(g, bcfg, 8),
				NewJohnsonEngine(g),
				NewHybridEngine(g, 64, bcfg, gshare(), 8),
			)
		}
		return es
	}
	private, groups := replayPlan(mk())
	if len(private) != 0 || len(groups) != 2 {
		t.Fatalf("plan has %d private engines and %d groups, want every engine grouped on 2 geometries", len(private), len(groups))
	}
	want := runRef(mk, tr)
	for _, chunk := range []int{5, 13, 4096} {
		for _, workers := range []int{1, 2} {
			checkBroadcast(t, fmt.Sprintf("chunk=%d", chunk), trace.Chunk(tr, chunk).Chunks(), workers, mk, want)
		}
	}
}

// tableGeoms are the direct-mapped, 2-way, 4-way and one-set geometries of
// the table-annotation tests, small enough that lines conflict.
func tableGeoms() []cache.Geometry {
	return []cache.Geometry{
		cache.MustGeometry(1024, 32, 1),
		cache.MustGeometry(1024, 32, 2),
		cache.MustGeometry(2048, 32, 4),
		cache.MustGeometry(128, 32, 4), // one set
	}
}

// tableEngines puts one NLS-table of the given size on every tableGeoms
// geometry, beside an NLS-cache or a Johnson engine that keeps the
// geometry grouped and replays from the same oracle.
func tableEngines(entries int) []*Frontend {
	var es []*Frontend
	for i, g := range tableGeoms() {
		es = append(es, NewNLSTableEngine(g, entries, pht.NewGShare(1024, 6), 32))
		if i%2 == 0 {
			es = append(es, NewNLSCacheEngine(g, 2, pht.NewGShare(1024, 6), 32))
		} else {
			es = append(es, NewJohnsonEngine(g))
		}
	}
	return es
}

// planAll resolves a broadcast's full plan for engines, as BroadcastWorkers
// does.
func planAll(engines []*Frontend) (private []member, groups []*oracleGroup, tables []*tableDriver) {
	private, groups = replayPlan(engines)
	extractEchoes(groups)
	planRuns(groups)
	planDirs(private, groups)
	return private, groups, planTables(groups)
}

// TestBroadcastTableAnnotationMatchesRun: NLS-tables of 16, 512 and 1024
// entries on direct-mapped, 2-way, 4-way and one-set geometries read one
// table annotation per table size, and every counter of every engine equals
// per-record fetch.Run at chunk sizes 1, 2, 3, 7 and 4096 and workers 1, 2
// and 4, on a workload trace and on the non-chained trace. Run under -race
// via `make stress`: the main goroutine drives the table while the group
// goroutines read earlier blocks.
func TestBroadcastTableAnnotationMatchesRun(t *testing.T) {
	traces := []*trace.Trace{workload.Gcc().MustTrace(6_000), nonChainedTrace()}
	for _, entries := range []int{16, 512, 1024} {
		mk := func() []*Frontend { return tableEngines(entries) }
		if _, _, tables := planAll(mk()); len(tables) != 1 || len(tables[0].readers) != len(tableGeoms()) {
			t.Fatalf("%d entries: plan has %d table drivers, want one read by every NLS-table", entries, len(tables))
		}
		for _, tr := range traces {
			want := runRef(mk, tr)
			for _, chunk := range []int{1, 2, 3, 7, 4096} {
				for _, workers := range []int{1, 2, 4} {
					name := fmt.Sprintf("%d entries %s chunk=%d", entries, tr.Name, chunk)
					checkBroadcast(t, name, trace.Chunk(tr, chunk).Chunks(), workers, mk, want)
				}
			}
		}
	}
}

// tableMixedLineEngines holds two NLS-table geometries for each of the line
// sizes 16, 32 and 64 bytes, each beside a Johnson engine.
func tableMixedLineEngines() []*Frontend {
	var es []*Frontend
	for _, lb := range []int{16, 32, 64} {
		for _, assoc := range []int{1, 2} {
			g := cache.MustGeometry(64*lb, lb, assoc)
			es = append(es, NewNLSTableEngine(g, 512, pht.NewGShare(1024, 6), 32), NewJohnsonEngine(g))
		}
	}
	return es
}

// TestBroadcastTableAnnotationMixedLineSizes: NLS-tables of three line sizes
// read one driver per line size, each of them read by both geometries of
// its size, and every counter equals per-record fetch.Run.
func TestBroadcastTableAnnotationMixedLineSizes(t *testing.T) {
	_, _, tables := planAll(tableMixedLineEngines())
	if len(tables) != 3 {
		t.Fatalf("plan has %d table drivers, want one per line size", len(tables))
	}
	for _, d := range tables {
		if len(d.readers) != 2 {
			t.Errorf("driver on %d-byte lines has %d readers, want 2", d.geom.LineBytes(), len(d.readers))
		}
		for _, r := range d.readers {
			if r.geom.LineBytes() != d.geom.LineBytes() {
				t.Errorf("driver on %d-byte lines read by an engine on %v", d.geom.LineBytes(), r.geom)
			}
		}
	}
	tr := workload.Li().MustTrace(20_000)
	want := runRef(tableMixedLineEngines, tr)
	for _, workers := range []int{1, 2, 4} {
		checkBroadcast(t, "mixed lines", trace.Chunk(tr, 1000).Chunks(), workers, tableMixedLineEngines, want)
	}
}

// tablePlanEngines mixes table readers, one of them alone in its geometry,
// with NLS-tables that must never read: a probed one, a polluted one, a
// prefetching one and one whose table size no other engine shares.
func tablePlanEngines() (engines []*Frontend, readers map[int]bool, fdip int) {
	g1 := cache.MustGeometry(1024, 32, 1)
	g2 := cache.MustGeometry(1024, 32, 2)
	g3 := cache.MustGeometry(512, 16, 1)
	g4 := cache.MustGeometry(512, 16, 2)
	gshare := func() *pht.GShare { return pht.NewGShare(1024, 6) }
	probed := NewNLSTableEngine(g1, 512, gshare(), 32)
	probed.AttachProbe(&collectProbe{})
	polluted := NewNLSTableEngine(g2, 512, gshare(), 32)
	polluted.SetWrongPathPollution(true)
	prefetched := NewNLSTableEngine(g2, 512, gshare(), 32)
	prefetched.ICache().EnablePrefetch(8, 20)
	prefetched.SetFTQDepth(8)
	prefetched.AttachPrefetcher(NewFDIPPrefetcher(prefetched.ICache()))
	engines = []*Frontend{
		NewNLSTableEngine(g1, 512, gshare(), 32), // reader (32-byte lines)
		NewNLSCacheEngine(g1, 2, gshare(), 32),
		probed,
		NewNLSTableEngine(g1, 1024, gshare(), 32), // alone in its table size
		NewNLSTableEngine(g2, 512, gshare(), 32),  // reader (32-byte lines)
		NewJohnsonEngine(g2),
		polluted,
		NewNLSTableEngine(g3, 512, gshare(), 32), // reader (16-byte lines)
		NewJohnsonEngine(g3),
		NewNLSTableEngine(g4, 512, gshare(), 32), // reader (16-byte lines)
		NewJohnsonEngine(g4),
		NewNLSTableEngine(cache.MustGeometry(2048, 32, 4), 512, gshare(), 32), // reader (32-byte lines), alone in its geometry
		prefetched,
	}
	return engines, map[int]bool{0: true, 4: true, 7: true, 9: true, 11: true}, len(engines) - 1
}

// TestBroadcastTablePlan: the plan holds exactly one driver per key that at
// least two grouped NLS-tables share, an NLS-table alone in its geometry
// included; probed, polluted and prefetching NLS-tables, and one whose key
// no other engine shares, never read, and every engine still ends with the
// reference counters. In the shape of Figure 5 — four BTBs beside an
// NLS-table on one paper geometry, an NLS-table alone on each of the other
// five — the six NLS-tables read one driver.
func TestBroadcastTablePlan(t *testing.T) {
	engines, readers, fdip := tablePlanEngines()
	_, groups, tables := planAll(engines)
	if len(tables) != 2 {
		t.Fatalf("plan has %d table drivers, want 2 (one per line size)", len(tables))
	}
	idx := make(map[*Frontend]int)
	for i, e := range engines {
		idx[e] = i
	}
	got := make(map[int]bool)
	for k, d := range tables {
		if want := map[int]int{32: 3, 16: 2}[d.geom.LineBytes()]; len(d.readers) != want {
			t.Errorf("driver %d on %d-byte lines has %d readers, want %d", k, d.geom.LineBytes(), len(d.readers), want)
		}
		for _, r := range d.readers {
			got[idx[r]] = true
		}
	}
	for _, g := range groups {
		for _, m := range g.readers {
			if !got[m.idx] || m.tab < 0 {
				t.Errorf("group reader %d is not a driver's reader", m.idx)
			}
		}
		for _, m := range g.members {
			if got[m.idx] {
				t.Errorf("engine %d both reads a table and replays", m.idx)
			}
		}
	}
	for i := range engines {
		if got[i] != readers[i] {
			t.Errorf("engine %d (%s): reader %v, want %v", i, engines[i].Name(), got[i], readers[i])
		}
	}

	tr := workload.Espresso().MustTrace(20_000)
	chunked := trace.Chunk(tr, 1024)
	ref, _, _ := tablePlanEngines()
	want := make([]metrics.Counters, len(ref))
	for i, e := range ref {
		if i == fdip {
			want[i] = *RunChunks(e, chunked.Chunks())
		} else {
			want[i] = *Run(e, tr)
		}
	}
	mk := func() []*Frontend { es, _, _ := tablePlanEngines(); return es }
	for _, workers := range []int{1, 2, 4} {
		checkBroadcast(t, "plan set", chunked.Chunks(), workers, mk, want)
	}

	fig5 := func() []*Frontend {
		g16 := cache.MustGeometry(16*1024, 32, 1)
		var es []*Frontend
		for _, cfg := range []btb.Config{{Entries: 128, Assoc: 1}, {Entries: 128, Assoc: 4}, {Entries: 256, Assoc: 1}, {Entries: 256, Assoc: 4}} {
			es = append(es, NewBTBEngine(g16, cfg, pht.NewGShare(4096, 12), 32))
		}
		for _, g := range paperCaches() {
			es = append(es, NewNLSTableEngine(g, 1024, pht.NewGShare(4096, 12), 32))
		}
		return es
	}
	private, groups, tables := planAll(fig5())
	if len(private) != 0 || len(groups) != len(paperCaches()) {
		t.Fatalf("fig5 shape: %d private engines and %d groups, want 0 and one per paper geometry", len(private), len(groups))
	}
	if len(tables) != 1 || len(tables[0].readers) != len(paperCaches()) {
		t.Fatalf("fig5 shape: %d table drivers, want one read by all %d NLS-tables", len(tables), len(paperCaches()))
	}
	want = runRef(fig5, tr)
	for _, workers := range []int{1, 2} {
		checkBroadcast(t, "fig5 shape", chunked.Chunks(), workers, fig5, want)
	}
}

// TestBroadcastTableReadersTimed: a table reader steps nothing, but its
// reads are charged to it, so its ReplayTime is positive.
func TestBroadcastTableReadersTimed(t *testing.T) {
	engines := tableEngines(512)
	BroadcastWorkers(trace.Chunk(workload.Li().MustTrace(20_000), 1024).Chunks(), 2, engines...)
	for _, e := range engines {
		if ReplayTime(e) <= 0 {
			t.Errorf("engine %s: ReplayTime = %v, want > 0", e.Name(), ReplayTime(e))
		}
	}
}

// pointerTailTrace loops through a call whose callee takes an indirect
// jump, and ends inside the callee on that jump, now to a new target: the
// trace's last record is a pointer-mode break with its deferred update
// pending and the return stack holding the caller. rest continues the
// trace: it returns and takes the jump again.
func pointerTailTrace() (*trace.Trace, []trace.Record) {
	b := newTB(0x1000)
	for i := 0; i < 40; i++ {
		b.plain(3).br(isa.Call, true, 0x7020)
		b.plain(2).br(isa.IndirectJump, true, 0x7440)
		b.plain(1).br(isa.Return, true, 0x1010)
		b.plain(1).br(isa.UncondBranch, true, 0x1000)
	}
	b.plain(3).br(isa.Call, true, 0x7020)
	b.plain(2).br(isa.IndirectJump, true, 0x7650)
	rest := newTB(0x7650)
	rest.plain(1).br(isa.Return, true, 0x1010)
	rest.plain(1).br(isa.UncondBranch, true, 0x1000)
	rest.plain(3).br(isa.Call, true, 0x7020)
	rest.plain(2).br(isa.IndirectJump, true, 0x7650)
	rest.plain(1)
	return &trace.Trace{Name: "pointer-tail", Records: b.recs}, rest.recs
}

// TestBroadcastTableTailPointerBreak: a trace ending on a pointer-mode break
// leaves its successor's residency to the oracle's Succ probe and its update
// pending. Every counter equals fetch.Run on every tableGeoms geometry, and
// each engine on two direct-mapped geometries, stepped on past the
// broadcast, equals record-by-record stepping: a reader adopted the
// driver's pending break and return stack. (The tag mirror a grouped engine
// or reader hands off leaves LRU order to the group oracle, which only a
// direct-mapped cache never reads.)
func TestBroadcastTableTailPointerBreak(t *testing.T) {
	tr, rest := pointerTailTrace()
	mk := func() []*Frontend { return tableEngines(64) }
	want := runRef(mk, tr)
	for _, chunk := range []int{1, 3, 4096} {
		for _, workers := range []int{1, 2} {
			checkBroadcast(t, fmt.Sprintf("chunk=%d", chunk), trace.Chunk(tr, chunk).Chunks(), workers, mk, want)
		}
	}

	mkDM := func() []*Frontend {
		var es []*Frontend
		for _, g := range []cache.Geometry{cache.MustGeometry(1024, 32, 1), cache.MustGeometry(2048, 32, 1)} {
			es = append(es, NewJohnsonEngine(g), NewNLSTableEngine(g, 64, pht.NewGShare(1024, 6), 32))
		}
		return es
	}
	if _, _, tables := planAll(mkDM()); len(tables) != 1 {
		t.Fatalf("direct-mapped set has %d table drivers, want 1", len(tables))
	}
	want = runRef(mkDM, &trace.Trace{Records: append(append([]trace.Record(nil), tr.Records...), rest...)})
	for _, chunk := range []int{1, 3, 4096} {
		for _, workers := range []int{1, 2} {
			engines := mkDM()
			BroadcastWorkers(trace.Chunk(tr, chunk).Chunks(), workers, engines...)
			for i, e := range engines {
				for _, r := range rest {
					e.Step(r)
				}
				got, w := *e.Counters(), want[i]
				// The tag mirror leaves first-touch tracking to the group
				// oracle (see TestBroadcastHandOffMatchesStep).
				got.ICacheColdMisses, w.ICacheColdMisses = 0, 0
				if got != w {
					t.Errorf("chunk=%d workers=%d engine %d (%s): continuation diverges\n got %+v\nwant %+v",
						chunk, workers, i, e.Name(), got, w)
				}
			}
		}
	}
}

// TestStressTableAnnotationPoisoned replays the table-annotation engine set
// over a source that poisons every block as soon as it is released, at
// workers 1, 2 and 4: a block or item list recycled before its last reader
// would feed a reader garbage. Run under -race via `make stress`.
func TestStressTableAnnotationPoisoned(t *testing.T) {
	tr := workload.Groff().MustTrace(30_000)
	chunked := trace.Chunk(tr, 512)
	mk := func() []*Frontend { return append(tableEngines(512), tableMixedLineEngines()...) }
	want := runRef(mk, tr)
	for _, workers := range []int{1, 2, 4} {
		src := newRecyclingSource(t, chunked)
		checkBroadcast(t, "poisoned", src, workers, mk, want)
		src.checkReleased(t, fmt.Sprintf("workers=%d", workers), broadcastBound)
	}
}

// fuzzEngines is FuzzBroadcastMatchesRun's fixed engine set: NLS-tables on
// two geometries (which read one table annotation), an NLS-cache, a Johnson
// engine, BTBs on both geometries (one echoed) and a polluted BTB.
func fuzzEngines() []*Frontend {
	g1 := cache.MustGeometry(256, 32, 1)
	g2 := cache.MustGeometry(512, 32, 2)
	gshare := func() *pht.GShare { return pht.NewGShare(256, 4) }
	bcfg := btb.Config{Entries: 16, Assoc: 1}
	polluted := NewBTBEngine(g1, bcfg, gshare(), 8)
	polluted.SetWrongPathPollution(true)
	return []*Frontend{
		NewNLSTableEngine(g1, 64, gshare(), 8),
		NewNLSCacheEngine(g1, 2, gshare(), 8),
		NewBTBEngine(g1, bcfg, gshare(), 8),
		NewNLSTableEngine(g2, 64, gshare(), 8),
		NewJohnsonEngine(g2),
		NewBTBEngine(g2, bcfg, gshare(), 8),
		polluted,
	}
}

// FuzzBroadcastMatchesRun decodes the fuzz bytes as an NLST trace, as
// FuzzChunked does, and broadcasts it through fuzzEngines at a fuzzed chunk
// size and worker count: every counter must equal per-record fetch.Run, and
// the probe on the NLS-cache member must receive Run's event stream, sites
// included, numbered as checkSites requires.
func FuzzBroadcastMatchesRun(f *testing.F) {
	for _, tr := range []*trace.Trace{nonChainedTrace(), workload.Li().MustTrace(600)} {
		var buf bytes.Buffer
		if err := trace.Write(&buf, tr); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes(), uint16(7), uint8(0))
		f.Add(buf.Bytes(), uint16(1), uint8(1))
		f.Add(buf.Bytes(), uint16(4095), uint8(3))
	}
	f.Fuzz(func(t *testing.T, data []byte, chunk uint16, workers uint8) {
		tr, err := trace.Read(bytes.NewReader(data))
		if err != nil || len(tr.Records) > 1<<12 {
			return
		}
		size := 1 + int(chunk)%4096
		var got, want collectProbe
		probed := func(p *collectProbe) func() []*Frontend {
			return func() []*Frontend {
				es := fuzzEngines()
				es[1].AttachProbe(p)
				return es
			}
		}
		checkBroadcast(t, fmt.Sprintf("chunk=%d", size), trace.Chunk(tr, size).Chunks(), 1+int(workers)%4,
			probed(&got), runRef(probed(&want), tr))
		if !slices.Equal(got.evs, want.evs) {
			t.Errorf("chunk=%d: %d probe events differ from the %d of per-record Run", size, len(got.evs), len(want.evs))
		}
		checkSites(t, want.evs)
	})
}

// checkSites checks that evs, one engine's events from its first probe on,
// number the break PCs densely in first-seen order: a new PC takes the next
// site, and a PC seen before keeps its site.
func checkSites(t *testing.T, evs []BreakEvent) {
	t.Helper()
	sites := make(map[isa.Addr]uint32)
	for i, ev := range evs {
		want, ok := sites[ev.PC]
		if !ok {
			want = uint32(len(sites))
			sites[ev.PC] = want
		}
		if ev.Site != want {
			t.Fatalf("event %d (pc %#x): site %d, want %d", i, ev.PC, ev.Site, want)
		}
	}
}
