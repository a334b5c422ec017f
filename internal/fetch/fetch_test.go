package fetch

import (
	"testing"

	"repro/internal/btb"
	"repro/internal/cache"
	"repro/internal/isa"
	"repro/internal/pht"
	"repro/internal/trace"
)

// tb builds well-chained micro-traces for scripted engine scenarios.
type tb struct {
	recs []trace.Record
	pc   isa.Addr
}

func newTB(start isa.Addr) *tb { return &tb{pc: start} }

func (b *tb) plain(n int) *tb {
	for i := 0; i < n; i++ {
		b.recs = append(b.recs, trace.Record{PC: b.pc, Kind: isa.NonBranch})
		b.pc = b.pc.Next()
	}
	return b
}

func (b *tb) br(kind isa.Kind, taken bool, target isa.Addr) *tb {
	r := trace.Record{PC: b.pc, Kind: kind, Taken: taken, Target: target}
	b.recs = append(b.recs, r)
	b.pc = r.Next()
	return b
}

func (b *tb) trace(t *testing.T) *trace.Trace {
	t.Helper()
	tr := &trace.Trace{Name: "micro", Records: b.recs}
	if err := tr.Validate(); err != nil {
		t.Fatalf("scripted trace invalid: %v", err)
	}
	return tr
}

// geometry for most scenarios: 1KB direct mapped, 32 sets.
func smallGeom() cache.Geometry { return cache.MustGeometry(1024, 32, 1) }

func counts(e *Frontend, tr *trace.Trace) (mf, mp uint64) {
	m := Run(e, tr)
	return m.Misfetches, m.Mispredicts
}

// ---------------------------------------------------------------- BTB ----

func TestBTBNonBranchesClean(t *testing.T) {
	e := NewBTBEngine(smallGeom(), btb.Config{Entries: 16, Assoc: 1}, pht.Static{}, 8)
	mf, mp := counts(e, newTB(0x1000).plain(50).trace(t))
	if mf != 0 || mp != 0 {
		t.Errorf("plain instructions penalized: mf=%d mp=%d", mf, mp)
	}
	if e.Counters().Instructions != 50 || e.Counters().Breaks != 0 {
		t.Error("instruction accounting wrong")
	}
}

func TestBTBUncondFirstMisfetchThenClean(t *testing.T) {
	e := NewBTBEngine(smallGeom(), btb.Config{Entries: 16, Assoc: 1}, pht.Static{}, 8)
	b := newTB(0x1000)
	b.br(isa.UncondBranch, true, 0x1010) // cold: misfetch
	b.plain(1)
	b.br(isa.UncondBranch, true, 0x1000) // cold: misfetch (site 0x1014)
	b.br(isa.UncondBranch, true, 0x1010) // warm: clean
	mf, mp := counts(e, b.trace(t))
	if mf != 2 || mp != 0 {
		t.Errorf("mf=%d mp=%d, want 2/0", mf, mp)
	}
}

func TestBTBCondTakenDirectionRight(t *testing.T) {
	// Static-taken PHT: direction always right for taken branches. The
	// first execution misses the BTB (misfetch); later ones hit.
	e := NewBTBEngine(smallGeom(), btb.Config{Entries: 16, Assoc: 1}, pht.Static{Taken: true}, 8)
	b := newTB(0x1000)
	b.br(isa.CondBranch, true, 0x1010)
	b.br(isa.UncondBranch, true, 0x1000) // trained separately: 1 misfetch
	b.br(isa.CondBranch, true, 0x1010)   // now hits: clean
	mf, mp := counts(e, b.trace(t))
	if mf != 2 || mp != 0 {
		t.Errorf("mf=%d mp=%d, want 2/0", mf, mp)
	}
}

func TestBTBCondDirectionWrongIsMispredict(t *testing.T) {
	// Static-not-taken PHT mispredicts every taken conditional; those
	// are never also counted as misfetches.
	e := NewBTBEngine(smallGeom(), btb.Config{Entries: 16, Assoc: 1}, pht.Static{Taken: false}, 8)
	// Sites at words 0x400 and 0x404: distinct sets of the 16-entry BTB.
	b := newTB(0x1000)
	for i := 0; i < 3; i++ {
		b.br(isa.CondBranch, true, 0x1010)
		b.br(isa.UncondBranch, true, 0x1000)
	}
	mf, mp := counts(e, b.trace(t))
	if mp != 3 {
		t.Errorf("mp=%d, want 3", mp)
	}
	if mf != 1 { // only the uncond's cold misfetch
		t.Errorf("mf=%d, want 1 (uncond cold miss)", mf)
	}
}

func TestBTBNotTakenCondClean(t *testing.T) {
	e := NewBTBEngine(smallGeom(), btb.Config{Entries: 16, Assoc: 1}, pht.Static{Taken: false}, 8)
	b := newTB(0x1000)
	for i := 0; i < 5; i++ {
		b.br(isa.CondBranch, false, 0x2000)
		b.plain(1)
	}
	mf, mp := counts(e, b.trace(t))
	if mf != 0 || mp != 0 {
		t.Errorf("not-taken conditionals penalized: mf=%d mp=%d", mf, mp)
	}
}

func TestBTBIndirectScenarios(t *testing.T) {
	e := NewBTBEngine(smallGeom(), btb.Config{Entries: 16, Assoc: 1}, pht.Static{}, 8)
	b := newTB(0x1000)
	b.br(isa.IndirectJump, true, 0x1010) // cold: misfetch
	b.br(isa.UncondBranch, true, 0x1000) // site 0x1010: cold misfetch
	b.br(isa.IndirectJump, true, 0x1010) // stable target: clean
	b.br(isa.UncondBranch, true, 0x1000)
	b.br(isa.IndirectJump, true, 0x1020) // moved target: mispredict
	b.br(isa.UncondBranch, true, 0x1000) // site 0x1020: cold misfetch
	b.br(isa.IndirectJump, true, 0x1020) // stable again: clean
	b.br(isa.UncondBranch, true, 0x1000)
	mf, mp := counts(e, b.trace(t))
	// misfetches: indirect cold + both uncond sites cold.
	if mf != 3 || mp != 1 {
		t.Errorf("mf=%d mp=%d, want 3/1", mf, mp)
	}
}

func TestBTBCallReturnRAS(t *testing.T) {
	e := NewBTBEngine(smallGeom(), btb.Config{Entries: 16, Assoc: 1}, pht.Static{}, 8)
	b := newTB(0x1000)
	// Two passes over the same three sites: a call, its return, and the
	// loop-back jump. Cold pass misfetches all three; warm pass is
	// clean (BTB identifies the sites, RAS supplies the return).
	for i := 0; i < 2; i++ {
		b.br(isa.Call, true, 0x1010)         // site 0x1000, pushes 0x1004
		b.br(isa.Return, true, 0x1004)       // site 0x1010
		b.br(isa.UncondBranch, true, 0x1000) // site 0x1004
	}
	mf, mp := counts(e, b.trace(t))
	if mf != 3 || mp != 0 {
		t.Errorf("mf=%d mp=%d, want 3/0", mf, mp)
	}
}

func TestBTBReturnRASWrongIsMispredict(t *testing.T) {
	e := NewBTBEngine(smallGeom(), btb.Config{Entries: 16, Assoc: 1}, pht.Static{}, 8)
	// A return with an empty RAS: no prediction possible — mispredict
	// whether or not the BTB identifies the return.
	b := newTB(0x1000)
	b.br(isa.Return, true, 0x1010)
	b.br(isa.UncondBranch, true, 0x1000)
	b.br(isa.Return, true, 0x1010) // now in BTB, but RAS still empty
	mf, mp := counts(e, b.trace(t))
	if mp != 2 {
		t.Errorf("mp=%d, want 2 (both empty-RAS returns)", mp)
	}
	if mf != 1 { // uncond cold
		t.Errorf("mf=%d, want 1", mf)
	}
}

func TestBTBBEPIndependentOfCache(t *testing.T) {
	// The BTB holds full addresses: its misfetch/mispredict counts must
	// be identical across instruction cache configurations (§7, the
	// flat BTB bars of Figure 7).
	b := newTB(0x1000)
	for i := 0; i < 40; i++ {
		b.br(isa.CondBranch, i%3 != 0, 0x1800)
		if i%3 != 0 {
			b.br(isa.UncondBranch, true, 0x1000)
		} else {
			b.plain(2)
			b.br(isa.UncondBranch, true, 0x1000)
		}
	}
	tr := b.trace(t)
	var prevMf, prevMp uint64
	for i, g := range []cache.Geometry{
		cache.MustGeometry(1024, 32, 1),
		cache.MustGeometry(8*1024, 32, 1),
		cache.MustGeometry(32*1024, 32, 4),
	} {
		e := NewBTBEngine(g, btb.Config{Entries: 16, Assoc: 1}, pht.NewGShare(256, 0), 8)
		mf, mp := counts(e, tr)
		if i > 0 && (mf != prevMf || mp != prevMp) {
			t.Errorf("BTB BEP depends on cache config: %d/%d vs %d/%d", mf, mp, prevMf, prevMp)
		}
		prevMf, prevMp = mf, mp
	}
}

func TestBTBCapacityThrashing(t *testing.T) {
	// More concurrently live taken branches than BTB entries: every
	// execution misses (misfetch with a correct static-taken direction).
	e := NewBTBEngine(cache.MustGeometry(32*1024, 32, 1), btb.Config{Entries: 4, Assoc: 1},
		pht.Static{Taken: true}, 8)
	b := newTB(0x1000)
	// 8 unconditional branches in a cycle, all mapping over 4 entries.
	targets := make([]isa.Addr, 8)
	for i := range targets {
		targets[i] = isa.Addr(0x1000 + 0x100*(i+1))
	}
	cur := isa.Addr(0x1000)
	for round := 0; round < 10; round++ {
		for i := 0; i < 8; i++ {
			next := targets[i]
			if i == 7 {
				next = 0x1000
			}
			b.br(isa.UncondBranch, true, next)
			cur = next
			_ = cur
		}
	}
	mf, _ := counts(e, b.trace(t))
	// With 8 live sites in 4 direct-mapped entries, at least the four
	// conflicting sites miss every round.
	if mf < 30 {
		t.Errorf("mf=%d, expected heavy thrashing (>=30)", mf)
	}
}

// ---------------------------------------------------------------- NLS ----

func newNLS(g cache.Geometry, entries int, dir pht.Predictor) *Frontend {
	return NewNLSTableEngine(g, entries, dir, 8)
}

func TestNLSUncondTrainThenClean(t *testing.T) {
	// 1024-entry table: the two sites (word indices 0 and 64 mod 1024)
	// do not alias.
	e := newNLS(smallGeom(), 1024, pht.Static{})
	b := newTB(0x1000)
	b.br(isa.UncondBranch, true, 0x1100) // cold: misfetch
	b.br(isa.UncondBranch, true, 0x1000) // cold: misfetch
	b.br(isa.UncondBranch, true, 0x1100) // trained, resident: clean
	b.br(isa.UncondBranch, true, 0x1000) // trained: clean
	mf, mp := counts(e, b.trace(t))
	if mf != 2 || mp != 0 {
		t.Errorf("mf=%d mp=%d, want 2/0", mf, mp)
	}
}

func TestNLSDisplacedTargetMisfetch(t *testing.T) {
	// THE distinguishing NLS behaviour (§7): a trained pointer whose
	// target line was displaced from the cache misfetches; the BTB,
	// holding full addresses, never does.
	//
	// Cycle of three stable sites: H(set 0) → T(set 8) → E(set 8) → H.
	// T and E conflict in the 1KB direct-mapped cache, so each evicts
	// the other every cycle: H's pointer to T and T's pointer to E are
	// stale every cycle (2 NLS misfetches/cycle steady state), while
	// E's pointer to H stays clean.
	g := smallGeom()
	e := newNLS(g, 1024, pht.Static{})
	const (
		H = isa.Addr(0x1000)
		T = isa.Addr(0x1100)
		E = isa.Addr(0x1100 + 1024)
	)
	b := newTB(H)
	const cycles = 4
	for i := 0; i < cycles; i++ {
		b.br(isa.UncondBranch, true, T)
		b.br(isa.UncondBranch, true, E)
		b.br(isa.UncondBranch, true, H)
	}
	tr := b.trace(t)
	mf, mp := counts(e, tr)
	want := uint64(3 + 2*(cycles-1)) // 3 cold + 2 per steady cycle
	if mf != want || mp != 0 {
		t.Errorf("NLS mf=%d mp=%d, want %d/0", mf, mp, want)
	}

	// Control: the BTB only misfetches the three cold sites. (1024
	// entries so the cache-conflicting sites do not also conflict in
	// the BTB.)
	be := NewBTBEngine(g, btb.Config{Entries: 1024, Assoc: 1}, pht.Static{}, 8)
	bmf, _ := counts(be, tr)
	if bmf != 3 {
		t.Errorf("BTB mf=%d, want 3 (cold sites only)", bmf)
	}
}

func TestNLSCondPointerPreservedAcrossNotTaken(t *testing.T) {
	// §4: a not-taken execution must not erase the pointer.
	e := newNLS(smallGeom(), 1024, pht.Static{Taken: true})
	b := newTB(0x1000)
	b.br(isa.CondBranch, true, 0x1100)   // cold: misfetch, trains
	b.br(isa.UncondBranch, true, 0x1000) // cold: misfetch
	b.br(isa.CondBranch, false, 0x1100)  // static-taken wrong: mispredict
	b.plain(1)                           // fall-through to 0x1008
	b.br(isa.UncondBranch, true, 0x1000) // new site at 0x1008: misfetch
	b.br(isa.CondBranch, true, 0x1100)   // pointer preserved: clean
	mf, mp := counts(e, b.trace(t))
	if mf != 3 || mp != 1 {
		t.Errorf("mf=%d mp=%d, want 3/1", mf, mp)
	}
}

func TestNLSNotTakenCondClean(t *testing.T) {
	e := newNLS(smallGeom(), 64, pht.Static{Taken: false})
	b := newTB(0x1000)
	for i := 0; i < 5; i++ {
		b.br(isa.CondBranch, false, 0x2000)
	}
	mf, mp := counts(e, b.trace(t))
	if mf != 0 || mp != 0 {
		t.Errorf("mf=%d mp=%d, want 0/0", mf, mp)
	}
}

func TestNLSTaglessAliasing(t *testing.T) {
	// Two branches 64 words apart alias in a 64-entry table; each
	// taken execution overwrites the shared entry, so alternating
	// executions always misfetch.
	e := newNLS(cache.MustGeometry(8*1024, 32, 1), 64, pht.Static{})
	a := isa.Addr(0x1000)
	aliased := a + 64*4
	b := newTB(a)
	for i := 0; i < 4; i++ {
		b.br(isa.UncondBranch, true, aliased) // site A -> B
		b.br(isa.UncondBranch, true, a)       // site B -> A (aliases A's entry)
	}
	mf, _ := counts(e, b.trace(t))
	// Every execution misfetches: the alias rewrote the entry each time.
	if mf != 8 {
		t.Errorf("mf=%d, want 8 (every execution aliased)", mf)
	}
}

func TestNLSCallReturn(t *testing.T) {
	e := newNLS(smallGeom(), 1024, pht.Static{})
	b := newTB(0x1000)
	for i := 0; i < 2; i++ {
		b.br(isa.Call, true, 0x1200)         // pushes 0x1004
		b.br(isa.Return, true, 0x1004)       // RAS-predicted
		b.br(isa.UncondBranch, true, 0x1000) // loop back
	}
	mf, mp := counts(e, b.trace(t))
	// Cold pass: call misfetch, return misfetch (type unknown, RAS
	// right), loop-back misfetch. Warm pass: all clean.
	if mf != 3 || mp != 0 {
		t.Errorf("mf=%d mp=%d, want 3/0", mf, mp)
	}
}

func TestNLSReturnEmptyRASMispredict(t *testing.T) {
	e := newNLS(smallGeom(), 1024, pht.Static{})
	b := newTB(0x1000)
	b.br(isa.Return, true, 0x1100)
	b.br(isa.UncondBranch, true, 0x1000)
	b.br(isa.Return, true, 0x1100) // identified now, but RAS empty
	mf, mp := counts(e, b.trace(t))
	if mp != 2 {
		t.Errorf("mp=%d, want 2", mp)
	}
	_ = mf
}

func TestNLSIndirect(t *testing.T) {
	e := newNLS(smallGeom(), 1024, pht.Static{})
	b := newTB(0x1000)
	b.br(isa.IndirectJump, true, 0x1100) // cold: misfetch
	b.br(isa.UncondBranch, true, 0x1000) // cold: misfetch
	b.br(isa.IndirectJump, true, 0x1100) // stable: clean
	b.br(isa.UncondBranch, true, 0x1000)
	b.br(isa.IndirectJump, true, 0x1200) // moved: pointer followed, wrong: mispredict
	b.br(isa.UncondBranch, true, 0x1000) // new site at 0x1200: misfetch
	b.br(isa.IndirectJump, true, 0x1200) // retrained, resident: clean
	b.br(isa.UncondBranch, true, 0x1000)
	mf, mp := counts(e, b.trace(t))
	if mf != 3 || mp != 1 {
		t.Errorf("mf=%d mp=%d, want 3/1", mf, mp)
	}
}

func TestNLSWayPrediction(t *testing.T) {
	// 2-way cache: the target line moves to the *other way* while
	// staying resident; the stale way field alone causes the misfetch
	// (the paper's "may have been reloaded into a different set", §7).
	g := cache.MustGeometry(2048, 32, 2) // 32 sets
	e := newNLS(g, 1024, pht.Static{})
	var (
		siteA = isa.Addr(0x1000) // set 0
		tgt   = isa.Addr(0x1100) // set 8
		c1    = tgt + 2048       // set 8
		c2    = tgt + 4096       // set 8
		siteE = isa.Addr(0x1040) // set 2: a second site targeting tgt
	)
	b := newTB(siteA)
	b.br(isa.UncondBranch, true, tgt)   // 0: A trains ptr (tgt at way 0)
	b.br(isa.CondBranch, false, 0x2000) // 1: at tgt, falls through
	b.br(isa.UncondBranch, true, c1)    // 2: at tgt+4, fills set-8 way 1
	b.br(isa.UncondBranch, true, c2)    // 3: evicts tgt (LRU) from way 0
	b.br(isa.UncondBranch, true, siteE) // 4
	b.br(isa.UncondBranch, true, tgt)   // 5: tgt refills at way 1 (LRU = c1)
	b.br(isa.CondBranch, false, 0x2000) // 6: at tgt again, falls through
	b.br(isa.UncondBranch, true, siteA) // 7: at tgt+4, loop home
	b.br(isa.UncondBranch, true, tgt)   // 8: A again: tgt RESIDENT at way 1
	tr := b.trace(t)

	// Step through and examine the critical record (index 8).
	for _, rec := range tr.Records[:8] {
		e.Step(rec)
	}
	mfBefore := e.Counters().Misfetches
	// The target must be resident right now — if the final misfetch
	// fires, it is purely the stale way field.
	way, resident := e.ICache().Probe(tgt)
	if !resident || way != 1 {
		t.Fatalf("test setup broken: target resident=%v way=%d, want way 1", resident, way)
	}
	e.Step(tr.Records[8])
	if got := e.Counters().Misfetches - mfBefore; got != 1 {
		t.Errorf("way-moved target: misfetch delta = %d, want 1", got)
	}
	if e.Counters().Mispredicts != 0 {
		t.Errorf("mp=%d, want 0", e.Counters().Mispredicts)
	}
}

// ----------------------------------------------------------- NLS-cache ----

func TestNLSCacheLosesStateOnEviction(t *testing.T) {
	// The NLS-cache discards prediction state with the line (§4.1); the
	// NLS-table preserves it across cache misses. Cycle A→B→C→E→A where
	// B and E conflict in the cache: each cycle each evicts the other.
	//
	// Steady state per cycle:
	//   NLS-table: 2 misfetches — A's and C's pointers chase the
	//   evicted B and E lines; B's and E's *entries* stay trained.
	//   NLS-cache: 4 misfetches — additionally B's and E's predictor
	//   state dies with their lines, so their own branches misfetch
	//   too.
	g := smallGeom()
	const (
		A = isa.Addr(0x1000) // set 0
		B = isa.Addr(0x1100) // set 8
		C = isa.Addr(0x1040) // set 2
		E = isa.Addr(0x1500) // set 8: conflicts with B
	)
	const cycles = 5
	b := newTB(A)
	for i := 0; i < cycles; i++ {
		b.br(isa.UncondBranch, true, B)
		b.br(isa.UncondBranch, true, C)
		b.br(isa.UncondBranch, true, E)
		b.br(isa.UncondBranch, true, A)
	}
	tr := b.trace(t)

	table := newNLS(g, 1024, pht.Static{})
	tmf, _ := counts(table, tr)
	coupled := NewNLSCacheEngine(g, 2, pht.Static{}, 8)
	cmf, _ := counts(coupled, tr)
	if want := uint64(4 + 2*(cycles-1)); tmf != want {
		t.Errorf("NLS-table mf=%d, want %d", tmf, want)
	}
	if want := uint64(4 + 4*(cycles-1)); cmf != want {
		t.Errorf("NLS-cache mf=%d, want %d", cmf, want)
	}
}

func TestNLSCacheWorksWhenResident(t *testing.T) {
	e := NewNLSCacheEngine(smallGeom(), 2, pht.Static{}, 8)
	b := newTB(0x1000)
	b.br(isa.UncondBranch, true, 0x1100)
	b.br(isa.UncondBranch, true, 0x1000)
	b.br(isa.UncondBranch, true, 0x1100) // trained: clean
	b.br(isa.UncondBranch, true, 0x1000) // trained: clean
	mf, mp := counts(e, b.trace(t))
	if mf != 2 || mp != 0 {
		t.Errorf("mf=%d mp=%d, want 2/0", mf, mp)
	}
}

// ------------------------------------------------------------- Johnson ----

func TestJohnsonAlternatingCondMispredicts(t *testing.T) {
	// One-bit implicit direction: an alternating conditional mispredicts
	// every execution once warm (the pointer always encodes the last
	// direction, which is always wrong).
	e := NewJohnsonEngine(smallGeom())
	b := newTB(0x1000)
	for i := 0; i < 10; i++ {
		taken := i%2 == 0
		b.br(isa.CondBranch, taken, 0x1000+0x40)
		if taken {
			b.br(isa.UncondBranch, true, 0x1000)
		} else {
			b.plain(15)
			b.br(isa.UncondBranch, true, 0x1000)
		}
	}
	m := Run(e, b.trace(t))
	// Warm executions (after the first) of the alternating branch are
	// all wrong.
	if m.Mispredicts < 8 {
		t.Errorf("mp=%d, want >=8 for alternation under one-bit prediction", m.Mispredicts)
	}
}

func TestJohnsonStableUncondClean(t *testing.T) {
	e := NewJohnsonEngine(smallGeom())
	b := newTB(0x1000)
	for i := 0; i < 6; i++ {
		b.br(isa.UncondBranch, true, 0x1100)
		b.br(isa.UncondBranch, true, 0x1000)
	}
	m := Run(e, b.trace(t))
	if m.Misfetches != 2 || m.Mispredicts != 0 {
		t.Errorf("mf=%d mp=%d, want 2/0", m.Misfetches, m.Mispredicts)
	}
}

// --------------------------------------------------------------- shared ----

func TestEngineInvariants(t *testing.T) {
	// misfetch + mispredict <= breaks, and every engine resets cleanly.
	b := newTB(0x1000)
	for i := 0; i < 30; i++ {
		b.br(isa.CondBranch, i%2 == 0, 0x1400)
		if i%2 == 0 {
			b.br(isa.UncondBranch, true, 0x1000)
		} else {
			b.plain(3)
			b.br(isa.UncondBranch, true, 0x1000)
		}
	}
	tr := b.trace(t)
	engines := []*Frontend{
		NewBTBEngine(smallGeom(), btb.Config{Entries: 16, Assoc: 2}, pht.NewGShare(256, 0), 8),
		NewNLSTableEngine(smallGeom(), 64, pht.NewGShare(256, 0), 8),
		NewNLSCacheEngine(smallGeom(), 2, pht.NewGShare(256, 0), 8),
		NewJohnsonEngine(smallGeom()),
	}
	for _, e := range engines {
		m := Run(e, tr)
		if m.Misfetches+m.Mispredicts > m.Breaks {
			t.Errorf("%s: penalties exceed breaks", e.Name())
		}
		if m.Instructions != uint64(tr.Len()) {
			t.Errorf("%s: instructions %d != %d", e.Name(), m.Instructions, tr.Len())
		}
		before := *m
		e.Reset()
		if e.Counters().Instructions != 0 {
			t.Errorf("%s: Reset did not clear counters", e.Name())
		}
		// Re-running after reset reproduces identical counts
		// (determinism).
		m2 := Run(e, tr)
		if *m2 != before {
			t.Errorf("%s: rerun after Reset diverged", e.Name())
		}
	}
}

// TestRunChunks: RunChunks steps exactly the records its source yields
// (here a 10-record source bounded to 7, in blocks of 3).
func TestRunChunks(t *testing.T) {
	b := newTB(0x1000)
	b.plain(10)
	src := trace.NewSourceChunks(&trace.SliceSource{Records: b.recs}, 7, 3)
	e := NewBTBEngine(smallGeom(), btb.Config{Entries: 16, Assoc: 1}, pht.Static{}, 8)
	m := RunChunks(e, src)
	if m.Instructions != 7 {
		t.Errorf("RunChunks processed %d, want 7", m.Instructions)
	}
}
