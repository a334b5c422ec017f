package fetch

import (
	"reflect"
	"slices"
	"testing"

	"repro/internal/btb"
	"repro/internal/cache"
	"repro/internal/isa"
	"repro/internal/pht"
	"repro/internal/trace"
	"repro/internal/workload"
)

// collectProbe records the event stream for inspection.
type collectProbe struct{ evs []BreakEvent }

func (p *collectProbe) Break(ev BreakEvent) { p.evs = append(p.evs, ev) }

// probeFactories covers every architecture, including the
// hybrid (which the quick-test lists predate).
func probeFactories() []func() *Frontend {
	return []func() *Frontend{
		func() *Frontend {
			return NewNLSTableEngine(smallGeom(), 256, pht.NewGShare(512, 0), 8)
		},
		func() *Frontend {
			return NewNLSCacheEngine(smallGeom(), 2, pht.NewGShare(512, 0), 8)
		},
		func() *Frontend {
			return NewBTBEngine(smallGeom(), btb.Config{Entries: 32, Assoc: 2},
				pht.NewGShare(512, 0), 8)
		},
		func() *Frontend {
			return NewCoupledBTBEngine(smallGeom(), btb.Config{Entries: 32, Assoc: 2}, 8)
		},
		func() *Frontend { return NewJohnsonEngine(smallGeom()) },
		func() *Frontend {
			return NewHybridEngine(smallGeom(), 256, btb.Config{Entries: 32, Assoc: 2},
				pht.NewGShare(512, 0), 8)
		},
	}
}

// TestProbeCountersBitIdentical: attaching a probe must not change a single
// counter for any architecture — probes observe, never perturb. Runs with
// wrong-path pollution on, so the WrongPath capture path is exercised too.
func TestProbeCountersBitIdentical(t *testing.T) {
	for seed := int64(400); seed < 410; seed++ {
		tr := randomTrace(seed, 400)
		for _, f := range probeFactories() {
			bare := f()
			bare.SetWrongPathPollution(true)
			mBare := Run(bare, tr)

			probed := f()
			probed.SetWrongPathPollution(true)
			cp := &collectProbe{}
			probed.AttachProbe(cp)
			mProbed := Run(probed, tr)

			if *mBare != *mProbed {
				t.Fatalf("seed %d %s: probe perturbed counters:\n  bare   %+v\n  probed %+v",
					seed, bare.Name(), *mBare, *mProbed)
			}
			if uint64(len(cp.evs)) != mProbed.Breaks {
				t.Fatalf("seed %d %s: %d events for %d breaks",
					seed, bare.Name(), len(cp.evs), mProbed.Breaks)
			}
		}
	}
}

// TestProbeStepBlockEquivalence extends the StepBlock≡Step property to the
// probed path: the batched stepper must deliver the identical event stream,
// not just identical counters (breaks never batch, so this should be exact).
func TestProbeStepBlockEquivalence(t *testing.T) {
	for seed := int64(500); seed < 510; seed++ {
		tr := randomTrace(seed, 400)
		for _, f := range probeFactories() {
			stepped := f()
			cpStep := &collectProbe{}
			stepped.AttachProbe(cpStep)
			for _, r := range tr.Records {
				stepped.Step(r)
			}

			blocked := f()
			cpBlock := &collectProbe{}
			blocked.AttachProbe(cpBlock)
			blocked.StepBlock(tr.Records)

			if *stepped.Counters() != *blocked.Counters() {
				t.Fatalf("seed %d %s: probed StepBlock diverges from Step",
					seed, stepped.Name())
			}
			if len(cpStep.evs) != len(cpBlock.evs) {
				t.Fatalf("seed %d %s: event counts differ: %d vs %d",
					seed, stepped.Name(), len(cpStep.evs), len(cpBlock.evs))
			}
			for i := range cpStep.evs {
				if cpStep.evs[i] != cpBlock.evs[i] {
					t.Fatalf("seed %d %s: event %d differs:\n  step  %+v\n  block %+v",
						seed, stepped.Name(), i, cpStep.evs[i], cpBlock.evs[i])
				}
			}
		}
	}
}

// TestProbeEventConsistency: the event stream must reconcile exactly with
// the counters it narrates — penalties sum to the misfetch/mispredict
// totals, and a cause is assigned iff a penalty was paid.
func TestProbeEventConsistency(t *testing.T) {
	for _, f := range probeFactories() {
		e := f()
		cp := &collectProbe{}
		e.AttachProbe(cp)
		m := Run(e, randomTrace(600, 600))

		var mf, mp uint64
		for i, ev := range cp.evs {
			switch ev.Penalty {
			case PenaltyMisfetch:
				mf++
			case PenaltyMispredict:
				mp++
			}
			if (ev.Cause == CauseNone) != (ev.Penalty == PenaltyNone) {
				t.Fatalf("%s: event %d cause %v inconsistent with penalty %v",
					e.Name(), i, ev.Cause, ev.Penalty)
			}
			if ev.Cause >= NumCauses {
				t.Fatalf("%s: event %d cause out of range", e.Name(), i)
			}
		}
		if mf != m.Misfetches || mp != m.Mispredicts {
			t.Fatalf("%s: event penalties %d/%d != counters %d/%d",
				e.Name(), mf, mp, m.Misfetches, m.Mispredicts)
		}
	}
}

// TestProbeDetachStopsEvents: AttachProbe(nil) restores the unprobed path.
func TestProbeDetachStopsEvents(t *testing.T) {
	tr := randomTrace(700, 200)
	e := probeFactories()[0]()
	cp := &collectProbe{}
	e.AttachProbe(cp)
	e.StepBlock(tr.Records)
	n := len(cp.evs)
	if n == 0 {
		t.Fatal("no events while attached")
	}
	e.AttachProbe(nil)
	e.StepBlock(tr.Records)
	if len(cp.evs) != n {
		t.Fatalf("events delivered after detach: %d -> %d", n, len(cp.evs))
	}
}

// TestProbeEvictionLossOnlyNLSCache pins the taxonomy's headline claim on
// the scripted scenario of TestNLSCacheLosesStateOnEviction: when B's and
// E's cache lines evict each other every cycle, the NLS-cache attributes
// their breaks to state lost with the line, while the tag-less NLS-table —
// whose entries survive eviction — never reports that cause.
func TestProbeEvictionLossOnlyNLSCache(t *testing.T) {
	g := smallGeom()
	const (
		A = isa.Addr(0x1000) // set 0
		B = isa.Addr(0x1100) // set 8
		C = isa.Addr(0x1040) // set 2
		E = isa.Addr(0x1500) // set 8: conflicts with B
	)
	b := newTB(A)
	for i := 0; i < 5; i++ {
		b.br(isa.UncondBranch, true, B)
		b.br(isa.UncondBranch, true, C)
		b.br(isa.UncondBranch, true, E)
		b.br(isa.UncondBranch, true, A)
	}
	tr := b.trace(t)

	causes := func(e *Frontend) [NumCauses]uint64 {
		cp := &collectProbe{}
		e.AttachProbe(cp)
		Run(e, tr)
		var n [NumCauses]uint64
		for _, ev := range cp.evs {
			n[ev.Cause]++
		}
		return n
	}

	coupled := causes(NewNLSCacheEngine(g, 2, pht.Static{}, 8))
	if coupled[CauseEvictionLoss] == 0 {
		t.Errorf("NLS-cache: no eviction-loss events on a line-thrashing trace: %v", coupled)
	}
	table := causes(NewNLSTableEngine(g, 1024, pht.Static{}, 8))
	if table[CauseEvictionLoss] != 0 {
		t.Errorf("NLS-table: %d eviction-loss events; tag-less entries cannot be evicted",
			table[CauseEvictionLoss])
	}
	// Both still pay for the stale pointers chasing the evicted lines.
	if table[CauseStalePointer] == 0 || coupled[CauseStalePointer] == 0 {
		t.Errorf("expected stale-pointer events: table %v, cache %v", table, coupled)
	}
}

// TestProbeCauseScenarios pins one representative event per cause on
// scripted micro-traces.
func TestProbeCauseScenarios(t *testing.T) {
	lastCauseOf := func(e *Frontend, tr *trace.Trace) Cause {
		cp := &collectProbe{}
		e.AttachProbe(cp)
		Run(e, tr)
		for i := len(cp.evs) - 1; i >= 0; i-- {
			if cp.evs[i].Penalty != PenaltyNone {
				return cp.evs[i].Cause
			}
		}
		return CauseNone
	}

	t.Run("dir-wrong", func(t *testing.T) {
		// Static not-taken PHT on a taken conditional: the direction is
		// the root cause regardless of target state.
		b := newTB(0x1000)
		b.br(isa.CondBranch, true, 0x1100)
		b.br(isa.UncondBranch, true, 0x1000)
		b.br(isa.CondBranch, true, 0x1100)
		e := NewNLSTableEngine(smallGeom(), 1024, pht.Static{Taken: false}, 8)
		if c := lastCauseOf(e, b.trace(t)); c != CauseDirWrong {
			t.Errorf("cause = %v, want dir-wrong", c)
		}
	})

	t.Run("ras-miss", func(t *testing.T) {
		// A warm return with an empty RAS.
		b := newTB(0x1000)
		b.br(isa.Return, true, 0x1100)
		b.br(isa.UncondBranch, true, 0x1000)
		b.br(isa.Return, true, 0x1100)
		e := NewBTBEngine(smallGeom(), btb.Config{Entries: 16, Assoc: 1}, pht.Static{}, 8)
		if c := lastCauseOf(e, b.trace(t)); c != CauseRASMiss {
			t.Errorf("cause = %v, want ras-miss", c)
		}
	})

	t.Run("btb-conflict", func(t *testing.T) {
		// Two trained sites aliasing one direct-mapped BTB entry: the
		// revisit misses on displaced — not cold — state.
		e := NewBTBEngine(smallGeom(), btb.Config{Entries: 4, Assoc: 1}, pht.Static{}, 8)
		a := isa.Addr(0x1000)
		alias := a + 4*4 // same entry in a 4-entry direct-mapped BTB
		b := newTB(a)
		for i := 0; i < 3; i++ {
			b.br(isa.UncondBranch, true, alias)
			b.br(isa.UncondBranch, true, a)
		}
		if c := lastCauseOf(e, b.trace(t)); c != CauseBTBConflict {
			t.Errorf("cause = %v, want btb-conflict", c)
		}
	})

	t.Run("wrong-target", func(t *testing.T) {
		// A moving indirect target the BTB followed.
		b := newTB(0x1000)
		b.br(isa.IndirectJump, true, 0x1100)
		b.br(isa.UncondBranch, true, 0x1000)
		b.br(isa.IndirectJump, true, 0x1200)
		b.plain(1)
		// 2-way so the intervening uncond (same BTB set) does not displace
		// the indirect's entry: the revisit must hit with a stale target.
		e := NewBTBEngine(smallGeom(), btb.Config{Entries: 16, Assoc: 2}, pht.Static{}, 8)
		if c := lastCauseOf(e, b.trace(t)); c != CauseWrongTarget {
			t.Errorf("cause = %v, want wrong-target", c)
		}
	})

	t.Run("stale-pointer", func(t *testing.T) {
		// The §7 displaced-target scenario: a trained NLS pointer chasing
		// an evicted line.
		const (
			H = isa.Addr(0x1000)
			T = isa.Addr(0x1100)
			E = isa.Addr(0x1100 + 1024)
		)
		b := newTB(H)
		for i := 0; i < 3; i++ {
			b.br(isa.UncondBranch, true, T)
			b.br(isa.UncondBranch, true, E)
			b.br(isa.UncondBranch, true, H)
		}
		e := NewNLSTableEngine(smallGeom(), 1024, pht.Static{}, 8)
		if c := lastCauseOf(e, b.trace(t)); c != CauseStalePointer {
			t.Errorf("cause = %v, want stale-pointer", c)
		}
	})

	t.Run("cold", func(t *testing.T) {
		b := newTB(0x1000)
		b.br(isa.UncondBranch, true, 0x1100)
		b.plain(1)
		e := NewNLSTableEngine(smallGeom(), 1024, pht.Static{}, 8)
		if c := lastCauseOf(e, b.trace(t)); c != CauseCold {
			t.Errorf("cause = %v, want cold", c)
		}
	})
}

// TestBroadcastProbedMatchesReference: probed and unprobed engines of one
// geometry broadcast together — every probed engine replays from the
// shared oracle, and one reads the direction annotation it shares with an
// unprobed engine — and each probe receives exactly the event stream a
// per-record Run with the same probe delivers, at workers 1, 2 and 4.
func TestBroadcastProbedMatchesReference(t *testing.T) {
	g := cache.MustGeometry(8*1024, 32, 1)
	bcfg := btb.Config{Entries: 128, Assoc: 1}
	gshare := func() *pht.GShare { return pht.NewGShare(1024, 6) }
	probedIdx := []int{0, 2, 3, 5}
	mk := func() ([]*Frontend, []*collectProbe) {
		engines := []*Frontend{
			NewNLSTableEngine(g, 512, gshare(), 32), // probed, reads the direction annotation
			NewNLSTableEngine(g, 512, gshare(), 32), // unprobed, same direction configuration
			NewNLSCacheEngine(g, 2, gshare(), 32),
			NewBTBEngine(g, bcfg, testTAGE(), 32),
			NewJohnsonEngine(g),
			NewCoupledBTBEngine(g, bcfg, 32),
		}
		probes := make([]*collectProbe, len(engines))
		for _, i := range probedIdx {
			probes[i] = &collectProbe{}
			engines[i].AttachProbe(probes[i])
		}
		return engines, probes
	}

	// The plan this test relies on: one oracle group holding every engine,
	// and a direction slot read by the first (probed) engine.
	engines, _ := mk()
	private, groups := replayPlan(engines)
	planDirs(private, groups)
	if len(private) != 0 || len(groups) != 1 || len(groups[0].members) != len(engines) {
		t.Fatalf("plan: %d private engines, %d groups; want every engine in one group", len(private), len(groups))
	}
	if groups[0].members[0].dir < 0 {
		t.Fatal("plan: the probed NLS-table reads no direction annotation")
	}
	if d := planSites(private, groups); d == nil || len(d.readers) != len(probedIdx) {
		t.Fatal("plan: the probed engines do not all read the site annotation")
	}

	tr := workload.Gcc().MustTrace(60_000)
	chunked := trace.Chunk(tr, 1024)
	ref, refProbes := mk()
	for _, e := range ref {
		Run(e, tr)
	}
	for _, workers := range []int{1, 2, 4} {
		bcast, probes := mk()
		BroadcastWorkers(chunked.Chunks(), workers, bcast...)
		for i, e := range bcast {
			if *e.Counters() != *ref[i].Counters() {
				t.Errorf("workers=%d %s: counters diverge from per-record Run", workers, e.Name())
			}
			if probes[i] == nil {
				continue
			}
			if len(probes[i].evs) == 0 || !reflect.DeepEqual(probes[i].evs, refProbes[i].evs) {
				t.Errorf("workers=%d %s: %d probe events differ from the %d of per-record Run",
					workers, e.Name(), len(probes[i].evs), len(refProbes[i].evs))
			}
		}
	}
}

// TestBroadcastProbedHandOff: probed engines go from a broadcast to Step,
// and each probe receives the event stream of a per-record Run that
// attaches it at the same record, sites included. The trace runs in three
// parts. A first broadcast replays every engine from cold, two of them
// probed: an NLS-cache in the oracle group and a polluted BTB that
// replays privately; both read the site annotation. Two more probes
// attach after it (late attach): one on a polluted NLS-cache, one on the
// Johnson engine. In the second part the private engines broadcast again
// (a private cache carries its state into a broadcast; a group's oracle
// starts cold) while the grouped ones Step: the late NLS-cache reads the
// site annotation from empty, the BTB numbers its own sites on the table
// it took over, and both it and the grouped NLS-cache meet new PCs on the
// table they share. Every engine Steps through the third part.
func TestBroadcastProbedHandOff(t *testing.T) {
	g := cache.MustGeometry(8*1024, 32, 1)
	bcfg := btb.Config{Entries: 128, Assoc: 1}
	gshare := func() *pht.GShare { return pht.NewGShare(1024, 6) }
	mk := func() []*Frontend {
		pbtb := NewBTBEngine(g, bcfg, gshare(), 32)
		pbtb.SetWrongPathPollution(true)
		pnls := NewNLSCacheEngine(g, 2, gshare(), 32)
		pnls.SetWrongPathPollution(true)
		return []*Frontend{
			NewNLSCacheEngine(g, 2, gshare(), 32),
			pbtb,
			pnls,
			NewJohnsonEngine(g),
			NewNLSTableEngine(g, 512, gshare(), 32), // never probed
		}
	}
	const early, probed = 2, 4 // engines [:early] are probed from the start
	private := []int{1, 2}
	attach := func(es []*Frontend, from, to int) []*collectProbe {
		ps := make([]*collectProbe, to-from)
		for i := range ps {
			ps[i] = &collectProbe{}
			es[from+i].AttachProbe(ps[i])
		}
		return ps
	}
	step := func(es []*Frontend, recs []trace.Record) {
		for _, r := range recs {
			for _, e := range es {
				e.Step(r)
			}
		}
	}

	tr := workload.Gcc().MustTrace(80_000)
	recs := tr.Records
	first, second, third := recs[:len(recs)/4], recs[len(recs)/4:len(recs)/2], recs[len(recs)/2:]
	blocks := func(recs []trace.Record) trace.ChunkSource {
		return trace.Chunk(&trace.Trace{Records: recs}, 1024).Chunks()
	}

	ref := mk()
	refProbes := attach(ref, 0, early)
	step(ref, first)
	refProbes = append(refProbes, attach(ref, early, probed)...)
	step(ref, recs[len(first):])
	for i, p := range refProbes {
		if len(p.evs) == 0 {
			t.Fatalf("reference probe %d saw no events", i)
		}
		checkSites(t, p.evs)
	}

	for _, workers := range []int{1, 2} {
		es := mk()
		probes := attach(es, 0, early)
		BroadcastWorkers(blocks(first), workers, es...)
		probes = append(probes, attach(es, early, probed)...)
		var grouped []*Frontend
		for i, e := range es {
			if !slices.Contains(private, i) {
				grouped = append(grouped, e)
			}
		}
		step(grouped, second)
		if d := planSites(replayPlan([]*Frontend{es[1], es[2]})); d == nil ||
			!slices.Equal(d.readers, []*Frontend{es[2]}) {
			t.Fatal("plan: the second broadcast's site annotation is not read by the late NLS-cache alone")
		}
		BroadcastWorkers(blocks(second), workers, es[1], es[2])
		step(es, third)
		for i, e := range es {
			got, want := *e.Counters(), *ref[i].Counters()
			if !slices.Contains(private, i) {
				// A grouped engine that Steps after a broadcast
				// recounts its cold misses.
				got.ICacheColdMisses, want.ICacheColdMisses = 0, 0
			}
			if got != want {
				t.Errorf("workers=%d %s: counters diverge from per-record Run", workers, e.Name())
			}
		}
		for i, p := range probes {
			if !slices.Equal(p.evs, refProbes[i].evs) {
				t.Errorf("workers=%d engine %d (%s): %d probe events differ from the %d of per-record Run",
					workers, i, es[i].Name(), len(p.evs), len(refProbes[i].evs))
			}
		}
	}
}

// TestProbedEngineNeverEchoed: a probed BTB engine whose echo key equals
// an unprobed BTB engine's on another geometry must still replay, since
// an echoed engine steps nothing: its probe sees every break, and the
// events restate its counters.
func TestProbedEngineNeverEchoed(t *testing.T) {
	g1 := cache.MustGeometry(8*1024, 32, 1)
	g2 := cache.MustGeometry(16*1024, 32, 2)
	bcfg := btb.Config{Entries: 128, Assoc: 1}
	mkBTB := func(g cache.Geometry) *Frontend { return NewBTBEngine(g, bcfg, pht.NewGShare(1024, 6), 32) }
	leader, probed := mkBTB(g1), mkBTB(g2)
	lk, lok := leader.echoInvariant()
	pk, pok := probed.echoInvariant()
	if !lok || !pok || lk != pk {
		t.Fatalf("premise: echo keys %q (%v) and %q (%v) differ", lk, lok, pk, pok)
	}
	cp := &collectProbe{}
	probed.AttachProbe(cp)
	engines := []*Frontend{
		leader,
		NewNLSTableEngine(g1, 512, pht.NewGShare(1024, 6), 32),
		probed,
		NewNLSTableEngine(g2, 512, pht.NewGShare(1024, 6), 32),
	}

	tr := workload.Li().MustTrace(60_000)
	BroadcastWorkers(trace.Chunk(tr, 1024).Chunks(), 1, engines...)
	m := probed.Counters()
	if want := Run(mkBTB(g2), tr); *m != *want {
		t.Fatalf("probed BTB counters diverge from per-record Run\n got %+v\nwant %+v", *m, *want)
	}
	var misfetches, mispredicts uint64
	for _, ev := range cp.evs {
		switch ev.Penalty {
		case PenaltyMisfetch:
			misfetches++
		case PenaltyMispredict:
			mispredicts++
		}
	}
	if uint64(len(cp.evs)) != m.Breaks || misfetches != m.Misfetches || mispredicts != m.Mispredicts {
		t.Errorf("probe saw %d breaks (%d misfetches, %d mispredicts); counters say %d (%d, %d)",
			len(cp.evs), misfetches, mispredicts, m.Breaks, m.Misfetches, m.Mispredicts)
	}
}

// TestResetKeepsSites pins what Reset keeps of an engine a probe attached
// to: its site numbering, so a probe attached again names every break as
// before, and with it the engine's exclusion from broadcast echo and table
// reading, even with the probe detached. Predictor state, the trained
// shadow state included, goes cold, so the same trace gives the same
// events again.
func TestResetKeepsSites(t *testing.T) {
	g := cache.MustGeometry(8*1024, 32, 1)
	tr := workload.Li().MustTrace(20_000)
	btbEng := NewBTBEngine(g, btb.Config{Entries: 64, Assoc: 1}, pht.NewGShare(1024, 6), 32)
	table := NewNLSTableEngine(g, 512, pht.NewGShare(1024, 6), 32)
	if _, ok := btbEng.echoInvariant(); !ok {
		t.Fatal("premise: a fresh BTB engine is not echo-eligible")
	}
	if _, ok := table.tableShareKey(0); !ok {
		t.Fatal("premise: a fresh NLS-table engine cannot read tables")
	}
	for _, e := range []*Frontend{btbEng, table} {
		first := &collectProbe{}
		e.AttachProbe(first)
		Run(e, tr)
		e.AttachProbe(nil)
		e.Reset()
		if _, ok := e.echoInvariant(); ok {
			t.Errorf("%s: echo-eligible after Reset", e.Name())
		}
		if _, ok := e.tableShareKey(0); ok {
			t.Errorf("%s: reads tables after Reset", e.Name())
		}
		again := &collectProbe{}
		e.AttachProbe(again)
		Run(e, tr)
		if len(first.evs) == 0 || !slices.Equal(again.evs, first.evs) {
			t.Errorf("%s: %d events after Reset differ from the %d before", e.Name(), len(again.evs), len(first.evs))
		}
	}
}

// TestLateAttachPendingTrainsNoSite: a probe attached while a taken
// break's update is deferred must not credit that update, which began
// before tracking did, to the first site numbered afterwards.
func TestLateAttachPendingTrainsNoSite(t *testing.T) {
	b := newTB(0x1000)
	b.br(isa.UncondBranch, true, 0x1100)
	b.plain(1)
	recs := b.trace(t).Records
	e := NewNLSTableEngine(smallGeom(), 1024, pht.Static{}, 8)
	e.Step(recs[0])
	if !e.pending.active {
		t.Fatal("premise: the taken branch's update is not deferred")
	}
	e.AttachProbe(&collectProbe{})
	for _, r := range recs[1:] {
		e.Step(r)
	}
	if e.trainedSet().has(0) {
		t.Error("the update deferred before the attach trained site 0")
	}
}
