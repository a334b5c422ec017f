package fetch

import (
	"testing"

	"repro/internal/btb"
	"repro/internal/isa"
	"repro/internal/pht"
	"repro/internal/trace"
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
