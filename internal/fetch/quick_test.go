package fetch

import (
	"math/rand"
	"testing"

	"repro/internal/btb"
	"repro/internal/cache"
	"repro/internal/isa"
	"repro/internal/pht"
	"repro/internal/trace"
)

// randomTrace builds a random, well-chained trace over a compact code
// region with a bounded call stack — a property-test input generator for
// the engines.
func randomTrace(seed int64, n int) *trace.Trace {
	rng := rand.New(rand.NewSource(seed))
	b := newTB(0x1000)
	var stack []isa.Addr
	regionTarget := func() isa.Addr {
		return isa.Addr(0x1000 + uint32(rng.Intn(512))*4)
	}
	for len(b.recs) < n {
		switch rng.Intn(10) {
		case 0, 1, 2, 3:
			b.plain(1 + rng.Intn(4))
		case 4, 5:
			taken := rng.Intn(2) == 0
			b.br(isa.CondBranch, taken, regionTarget())
		case 6:
			b.br(isa.UncondBranch, true, regionTarget())
		case 7:
			b.br(isa.IndirectJump, true, regionTarget())
		case 8:
			if len(stack) < 16 {
				ret := b.pc.Next()
				stack = append(stack, ret)
				b.br(isa.Call, true, regionTarget())
			} else {
				b.plain(1)
			}
		case 9:
			if len(stack) > 0 {
				ret := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				b.br(isa.Return, true, ret)
			} else {
				b.plain(1)
			}
		}
	}
	return &trace.Trace{Name: "random", Records: b.recs}
}

// TestQuickEngineInvariants drives random traces through every
// architecture and checks the accounting invariants that must hold for any
// input: penalties never exceed breaks, counters are internally
// consistent, and engines are deterministic.
func TestQuickEngineInvariants(t *testing.T) {
	for seed := int64(0); seed < 25; seed++ {
		tr := randomTrace(seed, 400)
		if err := tr.Validate(); err != nil {
			t.Fatalf("seed %d: generator produced invalid trace: %v", seed, err)
		}
		mk := []func() *Frontend{
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
		}
		for _, f := range mk {
			a := f()
			ma := Run(a, tr)
			if ma.Misfetches+ma.Mispredicts > ma.Breaks {
				t.Fatalf("seed %d %s: penalties %d+%d exceed breaks %d",
					seed, a.Name(), ma.Misfetches, ma.Mispredicts, ma.Breaks)
			}
			if ma.Instructions != uint64(tr.Len()) {
				t.Fatalf("seed %d %s: instruction count", seed, a.Name())
			}
			if ma.CondDirWrong > ma.CondBranches {
				t.Fatalf("seed %d %s: dir-wrong exceeds conds", seed, a.Name())
			}
			var mfSum, mpSum uint64
			for k := isa.Kind(0); k < isa.NumKinds; k++ {
				mfSum += ma.MisfetchByKind[k]
				mpSum += ma.MispredictByKind[k]
			}
			if mfSum != ma.Misfetches || mpSum != ma.Mispredicts {
				t.Fatalf("seed %d %s: per-kind sums inconsistent", seed, a.Name())
			}
			// Determinism: a second engine gives identical counters.
			b := f()
			mb := Run(b, tr)
			if *ma != *mb {
				t.Fatalf("seed %d %s: nondeterministic", seed, a.Name())
			}
		}
	}
}

// TestQuickStepBlockPollutionEquivalence: StepBlock is defined as exactly
// per-record Step, and that must survive wrong-path pollution — whose cache
// touches interleave with prediction state — for every architecture.
func TestQuickStepBlockPollutionEquivalence(t *testing.T) {
	mk := []func() *Frontend{
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
	}
	for seed := int64(300); seed < 315; seed++ {
		tr := randomTrace(seed, 400)
		for _, f := range mk {
			stepped := f()
			stepped.SetWrongPathPollution(true)
			for _, r := range tr.Records {
				stepped.Step(r)
			}
			blocked := f()
			blocked.SetWrongPathPollution(true)
			blocked.StepBlock(tr.Records)
			if *stepped.Counters() != *blocked.Counters() {
				t.Fatalf("seed %d %s: StepBlock diverges from Step with pollution on:\n  step  %+v\n  block %+v",
					seed, stepped.Name(), *stepped.Counters(), *blocked.Counters())
			}
		}
	}
}

// TestQuickPHTSharedStateIndependence: the decoupled NLS and BTB engines
// agree exactly on conditional direction outcomes for any trace, since they
// update the identical PHT on the identical stream.
func TestQuickDirectionAgreement(t *testing.T) {
	for seed := int64(100); seed < 115; seed++ {
		tr := randomTrace(seed, 500)
		nls := NewNLSTableEngine(smallGeom(), 256, pht.NewGShare(512, 0), 8)
		bt := NewBTBEngine(smallGeom(), btb.Config{Entries: 32, Assoc: 1},
			pht.NewGShare(512, 0), 8)
		mn := Run(nls, tr)
		mb := Run(bt, tr)
		if mn.CondDirWrong != mb.CondDirWrong || mn.CondBranches != mb.CondBranches {
			t.Fatalf("seed %d: direction streams diverge (%d/%d vs %d/%d)",
				seed, mn.CondDirWrong, mn.CondBranches, mb.CondDirWrong, mb.CondBranches)
		}
	}
}

// TestQuickPerfectPredictionCeiling: a trace with no breaks incurs no
// penalties in any engine.
func TestQuickNoBreaksNoPenalties(t *testing.T) {
	b := newTB(0x1000)
	b.plain(500)
	tr := &trace.Trace{Name: "plain", Records: b.recs}
	engines := []*Frontend{
		NewNLSTableEngine(smallGeom(), 256, pht.NewGShare(512, 0), 8),
		NewNLSCacheEngine(smallGeom(), 2, pht.NewGShare(512, 0), 8),
		NewBTBEngine(smallGeom(), btb.Config{Entries: 32, Assoc: 1}, pht.NewGShare(512, 0), 8),
		NewCoupledBTBEngine(smallGeom(), btb.Config{Entries: 32, Assoc: 1}, 8),
		NewJohnsonEngine(smallGeom()),
	}
	for _, e := range engines {
		m := Run(e, tr)
		if m.Misfetches != 0 || m.Mispredicts != 0 || m.Breaks != 0 {
			t.Errorf("%s: penalties on a branch-free trace", e.Name())
		}
	}
}

// TestQuickCacheGeometryIndifferenceForBTB: the decoupled BTB's penalty
// counters are identical across arbitrary cache geometries for any trace.
func TestQuickBTBGeometryIndifference(t *testing.T) {
	geoms := []cache.Geometry{
		cache.MustGeometry(1024, 32, 1),
		cache.MustGeometry(4096, 32, 2),
		cache.MustGeometry(32*1024, 32, 4),
	}
	for seed := int64(200); seed < 210; seed++ {
		tr := randomTrace(seed, 400)
		var refMf, refMp uint64
		for i, g := range geoms {
			e := NewBTBEngine(g, btb.Config{Entries: 32, Assoc: 2}, pht.NewGShare(512, 0), 8)
			m := Run(e, tr)
			if i == 0 {
				refMf, refMp = m.Misfetches, m.Mispredicts
			} else if m.Misfetches != refMf || m.Mispredicts != refMp {
				t.Fatalf("seed %d: BTB penalties vary with cache geometry", seed)
			}
		}
	}
}
