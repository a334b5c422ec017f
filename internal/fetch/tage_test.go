package fetch

import (
	"testing"

	"repro/internal/btb"
	"repro/internal/isa"
	"repro/internal/pht"
)

// testTAGE builds a small protocol-native direction predictor for the
// frontend property tests. A fresh instance per engine: direction state is
// engine-private, exactly like the gshare instances in quick_test.go.
func testTAGE() *pht.TAGE {
	return pht.MustTAGE(pht.TAGEConfig{
		BaseEntries: 128, Tables: 4, Entries: 64, TagBits: 9, MinHist: 4, MaxHist: 64,
	})
}

// TestTAGEFrontendStepBlockEquivalence: StepBlock is defined as exactly
// per-record Step, and that must survive a direction predictor with
// speculative state — whose checkpoint/repair interleaves with every
// break — including under wrong-path pollution, where the frontend also
// feeds WrongPath excursions into the history. Run for the decoupled
// engines on both the NLS and BTB sides.
func TestTAGEFrontendStepBlockEquivalence(t *testing.T) {
	mk := []func() *Frontend{
		func() *Frontend { return NewNLSTableEngine(smallGeom(), 256, testTAGE(), 8) },
		func() *Frontend { return NewNLSCacheEngine(smallGeom(), 2, testTAGE(), 8) },
		func() *Frontend {
			return NewBTBEngine(smallGeom(), btb.Config{Entries: 32, Assoc: 2}, testTAGE(), 8)
		},
		func() *Frontend {
			return NewHybridEngine(smallGeom(), 128, btb.Config{Entries: 16, Assoc: 1}, testTAGE(), 8)
		},
	}
	for _, pollute := range []bool{false, true} {
		for seed := int64(700); seed < 712; seed++ {
			tr := randomTrace(seed, 400)
			for _, f := range mk {
				stepped := f()
				stepped.SetWrongPathPollution(pollute)
				for _, r := range tr.Records {
					stepped.Step(r)
				}
				blocked := f()
				blocked.SetWrongPathPollution(pollute)
				blocked.StepBlock(tr.Records)
				if *stepped.Counters() != *blocked.Counters() {
					t.Fatalf("seed %d %s pollution=%v: StepBlock diverges from Step:\n  step  %+v\n  block %+v",
						seed, stepped.Name(), pollute, *stepped.Counters(), *blocked.Counters())
				}
			}
		}
	}
}

// TestTAGEFrontendInvariantsAndDeterminism: the accounting invariants of
// TestQuickEngineInvariants hold for a TAGE-armed frontend, and two
// identical engines replay identically (the predictor's deterministic
// allocation contract, end to end).
func TestTAGEFrontendInvariantsAndDeterminism(t *testing.T) {
	for seed := int64(800); seed < 815; seed++ {
		tr := randomTrace(seed, 500)
		mk := func() *Frontend { return NewNLSTableEngine(smallGeom(), 256, testTAGE(), 8) }
		a := mk()
		ma := Run(a, tr)
		if ma.Misfetches+ma.Mispredicts > ma.Breaks {
			t.Fatalf("seed %d: penalties exceed breaks", seed)
		}
		if ma.CondDirWrong > ma.CondBranches {
			t.Fatalf("seed %d: dir-wrong exceeds conds", seed)
		}
		var mfSum, mpSum uint64
		for k := isa.Kind(0); k < isa.NumKinds; k++ {
			mfSum += ma.MisfetchByKind[k]
			mpSum += ma.MispredictByKind[k]
		}
		if mfSum != ma.Misfetches || mpSum != ma.Mispredicts {
			t.Fatalf("seed %d: per-kind sums inconsistent", seed)
		}
		b := mk()
		if mb := Run(b, tr); *ma != *mb {
			t.Fatalf("seed %d: nondeterministic TAGE replay", seed)
		}
	}
}

// TestTAGEDirectionAgreement: the decoupled NLS and BTB engines agree
// exactly on conditional direction outcomes when both carry a TAGE arm —
// i.e. the frontend drives the protocol (Predict/Query/Resolve/WrongPath)
// in an architecture-independent sequence, the §5.1 methodological
// requirement the gshare version of this test pins.
func TestTAGEDirectionAgreement(t *testing.T) {
	for seed := int64(900); seed < 912; seed++ {
		tr := randomTrace(seed, 500)
		nls := NewNLSTableEngine(smallGeom(), 256, testTAGE(), 8)
		bt := NewBTBEngine(smallGeom(), btb.Config{Entries: 32, Assoc: 1}, testTAGE(), 8)
		mn := Run(nls, tr)
		mb := Run(bt, tr)
		if mn.CondDirWrong != mb.CondDirWrong || mn.CondBranches != mb.CondBranches {
			t.Fatalf("seed %d: TAGE direction streams diverge (%d/%d vs %d/%d)",
				seed, mn.CondDirWrong, mn.CondBranches, mb.CondDirWrong, mb.CondBranches)
		}
	}
}

// TestTAGEFrontendReset: Reset returns a TAGE-armed engine to cold state —
// a second run replays the first bit-identically.
func TestTAGEFrontendReset(t *testing.T) {
	tr := randomTrace(42, 600)
	e := NewNLSTableEngine(smallGeom(), 256, testTAGE(), 8)
	first := *Run(e, tr)
	e.Reset()
	second := *Run(e, tr)
	if first != second {
		t.Fatalf("Reset did not restore cold state:\n  first  %+v\n  second %+v", first, second)
	}
}
