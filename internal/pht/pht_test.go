package pht

import (
	"testing"
	"testing/quick"

	"repro/internal/isa"
)

// train runs a predictor through the protocol at one site — Predict, then
// Resolve with the architectural outcome, as the frontend does — and
// returns the accuracy over the final pass.
func train(p Predictor, pc isa.Addr, pattern []bool, passes int) float64 {
	for i := 0; i < passes-1; i++ {
		for _, taken := range pattern {
			_, tok := p.Predict(pc)
			p.Resolve(pc, tok, taken)
		}
	}
	correct := 0
	for _, taken := range pattern {
		pred, tok := p.Predict(pc)
		if pred == taken {
			correct++
		}
		p.Resolve(pc, tok, taken)
	}
	return float64(correct) / float64(len(pattern))
}

func TestBimodalLearnsBias(t *testing.T) {
	b := NewBimodal(1024)
	pat := []bool{true, true, true, true, true, true, true, false}
	if acc := train(b, 0x1000, pat, 10); acc < 0.8 {
		t.Errorf("bimodal accuracy on 7/8 biased = %v", acc)
	}
}

func TestBimodalAlternatingIsHard(t *testing.T) {
	b := NewBimodal(1024)
	// Alternating outcomes defeat a 2-bit counter — this is exactly why
	// trip-2 loop backedges are catastrophic for per-address predictors.
	if acc := train(b, 0x1000, []bool{true, false}, 50); acc > 0.6 {
		t.Errorf("bimodal should not learn alternation, got %v", acc)
	}
}

func TestGShareLearnsAlternating(t *testing.T) {
	g := NewGShare(4096, 0)
	if acc := train(g, 0x1000, []bool{true, false}, 50); acc != 1 {
		t.Errorf("gshare accuracy on alternating = %v, want 1", acc)
	}
}

func TestGShareLearnsLoopExit(t *testing.T) {
	g := NewGShare(4096, 0)
	// A trip-6 loop backedge: five takens then one not-taken. With its
	// own history in the register, gshare learns the exit exactly.
	pat := []bool{true, true, true, true, true, false}
	if acc := train(g, 0x1000, pat, 60); acc != 1 {
		t.Errorf("gshare accuracy on trip-6 loop = %v, want 1", acc)
	}
}

func TestGAsLearnsGlobalPattern(t *testing.T) {
	g := NewGAs(4096)
	pat := []bool{true, true, false, true, false, false}
	if acc := train(g, 0x1000, pat, 80); acc != 1 {
		t.Errorf("GAs accuracy on periodic pattern = %v, want 1", acc)
	}
}

func TestOneBitTracksLastOutcome(t *testing.T) {
	o := NewOneBit(256)
	pc := isa.Addr(0x1000)
	o.Resolve(pc, 0, true)
	if !o.Query(pc) {
		t.Error("one-bit did not follow taken")
	}
	o.Resolve(pc, 0, false)
	if o.Query(pc) {
		t.Error("one-bit did not follow not-taken")
	}
}

func TestStatic(t *testing.T) {
	if !(Static{Taken: true}).Query(0x1000) {
		t.Error("static-taken predicted not-taken")
	}
	if (Static{}).Query(0x1000) {
		t.Error("static-not-taken predicted taken")
	}
	if (Static{Taken: true}).Name() != "static-taken" || (Static{}).Name() != "static-not-taken" {
		t.Error("static names wrong")
	}
}

func TestCounterSaturation(t *testing.T) {
	c := uint8(counterInit)
	for i := 0; i < 10; i++ {
		c = counterUpdate(c, true)
	}
	if c != 3 {
		t.Errorf("counter did not saturate at 3: %d", c)
	}
	for i := 0; i < 10; i++ {
		c = counterUpdate(c, false)
	}
	if c != 0 {
		t.Errorf("counter did not saturate at 0: %d", c)
	}
}

// TestCountersStayInRange is a property test over random update sequences.
func TestCountersStayInRange(t *testing.T) {
	f := func(pcs []uint16, outcomes []bool) bool {
		g := NewGShare(256, 0)
		b := NewBimodal(256)
		for i, pc := range pcs {
			taken := i < len(outcomes) && outcomes[i]
			a := isa.Addr(pc) &^ 3
			g.Resolve(a, 0, taken)
			b.Resolve(a, 0, taken)
		}
		for _, c := range g.table {
			if c > 3 {
				return false
			}
		}
		for _, c := range b.table {
			if c > 3 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestHistoryBitsClamped(t *testing.T) {
	g := NewGShare(4096, 99)
	if g.histBits != 12 {
		t.Errorf("history bits = %d, want clamped to 12", g.histBits)
	}
	g = NewGShare(4096, 6)
	if g.histBits != 6 {
		t.Errorf("history bits = %d, want 6", g.histBits)
	}
}

func TestSizeBits(t *testing.T) {
	if got := NewGShare(4096, 12).SizeBits(); got != 2*4096+12 {
		t.Errorf("gshare SizeBits = %d", got)
	}
	if got := NewBimodal(4096).SizeBits(); got != 8192 {
		t.Errorf("bimodal SizeBits = %d", got)
	}
	if got := NewOneBit(1024).SizeBits(); got != 1024 {
		t.Errorf("one-bit SizeBits = %d", got)
	}
	if got := (Static{}).SizeBits(); got != 0 {
		t.Errorf("static SizeBits = %d", got)
	}
}

func TestReset(t *testing.T) {
	g := NewGShare(256, 0)
	for i := 0; i < 100; i++ {
		g.Resolve(0x1000, 0, true)
	}
	g.Reset()
	if g.history != 0 {
		t.Error("history survived reset")
	}
	for _, c := range g.table {
		if c != counterInit {
			t.Fatal("counters not reinitialized")
		}
	}
}

func TestBadEntriesPanics(t *testing.T) {
	for _, n := range []int{0, -4, 3, 100} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("entries=%d did not panic", n)
				}
			}()
			NewBimodal(n)
		}()
	}
}

func TestPredictorsAreIndependentAcrossSites(t *testing.T) {
	b := NewBimodal(1024)
	b.Resolve(0x1004, 0, true)
	b.Resolve(0x1004, 0, true)
	// A different, non-aliasing address (word index 2 vs 1 mod 1024) is
	// unaffected.
	if b.Query(0x1008) {
		t.Error("training leaked across non-aliasing sites")
	}
}

// TestCheckEntriesErrors: the validated-error seam that replaced the
// constructor panic (a hostile spec is rejected with these errors before
// any constructor runs).
func TestCheckEntriesErrors(t *testing.T) {
	for _, bad := range []int{0, -1, -8, 3, 513, 1<<62 + 1} {
		if err := CheckEntries(bad); err == nil {
			t.Errorf("CheckEntries(%d) accepted", bad)
		}
	}
	for _, good := range []int{1, 2, 512, 1 << 20} {
		if err := CheckEntries(good); err != nil {
			t.Errorf("CheckEntries(%d): %v", good, err)
		}
	}
	// The direct constructors still guard programming errors, now with
	// the validated error as the panic value.
	defer func() {
		if recover() == nil {
			t.Fatal("NewGShare(513) did not panic")
		}
	}()
	NewGShare(513, 0)
}
