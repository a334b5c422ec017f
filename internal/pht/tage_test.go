package pht

import (
	"strings"
	"testing"

	"repro/internal/isa"
)

// smallTAGE is the unit-test configuration: small tables so allocation
// pressure is visible, full-range geometric history.
func smallTAGE() TAGEConfig {
	return TAGEConfig{BaseEntries: 128, Tables: 4, Entries: 64, TagBits: 9, MinHist: 4, MaxHist: 64}
}

func TestTAGEConfigValidate(t *testing.T) {
	if err := smallTAGE().Validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	bad := []struct {
		name string
		mod  func(*TAGEConfig)
	}{
		{"base not pow2", func(c *TAGEConfig) { c.BaseEntries = 127 }},
		{"base zero", func(c *TAGEConfig) { c.BaseEntries = 0 }},
		{"base negative", func(c *TAGEConfig) { c.BaseEntries = -8 }},
		{"base over cap", func(c *TAGEConfig) { c.BaseEntries = MaxTAGEEntries * 2 }},
		{"entries not pow2", func(c *TAGEConfig) { c.Entries = 65 }},
		{"entries huge", func(c *TAGEConfig) { c.Entries = 1 << 40 }},
		{"no tables", func(c *TAGEConfig) { c.Tables = 0 }},
		{"too many tables", func(c *TAGEConfig) { c.Tables = MaxTAGETables + 1 }},
		{"tag too narrow", func(c *TAGEConfig) { c.TagBits = MinTAGETagBits - 1 }},
		{"tag too wide", func(c *TAGEConfig) { c.TagBits = MaxTAGETagBits + 1 }},
		{"zero min hist", func(c *TAGEConfig) { c.MinHist = 0 }},
		{"inverted hist", func(c *TAGEConfig) { c.MinHist = 32; c.MaxHist = 8 }},
		{"hist over register", func(c *TAGEConfig) { c.MaxHist = MaxTAGEHistory + 1 }},
		{"flat hist multi-table", func(c *TAGEConfig) { c.MinHist = 8; c.MaxHist = 8 }},
	}
	for _, tc := range bad {
		cfg := smallTAGE()
		tc.mod(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("%s: accepted %+v", tc.name, cfg)
		}
		if _, err := NewTAGE(cfg); err == nil {
			t.Errorf("%s: NewTAGE accepted %+v", tc.name, cfg)
		}
	}
}

func TestTAGEHistLensGeometricAndIncreasing(t *testing.T) {
	cfg := smallTAGE()
	lens := MustTAGE(cfg).HistLens()
	if len(lens) != cfg.Tables {
		t.Fatalf("got %d lengths for %d tables", len(lens), cfg.Tables)
	}
	if lens[0] != cfg.MinHist || lens[len(lens)-1] != cfg.MaxHist {
		t.Fatalf("lengths %v do not span [%d, %d]", lens, cfg.MinHist, cfg.MaxHist)
	}
	for i := 1; i < len(lens); i++ {
		if lens[i] <= lens[i-1] {
			t.Fatalf("lengths %v not strictly increasing", lens)
		}
	}
}

func TestTAGESizeBits(t *testing.T) {
	cfg := smallTAGE()
	want := 2*128 + 4*64*(9+3+2) + 64
	if got := MustTAGE(cfg).SizeBits(); got != want {
		t.Fatalf("SizeBits = %d, want %d", got, want)
	}
}

// TestTAGELearnsLongLoopExit: the payoff behind the whole predictor. A
// trip-24 loop backedge needs ≥24 outcomes of history to pin the exit
// phase; a 6-bit-history gshare cannot separate the exit from the 23 taken
// iterations, TAGE's long tables can.
func TestTAGELearnsLongLoopExit(t *testing.T) {
	pat := make([]bool, 24)
	for i := range pat {
		pat[i] = i != 23
	}
	tg := MustTAGE(smallTAGE())
	if acc := train(tg, 0x1000, pat, 80); acc != 1 {
		t.Errorf("TAGE accuracy on trip-24 loop = %v, want 1", acc)
	}
	g := NewGShare(4096, 6)
	if acc := train(g, 0x1000, pat, 80); acc == 1 {
		t.Errorf("6-bit gshare should not fully learn a trip-24 loop (control for the claim above)")
	}
}

// TestTAGECheckpointRepairOnMispredict: a wrong speculative bit must be
// replaced by the actual outcome, leaving the history exactly as if the
// prediction had been right all along.
func TestTAGECheckpointRepairOnMispredict(t *testing.T) {
	tg := MustTAGE(smallTAGE())
	pc := isa.Addr(0x2000)
	// Drive a deterministic outcome stream; after every Resolve the
	// speculative history must equal the architectural outcome history.
	var arch uint64
	outcomes := []bool{true, true, false, true, false, false, true, false, true, true}
	for pass := 0; pass < 50; pass++ {
		for _, taken := range outcomes {
			_, tok := tg.Predict(pc)
			tg.Resolve(pc, tok, taken)
			arch = arch<<1 | b2u(taken)
			if tg.hist != arch {
				t.Fatalf("pass %d: speculative history %b diverged from architectural %b", pass, tg.hist, arch)
			}
		}
	}
}

func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// TestTAGEPendingResolveSequences: overlapped speculation — two Predicts in
// flight, resolved in order. A correct first resolve must not clobber the
// second prediction's speculative bit; a wrong first resolve must squash
// it (the second branch was wrong-path).
func TestTAGEPendingResolveSequences(t *testing.T) {
	pcA, pcB := isa.Addr(0x3000), isa.Addr(0x3100)

	tg := MustTAGE(smallTAGE())
	predA, tokA := tg.Predict(pcA)
	predB, tokB := tg.Predict(pcB)
	histBoth := tg.hist
	// Resolve A correctly: B's speculative bit stays in place.
	tg.Resolve(pcA, tokA, predA)
	if tg.hist != histBoth {
		t.Fatalf("correct resolve clobbered in-flight speculation: %b -> %b", histBoth, tg.hist)
	}
	tg.Resolve(pcB, tokB, predB)
	if tg.hist != histBoth {
		t.Fatalf("correct second resolve changed history: %b -> %b", histBoth, tg.hist)
	}

	tg.Reset()
	_, tokA = tg.Predict(pcA)
	tg.Predict(pcB)
	ckHist := tg.ckpt[tokA%tageCkptRing].hist
	// Resolve A as a mispredict: history rewinds to A's checkpoint plus
	// the actual outcome — B's speculative bit is squashed.
	actual := !tg.ckpt[tokA%tageCkptRing].predTaken
	tg.Resolve(pcA, tokA, actual)
	want := ckHist<<1 | b2u(actual)
	if tg.hist != want {
		t.Fatalf("mispredict repair: history %b, want %b", tg.hist, want)
	}
}

// TestTAGEWrongPathPoisonAndRepair: WrongPath corrupts the speculative
// history; the pending Resolve (mispredict recovery) or the next Predict
// (fetch redirect) must restore it exactly.
func TestTAGEWrongPathPoisonAndRepair(t *testing.T) {
	tg := MustTAGE(smallTAGE())
	pc := isa.Addr(0x4000)

	// Warm some history in.
	for i := 0; i < 40; i++ {
		_, tok := tg.Predict(pc)
		tg.Resolve(pc, tok, i%3 != 0)
	}

	// Case 1: poison between Predict and Resolve — Resolve repairs, even
	// when the direction guess itself was right.
	pred, tok := tg.Predict(pc)
	clean := tg.hist
	tg.WrongPath(0x5000)
	tg.WrongPath(0x5004)
	if tg.hist == clean {
		t.Fatal("WrongPath did not perturb speculative history")
	}
	tg.Resolve(pc, tok, pred) // correct prediction, poisoned history
	if tg.hist != clean {
		t.Fatalf("resolve did not repair poison: %b, want %b", tg.hist, clean)
	}

	// Case 2: poison with no conditional in flight (a wrong non-cond
	// break) — the next Predict unwinds it before reading the tables.
	before := tg.hist
	tg.WrongPath(0x6000)
	tg.WrongPath(0x6004)
	tg.WrongPath(0x6008)
	predPoisoned, tok2 := tg.Predict(pc)
	if got := tg.ckpt[tok2%tageCkptRing].hist; got != before {
		t.Fatalf("Predict did not unwind poison: checkpointed %b, want %b", got, before)
	}
	tg.Resolve(pc, tok2, predPoisoned)

	// Query reads through whatever is currently speculative (it is a
	// pure read), but must never mutate state.
	h := tg.hist
	seq := tg.seq
	tg.Query(pc)
	if tg.hist != h || tg.seq != seq {
		t.Fatal("Query mutated predictor state")
	}
}

// TestTAGEStaleTokenDegradesGracefully: a Resolve whose checkpoint has been
// recycled must train conservatively and never panic or repair from a
// mismatched checkpoint.
func TestTAGEStaleTokenDegradesGracefully(t *testing.T) {
	tg := MustTAGE(smallTAGE())
	pc := isa.Addr(0x7000)
	_, stale := tg.Predict(pc)
	// Overrun the checkpoint ring.
	for i := 0; i < tageCkptRing+4; i++ {
		_, tok := tg.Predict(pc + isa.Addr(4*i))
		tg.Resolve(pc+isa.Addr(4*i), tok, true)
	}
	h := tg.hist
	tg.Resolve(pc, stale, false) // stale: must not rewind history
	if tg.hist != h {
		t.Fatalf("stale resolve rewound history: %b -> %b", h, tg.hist)
	}
	// Resolving with a never-issued token is equally harmless.
	tg.Resolve(pc, Token(999999), true)
}

// TestTAGEAllocationPressure: irreducibly random branches mispredict
// forever; they must not monopolize the tagged tables. After heavy traffic
// the usefulness discipline must leave entries allocatable (some u == 0),
// and deterministic replay must hold.
func TestTAGEDeterministicReplay(t *testing.T) {
	run := func() uint64 {
		tg := MustTAGE(smallTAGE())
		var sig uint64
		rng := uint32(0x9e3779b9)
		for i := 0; i < 20000; i++ {
			rng = rng*1664525 + 1013904223
			pc := isa.Addr(0x1000 + (rng>>8)%257*4)
			taken := rng&7 != 0 && (rng>>12)&1 == 1
			pred, tok := tg.Predict(pc)
			if pred {
				sig = sig*3 + 1
			}
			if rng&15 == 0 {
				tg.WrongPath(isa.Addr(rng))
			}
			tg.Resolve(pc, tok, taken)
			sig = sig*31 + tg.hist
		}
		return sig
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("replays diverged: %#x vs %#x", a, b)
	}
}

func TestTAGEResetRestoresColdState(t *testing.T) {
	tg := MustTAGE(smallTAGE())
	cold := tg.Query(0x1000)
	for i := 0; i < 500; i++ {
		_, tok := tg.Predict(0x1000)
		tg.Resolve(0x1000, tok, true)
	}
	tg.Reset()
	if tg.hist != 0 || tg.seq != 0 || tg.poisonDepth != 0 {
		t.Fatal("Reset left speculative state behind")
	}
	if got := tg.Query(0x1000); got != cold {
		t.Fatalf("post-Reset prediction %v differs from cold %v", got, cold)
	}
}

func TestTAGEName(t *testing.T) {
	name := MustTAGE(smallTAGE()).Name()
	if !strings.HasPrefix(name, "tage-") {
		t.Fatalf("name %q does not identify the scheme", name)
	}
}
