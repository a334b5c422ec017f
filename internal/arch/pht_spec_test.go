package arch

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/isa"
)

// minimalPHT is a minimal sensible spec of each PHTKinds() kind.
func minimalPHT(kind string) PHTSpec {
	switch kind {
	case PHTKindTAGE:
		return TAGEPHT()
	case PHTKindGShare, PHTKindGAs, PHTKindBimodal, PHTKindOneBit:
		return PHTSpec{Kind: kind, Entries: 512}
	default: // static and none kinds carry no parameters
		return PHTSpec{Kind: kind}
	}
}

// TestPHTKindsCoverValidate keeps PHTKinds() (the -list/discoverability
// surface) in lockstep with PHTSpec.Validate (the acceptance surface): every
// listed kind must validate with a minimal sensible spec, and a kind outside
// the list must be rejected.
func TestPHTKindsCoverValidate(t *testing.T) {
	kinds := PHTKinds()
	if len(kinds) == 0 {
		t.Fatal("PHTKinds returned nothing")
	}
	seen := map[string]bool{}
	for _, k := range kinds {
		if seen[k] {
			t.Errorf("PHTKinds lists %q twice", k)
		}
		seen[k] = true
		s := minimalPHT(k)
		if err := s.Validate(); err != nil {
			t.Errorf("kind %q is listed but its minimal spec fails Validate: %v", k, err)
			continue
		}
		if _, err := s.Build(); err != nil {
			t.Errorf("kind %q validated but Build failed: %v", k, err)
		}
	}
	if !seen[PHTKindNone] || !seen[PHTKindTAGE] || !seen[PHTKindGShare] {
		t.Errorf("PHTKinds missing core kinds: %v", kinds)
	}
	if err := (PHTSpec{Kind: "nonsense"}).Validate(); err == nil {
		t.Error("Validate accepted a kind PHTKinds does not list")
	}
}

// TestTAGESpecValidate: the tage kind's own gate — hostile field mixes that
// must come back as errors, never panics, plus the happy path.
func TestTAGESpecValidate(t *testing.T) {
	ok := TAGEPHT()
	if err := ok.Validate(); err != nil {
		t.Fatalf("TAGEPHT rejected: %v", err)
	}
	mut := func(f func(*PHTSpec)) PHTSpec { s := TAGEPHT(); f(&s); return s }
	bad := []struct {
		name string
		s    PHTSpec
	}{
		{"history_bits on tage", mut(func(s *PHTSpec) { s.HistoryBits = 6 })},
		{"zero tables", mut(func(s *PHTSpec) { s.TageTables = 0 })},
		{"too many tables", mut(func(s *PHTSpec) { s.TageTables = 9 })},
		{"non-pow2 tagged entries", mut(func(s *PHTSpec) { s.TageEntries = 100 })},
		{"oversized tagged entries", mut(func(s *PHTSpec) { s.TageEntries = 1 << 30 })},
		{"oversized base", mut(func(s *PHTSpec) { s.Entries = 1 << 30 })},
		{"tag too narrow", mut(func(s *PHTSpec) { s.TageTagBits = 2 })},
		{"tag too wide", mut(func(s *PHTSpec) { s.TageTagBits = 20 })},
		{"min_hist zero", mut(func(s *PHTSpec) { s.TageMinHist = 0 })},
		{"min >= max hist", mut(func(s *PHTSpec) { s.TageMinHist = 64 })},
		{"max hist beyond cap", mut(func(s *PHTSpec) { s.TageMaxHist = 65 })},
		{"negative everything", mut(func(s *PHTSpec) {
			s.Entries, s.TageTables, s.TageEntries = -1, -1, -1
		})},
		{"tage fields on gshare", PHTSpec{Kind: PHTKindGShare, Entries: 512, TageTables: 4}},
		{"tage fields on none", PHTSpec{Kind: PHTKindNone, TageMaxHist: 64}},
	}
	for _, c := range bad {
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Errorf("%s: Validate panicked: %v", c.name, r)
				}
			}()
			if err := c.s.Validate(); err == nil {
				t.Errorf("%s: Validate accepted it", c.name)
			}
			// Satellite: a hostile spec reaching Build must error, not
			// panic a serve worker.
			if _, err := c.s.Build(); err == nil {
				t.Errorf("%s: Build accepted it", c.name)
			}
		}()
	}
}

// TestPHTSpecJSONStability: the Tage* fields are omitempty, so the JSON form
// of every pre-TAGE spec is byte-identical to before this change — the
// content-addressed result store's hashes (and warm-cache hits) survive the
// schema extension. A TAGE spec round-trips losslessly.
func TestPHTSpecJSONStability(t *testing.T) {
	legacy, err := json.Marshal(PaperPHT())
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(legacy), "tage") {
		t.Fatalf("legacy spec JSON mentions tage fields (hash instability): %s", legacy)
	}
	want := `{"kind":"gshare","entries":4096,"history_bits":6}`
	if string(legacy) != want {
		t.Fatalf("legacy spec JSON drifted:\n  got  %s\n  want %s", legacy, want)
	}

	enc, err := json.Marshal(TAGEPHT())
	if err != nil {
		t.Fatal(err)
	}
	var back PHTSpec
	if err := json.Unmarshal(enc, &back); err != nil {
		t.Fatal(err)
	}
	if back != TAGEPHT() {
		t.Fatalf("TAGE spec did not round-trip: %+v", back)
	}
}

// TestTAGERegistryArm: the registered h2p comparison arm exists, validates,
// builds, and is equal-cost against the paper gshare (within 1%).
func TestTAGERegistryArm(t *testing.T) {
	s, ok := Lookup("nls-table-1024-tage")
	if !ok {
		t.Fatal("nls-table-1024-tage not registered")
	}
	if err := s.Validate(); err != nil {
		t.Fatalf("registered tage arm invalid: %v", err)
	}
	d, err := s.PHT.Build()
	if err != nil {
		t.Fatalf("tage arm Build: %v", err)
	}
	g, err := PaperPHT().Build()
	if err != nil {
		t.Fatal(err)
	}
	tb, gb := d.SizeBits(), g.SizeBits()
	if diff := float64(tb-gb) / float64(gb); diff < -0.01 || diff > 0.01 {
		t.Fatalf("not equal-cost: tage %d bits vs gshare %d bits (%.2f%%)",
			tb, gb, 100*diff)
	}
	if name := d.Name(); !strings.Contains(name, "tage") {
		t.Fatalf("built predictor name %q does not identify tage", name)
	}
	_ = fmt.Sprintf("%v", s) // specs must be printable for -list
}

// TestPHTKindsProtocol: every PHTKinds() kind builds a predictor, "none"
// included, and every kind without speculative state ignores the
// protocol's read-only calls: a copy driven with Query and WrongPath calls
// mixed in predicts exactly like a copy driven by Predict and Resolve
// alone, and Query returns Predict's direction. TAGE's speculative history
// is pinned by its own purity and repair tests in package pht.
func TestPHTKindsProtocol(t *testing.T) {
	for _, k := range PHTKinds() {
		plain, err := minimalPHT(k).Build()
		if err != nil || plain == nil {
			t.Fatalf("kind %q: Build returned (%v, %v), want a predictor", k, plain, err)
		}
		if k == PHTKindTAGE {
			continue
		}
		mixed, _ := minimalPHT(k).Build()
		rng := rand.New(rand.NewSource(7))
		addr := func() isa.Addr { return isa.Addr(0x1000 + uint32(rng.Intn(300))*4) }
		for i := 0; i < 5000; i++ {
			for j := rng.Intn(3); j > 0; j-- {
				mixed.Query(addr())
				mixed.WrongPath(addr())
			}
			pc, taken := addr(), rng.Intn(2) == 0
			q := mixed.Query(pc)
			want, wtok := plain.Predict(pc)
			got, gtok := mixed.Predict(pc)
			if got != want || q != got {
				t.Fatalf("kind %q step %d: Predict %v (Query %v) with reads mixed in, %v without", k, i, got, q, want)
			}
			plain.Resolve(pc, wtok, taken)
			mixed.Resolve(pc, gtok, taken)
		}
	}
}
