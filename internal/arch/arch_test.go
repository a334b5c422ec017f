package arch

import (
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"repro/internal/btb"
	"repro/internal/cache"
	"repro/internal/fetch"
	"repro/internal/pht"
	"repro/internal/workload"
)

// TestRegistryRoundTrip: every registered spec survives JSON encode →
// decode → Build. The decoded value must equal the original field for
// field (the wire format is lossless) and must build an engine with the
// same display name as one built from the original.
func TestRegistryRoundTrip(t *testing.T) {
	names := Names()
	if len(names) == 0 {
		t.Fatal("registry is empty")
	}
	for _, name := range names {
		s, ok := Lookup(name)
		if !ok {
			t.Fatalf("Names() listed %q but Lookup missed", name)
		}
		buf, err := json.Marshal(s)
		if err != nil {
			t.Fatalf("%s: marshal: %v", name, err)
		}
		var decoded Spec
		if err := json.Unmarshal(buf, &decoded); err != nil {
			t.Fatalf("%s: unmarshal: %v", name, err)
		}
		if !reflect.DeepEqual(s, decoded) {
			t.Fatalf("%s: round trip lost information:\n  in  %+v\n  out %+v", name, s, decoded)
		}
		e, err := decoded.Build()
		if err != nil {
			t.Fatalf("%s: decoded spec does not build: %v", name, err)
		}
		if want := s.MustBuild().Name(); e.Name() != want {
			t.Fatalf("%s: decoded engine %q, original %q", name, e.Name(), want)
		}
	}
}

// TestSpecBuildMatchesHandWired: a spec-built engine is counter-for-counter
// identical to the same architecture wired by hand through the fetch
// constructors — the registry is a description, not a different machine.
// Every predictor kind is checked with wrong-path pollution off and on, so
// Build's single pollution switch reaches every kind.
func TestSpecBuildMatchesHandWired(t *testing.T) {
	tr, err := workload.Espresso().Trace(100_000)
	if err != nil {
		t.Fatal(err)
	}
	g := cache.MustGeometry(16*1024, LineBytes, 1)
	gshare := func() pht.Predictor { return pht.NewGShare(PHTEntries, PHTHistoryBits) }
	hand := func() []*fetch.Frontend {
		return []*fetch.Frontend{
			fetch.NewNLSTableEngine(g, 1024, gshare(), 32),
			fetch.NewNLSCacheEngine(g, 2, gshare(), 32),
			fetch.NewBTBEngine(g, btb.Config{Entries: 128, Assoc: 1}, gshare(), 32),
			fetch.NewCoupledBTBEngine(g, btb.Config{Entries: 128, Assoc: 1}, 32),
			fetch.NewJohnsonEngine(g),
			fetch.NewHybridEngine(g, 512, btb.Config{Entries: 64, Assoc: 1}, gshare(), 32),
		}
	}
	specs := []Spec{
		NLSTable(1024), NLSCache(2), BTB(128, 1), CoupledBTB(128, 1), Johnson(),
		Hybrid(512, 64, 1),
	}
	for _, pollution := range []bool{false, true} {
		wired := hand()
		for i, s := range specs {
			wired[i].SetWrongPathPollution(pollution)
			s.Pollution = pollution
			mh := fetch.Run(wired[i], tr)
			ms := fetch.Run(s.MustBuild(), tr)
			if *mh != *ms {
				t.Errorf("%s (pollution %v): spec-built counters diverge from hand-wired\n spec %+v\n hand %+v",
					wired[i].Name(), pollution, *ms, *mh)
			}
		}
	}
}

// TestValidateRejects: malformed specs fail Validate with a diagnostic.
func TestValidateRejects(t *testing.T) {
	paperC := CacheSpec{SizeBytes: 16 * 1024, LineBytes: LineBytes, Assoc: 1}
	cases := []struct {
		name string
		s    Spec
		want string
	}{
		{"unknown kind",
			Spec{Predictor: PredictorSpec{Kind: "oracle"}, Cache: paperC},
			"unknown predictor kind"},
		{"nls-table without entries",
			Spec{Predictor: PredictorSpec{Kind: KindNLSTable}, Cache: paperC, PHT: PaperPHT()},
			"power of two"},
		{"nls-cache without per_line",
			Spec{Predictor: PredictorSpec{Kind: KindNLSCache}, Cache: paperC, PHT: PaperPHT()},
			"must divide"},
		{"decoupled without PHT",
			Spec{Predictor: PredictorSpec{Kind: KindNLSTable, Entries: 512}, Cache: paperC},
			"needs a PHT"},
		{"coupled with PHT",
			Spec{Predictor: PredictorSpec{Kind: KindJohnson}, Cache: paperC, PHT: PaperPHT()},
			"must be \"none\""},
		{"bad cache geometry",
			Spec{Predictor: PredictorSpec{Kind: KindJohnson},
				Cache: CacheSpec{SizeBytes: 1000, LineBytes: 48, Assoc: 1}},
			""},
	}
	for _, c := range cases {
		err := c.s.Validate()
		if err == nil {
			t.Errorf("%s: Validate accepted an invalid spec", c.name)
			continue
		}
		if c.want != "" && !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %q does not mention %q", c.name, err, c.want)
		}
	}
}

// TestValidateUntrustedNeverPanics: Validate is the gate between untrusted
// JSON (the sweep service's job decoder) and Build, whose constructors
// panic on bad sizes. Every malformed or adversarial spec here must come
// back as an error — never a panic — and anything Validate accepts must
// then Build without panicking.
func TestValidateUntrustedNeverPanics(t *testing.T) {
	paperC := CacheSpec{SizeBytes: 16 * 1024, LineBytes: LineBytes, Assoc: 1}
	adversarial := []struct {
		name string
		s    Spec
	}{
		{"non-pow2 nls-table", Spec{Predictor: PredictorSpec{Kind: KindNLSTable, Entries: 3},
			Cache: paperC, PHT: PaperPHT()}},
		{"oversized nls-table", Spec{Predictor: PredictorSpec{Kind: KindNLSTable, Entries: 1 << 30},
			Cache: paperC, PHT: PaperPHT()}},
		{"negative nls-table", Spec{Predictor: PredictorSpec{Kind: KindNLSTable, Entries: -1024},
			Cache: paperC, PHT: PaperPHT()}},
		{"per_line not dividing the line", Spec{Predictor: PredictorSpec{Kind: KindNLSCache, PerLine: 3},
			Cache: paperC, PHT: PaperPHT()}},
		{"per_line beyond the line", Spec{Predictor: PredictorSpec{Kind: KindNLSCache, PerLine: 1 << 20},
			Cache: paperC, PHT: PaperPHT()}},
		{"non-pow2 pht", Spec{Predictor: PredictorSpec{Kind: KindNLSTable, Entries: 512},
			Cache: paperC, PHT: PHTSpec{Kind: "gshare", Entries: 3000}}},
		{"oversized pht", Spec{Predictor: PredictorSpec{Kind: KindNLSTable, Entries: 512},
			Cache: paperC, PHT: PHTSpec{Kind: "bimodal", Entries: 1 << 30}}},
		{"negative history bits", Spec{Predictor: PredictorSpec{Kind: KindNLSTable, Entries: 512},
			Cache: paperC, PHT: PHTSpec{Kind: "gshare", Entries: 4096, HistoryBits: -7}}},
		{"oversized cache", Spec{Predictor: PredictorSpec{Kind: KindJohnson},
			Cache: CacheSpec{SizeBytes: 1 << 30, LineBytes: LineBytes, Assoc: 1}}},
		{"oversized ras", Spec{Predictor: PredictorSpec{Kind: KindJohnson},
			Cache: paperC, RASDepth: 1 << 24}},
		{"oversized btb", Spec{Predictor: PredictorSpec{Kind: KindBTB, Entries: 1 << 30, Assoc: 1},
			Cache: paperC, PHT: PaperPHT()}},
		{"oversized hybrid btb half", Spec{Predictor: PredictorSpec{Kind: KindHybrid, Entries: 512,
			BTBEntries: 1 << 30, BTBAssoc: 1}, Cache: paperC, PHT: PaperPHT()}},
	}
	for _, c := range adversarial {
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Errorf("%s: Validate panicked: %v", c.name, r)
				}
			}()
			if err := c.s.Validate(); err == nil {
				t.Errorf("%s: Validate accepted an adversarial spec", c.name)
			}
		}()
	}

	// Large-but-legal specs at the caps must still validate and build: the
	// bounds protect the service without shrinking the roadmap's sweep
	// space (multi-MB predictors, 256KB+ caches).
	big := Spec{
		Predictor: PredictorSpec{Kind: KindNLSTable, Entries: 1 << 18},
		Cache:     CacheSpec{SizeBytes: 256 * 1024, LineBytes: LineBytes, Assoc: 4},
		PHT:       PaperPHT(),
	}
	if err := big.Validate(); err != nil {
		t.Fatalf("capped-range spec rejected: %v", err)
	}
	if _, err := big.Build(); err != nil {
		t.Fatalf("capped-range spec does not build: %v", err)
	}
}

// TestRegisterPanics: duplicate and invalid registrations fail loudly at
// init time rather than silently shadowing a paper configuration.
func TestRegisterPanics(t *testing.T) {
	mustPanic := func(name string, f func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s: Register did not panic", name)
			}
		}()
		f()
	}
	mustPanic("duplicate", func() { Register("nls-table-1024", NLSTable(1024)) })
	mustPanic("invalid", func() {
		Register("broken", Spec{Predictor: PredictorSpec{Kind: "oracle"}})
	})
}
