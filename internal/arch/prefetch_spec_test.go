package arch

import (
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/cache"
	"repro/internal/fetch"
	"repro/internal/pht"
	"repro/internal/trace"
	"repro/internal/workload"
)

// TestPrefetchKindsCoverValidate keeps PrefetchKinds() (the -list surface)
// in lockstep with PrefetchSpec.Validate (the acceptance surface): every
// listed kind must validate with a minimal sensible spec and build on a
// registered base arch, and a kind outside the list must be rejected.
func TestPrefetchKindsCoverValidate(t *testing.T) {
	minimal := func(kind string) PrefetchSpec {
		if kind == PrefKindFDIP {
			return PrefetchSpec{Kind: kind, FTQDepth: 8}
		}
		return PrefetchSpec{Kind: kind}
	}
	kinds := PrefetchKinds()
	if len(kinds) == 0 {
		t.Fatal("PrefetchKinds returned nothing")
	}
	seen := map[string]bool{}
	for _, k := range kinds {
		if seen[k] {
			t.Errorf("PrefetchKinds lists %q twice", k)
		}
		seen[k] = true
		p := minimal(k)
		if err := p.Validate(); err != nil {
			t.Errorf("kind %q is listed but its minimal spec fails Validate: %v", k, err)
			continue
		}
		s := NLSTable(1024)
		s.Prefetch = &p
		if err := s.Validate(); err != nil {
			t.Errorf("kind %q: full spec fails Validate: %v", k, err)
			continue
		}
		e, err := s.Build()
		if err != nil {
			t.Errorf("kind %q validated but Build failed: %v", k, err)
			continue
		}
		if !strings.Contains(e.Name(), k) {
			t.Errorf("kind %q: engine name %q does not surface the prefetcher", k, e.Name())
		}
	}
	if !seen[PrefKindNextLine] || !seen[PrefKindFDIP] {
		t.Errorf("PrefetchKinds missing core kinds: %v", kinds)
	}
	if err := (PrefetchSpec{Kind: "nonsense"}).Validate(); err == nil {
		t.Error("Validate accepted a kind PrefetchKinds does not list")
	}
}

// TestPrefetchSpecValidate: hostile field mixes must come back as errors —
// never panics — through both the coupled- and decoupled-direction paths of
// Spec.Validate, and meaningless fields are rejected rather than ignored.
func TestPrefetchSpecValidate(t *testing.T) {
	mut := func(f func(*PrefetchSpec)) PrefetchSpec {
		p := PrefetchSpec{Kind: PrefKindFDIP, FTQDepth: 8}
		f(&p)
		return p
	}
	bad := []struct {
		name string
		p    PrefetchSpec
		want string
	}{
		{"empty kind", PrefetchSpec{}, "unknown prefetch kind"},
		{"unknown kind", PrefetchSpec{Kind: "stream"}, "unknown prefetch kind"},
		{"fdip without ftq", mut(func(p *PrefetchSpec) { p.FTQDepth = 0 }), "ftq_depth"},
		{"fdip oversized ftq", mut(func(p *PrefetchSpec) { p.FTQDepth = MaxPrefetchFTQDepth + 1 }), "ftq_depth"},
		{"fdip negative ftq", mut(func(p *PrefetchSpec) { p.FTQDepth = -8 }), "ftq_depth"},
		{"fdip with degree", mut(func(p *PrefetchSpec) { p.Degree = 2 }), "no degree"},
		{"next-line with ftq", PrefetchSpec{Kind: PrefKindNextLine, FTQDepth: 8}, "no ftq_depth"},
		{"next-line oversized degree", PrefetchSpec{Kind: PrefKindNextLine, Degree: MaxPrefetchDegree + 1}, "degree"},
		{"next-line negative degree", PrefetchSpec{Kind: PrefKindNextLine, Degree: -1}, "degree"},
		{"oversized mshrs", mut(func(p *PrefetchSpec) { p.MSHRs = MaxPrefetchMSHRs + 1 }), "mshrs"},
		{"negative mshrs", mut(func(p *PrefetchSpec) { p.MSHRs = -1 }), "mshrs"},
		{"oversized latency", mut(func(p *PrefetchSpec) { p.Latency = MaxPrefetchLatency + 1 }), "latency"},
		{"negative latency", mut(func(p *PrefetchSpec) { p.Latency = -1 }), "latency"},
	}
	for _, c := range bad {
		p := c.p
		if err := p.Validate(); err == nil {
			t.Errorf("%s: PrefetchSpec.Validate accepted it", c.name)
		} else if !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %q does not mention %q", c.name, err, c.want)
		}
		// The block must be rejected through Spec.Validate on both direction
		// styles: decoupled (nls-table + PHT) and coupled (johnson), whose
		// early return must not skip the prefetch checks.
		for _, base := range []Spec{NLSTable(1024), Johnson()} {
			base.Prefetch = &p
			if err := base.Validate(); err == nil {
				t.Errorf("%s: Spec.Validate (%s) accepted it", c.name, base.Predictor.Kind)
			}
		}
	}
}

// TestPrefetchSpecJSONStability: a nil Prefetch block must serialize exactly
// as before the field existed — the store keys of every pre-§14 cell hash
// the canonical JSON, so omitempty is load-bearing — and a populated block
// round-trips losslessly.
func TestPrefetchSpecJSONStability(t *testing.T) {
	buf, err := json.Marshal(NLSTable(1024))
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(buf), "prefetch") {
		t.Errorf("nil prefetch block leaked into the wire format: %s", buf)
	}

	s := NLSTable(1024)
	s.Prefetch = &PrefetchSpec{Kind: PrefKindFDIP, FTQDepth: 8, MSHRs: 16, Latency: 30}
	buf, err = json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	var decoded Spec
	if err := json.Unmarshal(buf, &decoded); err != nil {
		t.Fatal(err)
	}
	if decoded.Prefetch == nil || *decoded.Prefetch != *s.Prefetch {
		t.Errorf("prefetch block round trip lost information: %+v", decoded.Prefetch)
	}
}

// TestPrefetchBuildMatchesHandWired: a spec-built prefetching engine is
// counter-for-counter identical to the same machine wired by hand through
// the fetch constructors — including the registered paper arms.
func TestPrefetchBuildMatchesHandWired(t *testing.T) {
	tr, err := workload.Li().Trace(60_000)
	if err != nil {
		t.Fatal(err)
	}
	chunks := func() trace.ChunkSource {
		return trace.Chunk(tr, trace.DefaultChunkRecords).Chunks()
	}
	hand := func(wire func(e *fetch.Frontend)) *fetch.Frontend {
		g := cache.MustGeometry(16*1024, LineBytes, 1)
		e := fetch.NewNLSTableEngine(g, 1024, pht.NewGShare(PHTEntries, PHTHistoryBits), 32)
		wire(e)
		return e
	}

	for _, c := range []struct {
		arch string
		wire func(e *fetch.Frontend)
	}{
		{"nls-table-1024-nextline", func(e *fetch.Frontend) {
			ic := e.ICache()
			ic.EnablePrefetch(defaultPrefetchMSHRs, defaultPrefetchLatency)
			e.AttachPrefetcher(fetch.NewNextLinePrefetcher(ic, 1))
		}},
		{"nls-table-1024-fdip", func(e *fetch.Frontend) {
			ic := e.ICache()
			ic.EnablePrefetch(defaultPrefetchMSHRs, defaultPrefetchLatency)
			e.SetFTQDepth(8)
			e.AttachPrefetcher(fetch.NewFDIPPrefetcher(ic))
		}},
	} {
		s, ok := Lookup(c.arch)
		if !ok {
			t.Fatalf("registry missing %s", c.arch)
		}
		mh := fetch.RunChunks(hand(c.wire), chunks())
		ms := fetch.RunChunks(s.MustBuild(), chunks())
		if *mh != *ms {
			t.Errorf("%s: spec-built counters diverge from hand-wired\n spec %+v\n hand %+v",
				c.arch, *ms, *mh)
		}
		if ms.PrefIssued == 0 {
			t.Errorf("%s: spec-built engine issued no prefetches", c.arch)
		}
	}
}
