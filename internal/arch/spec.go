// Package arch provides a declarative, JSON-serializable description of a
// complete fetch-architecture configuration — target predictor, instruction
// cache geometry, direction predictor, return stack, and wrong-path
// modelling — plus a registry of named paper configurations. A Spec is the
// single source from which CLIs, experiments, and examples build engines,
// so a new architecture variant is a value, not another copy of engine
// wiring.
package arch

import (
	"fmt"
	"math/bits"

	"repro/internal/btb"
	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/fetch"
	"repro/internal/pht"
	"repro/internal/ras"
)

// Upper bounds on every field of a Spec that sizes an allocation. Specs
// arrive from untrusted JSON (the sweep service's job decoder), so Validate
// must reject anything outside these bounds BEFORE Build allocates tables
// from it. The caps are far above any configuration the paper or the
// roadmap sweeps (multi-MB predictors, 256KB+ caches) while keeping the
// worst accepted spec's footprint in the tens of megabytes.
const (
	// MaxPredictorEntries bounds NLS-table, BTB, and hybrid table sizes.
	MaxPredictorEntries = 1 << 22
	// MaxPHTEntries bounds the direction-predictor table.
	MaxPHTEntries = 1 << 24
	// MaxCacheBytes bounds the simulated instruction-cache capacity.
	MaxCacheBytes = 1 << 28
	// MaxRASDepth bounds the return-stack depth.
	MaxRASDepth = 1 << 16
	// MaxAssoc bounds the cache associativity: the broadcast's fetch
	// oracle keeps a way in the 7 bits of cache.AnnWayMask.
	MaxAssoc = int(cache.AnnWayMask) + 1
	// MaxPointerSets bounds the cache sets of an architecture whose
	// predictor names a set: an NLS or Johnson pointer keeps it in 16
	// bits (core.Entry.Set, core.JohnsonEntry.Set), as does a break event
	// of the fetch oracle (cache.EvtSetShift).
	MaxPointerSets = 1 << 16
	// MaxPrefetchFTQDepth bounds the fetch-target queue of a decoupled
	// (fdip) frontend.
	MaxPrefetchFTQDepth = 1 << 10
	// MaxPrefetchDegree bounds the next-line prefetch degree.
	MaxPrefetchDegree = 8
	// MaxPrefetchMSHRs bounds the prefetch miss-status holding registers.
	MaxPrefetchMSHRs = 256
	// MaxPrefetchLatency bounds the modelled prefetch fill latency
	// (accesses).
	MaxPrefetchLatency = 1 << 20
)

// pow2InRange reports whether n is a power of two in [1, max].
func pow2InRange(n, max int) bool {
	return n > 0 && n <= max && bits.OnesCount(uint(n)) == 1
}

// Predictor kinds accepted by PredictorSpec.Kind.
const (
	KindNLSTable   = "nls-table"
	KindNLSCache   = "nls-cache"
	KindBTB        = "btb"
	KindCoupledBTB = "coupled-btb"
	KindJohnson    = "johnson"
	KindHybrid     = "hybrid"
)

// PredictorSpec selects and sizes the target predictor.
type PredictorSpec struct {
	// Kind is one of the Kind* constants.
	Kind string `json:"kind"`
	// Entries sizes the NLS-table or the BTB (power of two).
	Entries int `json:"entries,omitempty"`
	// Assoc is the BTB associativity (btb / coupled-btb only).
	Assoc int `json:"assoc,omitempty"`
	// PerLine is the number of line-coupled predictors (nls-cache only).
	PerLine int `json:"per_line,omitempty"`
	// BTBEntries and BTBAssoc size the fallback BTB of the hybrid
	// predictor (hybrid only; Entries sizes its NLS-table half).
	BTBEntries int `json:"btb_entries,omitempty"`
	BTBAssoc   int `json:"btb_assoc,omitempty"`
}

// CacheSpec sizes the instruction cache.
type CacheSpec struct {
	SizeBytes int `json:"size_bytes"`
	LineBytes int `json:"line_bytes"`
	Assoc     int `json:"assoc"`
}

// Geometry converts the spec to a validated cache geometry.
func (c CacheSpec) Geometry() (cache.Geometry, error) {
	return cache.NewGeometry(c.SizeBytes, c.LineBytes, c.Assoc)
}

// Direction-predictor kinds accepted by PHTSpec.Kind.
const (
	PHTKindGShare         = "gshare"
	PHTKindGAs            = "gas"
	PHTKindBimodal        = "bimodal"
	PHTKindOneBit         = "1bit"
	PHTKindTAGE           = "tage"
	PHTKindStaticTaken    = "static-taken"
	PHTKindStaticNotTaken = "static-not-taken"
	PHTKindNone           = "none"
)

// PHTKinds returns every accepted PHTSpec.Kind, in presentation order
// (what `nlssim -list` enumerates). Kept in lockstep with PHTSpec.Validate
// by TestPHTKindsCoverValidate.
func PHTKinds() []string {
	return []string{
		PHTKindGShare, PHTKindGAs, PHTKindBimodal, PHTKindOneBit, PHTKindTAGE,
		PHTKindStaticTaken, PHTKindStaticNotTaken, PHTKindNone,
	}
}

// Prefetcher kinds accepted by PrefetchSpec.Kind.
const (
	PrefKindNextLine = "next-line"
	PrefKindFDIP     = "fdip"
)

// PrefetchKinds returns every accepted PrefetchSpec.Kind, in presentation
// order (what `nlssim -list` enumerates). Kept in lockstep with
// PrefetchSpec.Validate by TestPrefetchKindsCoverValidate.
func PrefetchKinds() []string {
	return []string{PrefKindNextLine, PrefKindFDIP}
}

// PrefetchSpec selects and sizes the i-cache prefetcher of the decoupled
// frontend (DESIGN.md §14). The whole spec is optional — a Spec without one
// keeps the fused fetch path, bit-identical to pre-§14 behaviour — and
// every sizing field defaults to the reference configuration when 0.
type PrefetchSpec struct {
	// Kind is one of the PrefKind* constants.
	Kind string `json:"kind"`
	// FTQDepth sizes the fetch-target queue (fdip only; must be >= 1
	// there, must be 0 for next-line, which needs no BPU run-ahead).
	FTQDepth int `json:"ftq_depth,omitempty"`
	// Degree is the number of sequential lines prefetched per fetch-block
	// access (next-line only; 0 selects 1).
	Degree int `json:"degree,omitempty"`
	// MSHRs bounds the in-flight prefetches (0 selects 8).
	MSHRs int `json:"mshrs,omitempty"`
	// Latency is the prefetch fill latency in i-cache accesses (0 selects
	// 20).
	Latency int `json:"latency,omitempty"`
}

// Reference prefetch sizing, substituted for zero fields at Build time.
const (
	defaultPrefetchMSHRs   = 8
	defaultPrefetchLatency = 20
	defaultPrefetchDegree  = 1
)

// Validate checks the prefetch spec without building it: untrusted fields
// that size allocations (FTQ entries, MSHR map) or loop bounds (degree) are
// capped here, and fields meaningless for the kind are rejected rather than
// silently ignored so job documents stay canonical.
func (p PrefetchSpec) Validate() error {
	if p.MSHRs < 0 || p.MSHRs > MaxPrefetchMSHRs {
		return fmt.Errorf("arch: prefetch mshrs %d out of range [0, %d]", p.MSHRs, MaxPrefetchMSHRs)
	}
	if p.Latency < 0 || p.Latency > MaxPrefetchLatency {
		return fmt.Errorf("arch: prefetch latency %d out of range [0, %d]", p.Latency, MaxPrefetchLatency)
	}
	switch p.Kind {
	case PrefKindNextLine:
		if p.FTQDepth != 0 {
			return fmt.Errorf("arch: prefetch %q takes no ftq_depth (got %d)", p.Kind, p.FTQDepth)
		}
		if p.Degree < 0 || p.Degree > MaxPrefetchDegree {
			return fmt.Errorf("arch: prefetch degree %d out of range [0, %d]", p.Degree, MaxPrefetchDegree)
		}
		return nil
	case PrefKindFDIP:
		if p.Degree != 0 {
			return fmt.Errorf("arch: prefetch %q takes no degree (got %d)", p.Kind, p.Degree)
		}
		if p.FTQDepth < 1 || p.FTQDepth > MaxPrefetchFTQDepth {
			return fmt.Errorf("arch: prefetch ftq_depth %d out of range [1, %d]", p.FTQDepth, MaxPrefetchFTQDepth)
		}
		return nil
	}
	return fmt.Errorf("arch: unknown prefetch kind %q", p.Kind)
}

// PHTSpec selects and sizes the decoupled direction predictor. Predictors
// with coupled direction state (coupled-btb, johnson) take no PHT; leave
// Kind empty or "none" for them.
type PHTSpec struct {
	// Kind is one of the PHTKind* constants.
	Kind string `json:"kind"`
	// Entries is the table size (gshare, gas, bimodal, 1bit) or, for
	// tage, the bimodal base-table size.
	Entries int `json:"entries,omitempty"`
	// HistoryBits is the gshare global-history width.
	HistoryBits int `json:"history_bits,omitempty"`

	// TAGE geometry (Kind "tage" only; see pht.TAGEConfig). Every field
	// is omitempty so pre-TAGE specs keep their canonical JSON — and
	// therefore their content hashes, store keys, and warm-response
	// byte-identity — unchanged.
	TageTables  int `json:"tage_tables,omitempty"`
	TageEntries int `json:"tage_entries,omitempty"`
	TageTagBits int `json:"tage_tag_bits,omitempty"`
	TageMinHist int `json:"tage_min_hist,omitempty"`
	TageMaxHist int `json:"tage_max_hist,omitempty"`
}

// none reports whether the spec declares no direction predictor.
func (p PHTSpec) none() bool { return p.Kind == "" || p.Kind == PHTKindNone }

// tage converts the spec's TAGE fields to the pht-level configuration.
func (p PHTSpec) tage() pht.TAGEConfig {
	return pht.TAGEConfig{
		BaseEntries: p.Entries, Tables: p.TageTables, Entries: p.TageEntries,
		TagBits: p.TageTagBits, MinHist: p.TageMinHist, MaxHist: p.TageMaxHist,
	}
}

// Validate checks the spec without building it: the error-returning gate
// (shared with pht.CheckEntries and pht.TAGEConfig.Validate) that rejects
// an untrusted spec before any allocation is sized from it. Build also
// calls it, so even a Build bypassing Spec.Validate cannot panic.
func (p PHTSpec) Validate() error {
	if p.Kind != PHTKindTAGE {
		if p.TageTables != 0 || p.TageEntries != 0 || p.TageTagBits != 0 ||
			p.TageMinHist != 0 || p.TageMaxHist != 0 {
			return fmt.Errorf("arch: pht %q accepts no tage_* fields", p.Kind)
		}
	}
	switch p.Kind {
	case "", PHTKindNone, PHTKindStaticTaken, PHTKindStaticNotTaken:
		return nil
	case PHTKindGShare, PHTKindGAs, PHTKindBimodal, PHTKindOneBit:
		if err := pht.CheckEntries(p.Entries); err != nil {
			return fmt.Errorf("arch: pht %q: %w", p.Kind, err)
		}
		if p.Entries > MaxPHTEntries {
			return fmt.Errorf("arch: pht %q entries %d exceeds the %d cap", p.Kind, p.Entries, MaxPHTEntries)
		}
		if p.HistoryBits < 0 || p.HistoryBits > 64 {
			return fmt.Errorf("arch: pht history_bits %d out of range [0, 64]", p.HistoryBits)
		}
		return nil
	case PHTKindTAGE:
		if p.HistoryBits != 0 {
			return fmt.Errorf("arch: pht tage sizes history via tage_min_hist/tage_max_hist, not history_bits")
		}
		if p.Entries > MaxPHTEntries || p.TageEntries > MaxPHTEntries {
			return fmt.Errorf("arch: pht tage tables exceed the %d-entry cap", MaxPHTEntries)
		}
		return p.tage().Validate()
	}
	return fmt.Errorf("arch: unknown PHT kind %q", p.Kind)
}

// Build constructs the direction predictor the spec describes. It validates
// first: a hostile spec gets an error here, never a panic.
func (p PHTSpec) Build() (pht.Predictor, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	switch p.Kind {
	case "", PHTKindNone, PHTKindStaticNotTaken:
		// Coupled architectures carry no decoupled PHT ("none"): the
		// inert never-taken predictor stands in, never consulted.
		return pht.Static{}, nil
	case PHTKindGShare:
		return pht.NewGShare(p.Entries, p.HistoryBits), nil
	case PHTKindGAs:
		return pht.NewGAs(p.Entries), nil
	case PHTKindBimodal:
		return pht.NewBimodal(p.Entries), nil
	case PHTKindOneBit:
		return pht.NewOneBit(p.Entries), nil
	case PHTKindTAGE:
		return pht.NewTAGE(p.tage())
	case PHTKindStaticTaken:
		return pht.Static{Taken: true}, nil
	}
	return nil, fmt.Errorf("arch: unknown PHT kind %q", p.Kind)
}

// Spec is a complete, declarative fetch-architecture configuration.
type Spec struct {
	Predictor PredictorSpec `json:"predictor"`
	Cache     CacheSpec     `json:"cache"`
	// PHT is the decoupled direction predictor; ignored (must be empty or
	// "none") for coupled-direction predictor kinds.
	PHT PHTSpec `json:"pht,omitempty"`
	// RASDepth is the return-stack depth; 0 selects ras.DefaultDepth.
	RASDepth int `json:"ras_depth,omitempty"`
	// Pollution enables wrong-path fetch pollution modelling (§5.2).
	Pollution bool `json:"wrong_path_pollution,omitempty"`
	// Prefetch, when non-nil, attaches an i-cache prefetcher (DESIGN.md
	// §14). A pointer with omitempty so every pre-prefetch spec keeps its
	// canonical JSON — and therefore its content hashes, store keys, and
	// warm-response byte-identity — unchanged.
	Prefetch *PrefetchSpec `json:"prefetch,omitempty"`
}

// WithGeometry returns a copy of the spec with the cache geometry replaced
// — the sweep axis that varies per cell while the architecture stays fixed.
func (s Spec) WithGeometry(g cache.Geometry) Spec {
	s.Cache = CacheSpec{SizeBytes: g.SizeBytes(), LineBytes: g.LineBytes(), Assoc: g.Assoc()}
	return s
}

// Validate checks the spec without building anything. It is the gate
// between untrusted input and Build: everything Build (or a constructor it
// calls) would panic on or size an allocation from — non-power-of-two
// tables, a per_line that does not divide the line, out-of-range sizes —
// must be rejected here.
func (s Spec) Validate() error {
	g, err := s.Cache.Geometry()
	if err != nil {
		return err
	}
	if s.Cache.SizeBytes > MaxCacheBytes {
		return fmt.Errorf("arch: cache size %d exceeds the %d-byte cap", s.Cache.SizeBytes, MaxCacheBytes)
	}
	if s.RASDepth > MaxRASDepth {
		return fmt.Errorf("arch: ras_depth %d exceeds the %d cap", s.RASDepth, MaxRASDepth)
	}
	if g.Assoc() > MaxAssoc {
		return fmt.Errorf("arch: cache assoc %d exceeds the %d cap", g.Assoc(), MaxAssoc)
	}
	switch s.Predictor.Kind {
	case KindNLSTable, KindNLSCache, KindHybrid, KindJohnson:
		if g.NumSets() > MaxPointerSets {
			return fmt.Errorf("arch: %s pointers name at most %d sets; a %d-byte cache of %d-byte lines at assoc %d has %d",
				s.Predictor.Kind, MaxPointerSets, g.SizeBytes(), g.LineBytes(), g.Assoc(), g.NumSets())
		}
	}
	coupledDir := false
	switch s.Predictor.Kind {
	case KindNLSTable:
		if !pow2InRange(s.Predictor.Entries, MaxPredictorEntries) {
			return fmt.Errorf("arch: %s entries %d must be a power of two in [1, %d]",
				s.Predictor.Kind, s.Predictor.Entries, MaxPredictorEntries)
		}
	case KindNLSCache:
		if s.Predictor.PerLine <= 0 || g.InstrsPerLine()%s.Predictor.PerLine != 0 {
			return fmt.Errorf("arch: %s per_line %d must divide the %d instructions per %d-byte line",
				s.Predictor.Kind, s.Predictor.PerLine, g.InstrsPerLine(), g.LineBytes())
		}
	case KindBTB, KindCoupledBTB:
		if err := (btb.Config{Entries: s.Predictor.Entries, Assoc: s.Predictor.Assoc}).Validate(); err != nil {
			return err
		}
		if s.Predictor.Entries > MaxPredictorEntries {
			return fmt.Errorf("arch: %s entries %d exceeds the %d cap",
				s.Predictor.Kind, s.Predictor.Entries, MaxPredictorEntries)
		}
		coupledDir = s.Predictor.Kind == KindCoupledBTB
	case KindHybrid:
		if !pow2InRange(s.Predictor.Entries, MaxPredictorEntries) {
			return fmt.Errorf("arch: %s entries %d (NLS-table half) must be a power of two in [1, %d]",
				s.Predictor.Kind, s.Predictor.Entries, MaxPredictorEntries)
		}
		if err := (btb.Config{Entries: s.Predictor.BTBEntries, Assoc: s.Predictor.BTBAssoc}).Validate(); err != nil {
			return err
		}
		if s.Predictor.BTBEntries > MaxPredictorEntries {
			return fmt.Errorf("arch: %s btb_entries %d exceeds the %d cap",
				s.Predictor.Kind, s.Predictor.BTBEntries, MaxPredictorEntries)
		}
	case KindJohnson:
		if g.InstrsPerLine()%core.JohnsonInstrsPerPred != 0 {
			return fmt.Errorf("arch: %s line_bytes %d must hold a multiple of %d instructions",
				s.Predictor.Kind, g.LineBytes(), core.JohnsonInstrsPerPred)
		}
		coupledDir = true
	default:
		return fmt.Errorf("arch: unknown predictor kind %q", s.Predictor.Kind)
	}
	if coupledDir {
		if !s.PHT.none() {
			return fmt.Errorf("arch: %s couples direction prediction; PHT must be \"none\"", s.Predictor.Kind)
		}
		return s.validatePrefetch()
	}
	if s.PHT.none() {
		return fmt.Errorf("arch: %s needs a PHT", s.Predictor.Kind)
	}
	if err := s.PHT.Validate(); err != nil {
		return err
	}
	return s.validatePrefetch()
}

// validatePrefetch applies the optional prefetch block's checks (shared by
// the coupled-direction early return and the decoupled tail of Validate).
func (s Spec) validatePrefetch() error {
	if s.Prefetch == nil {
		return nil
	}
	return s.Prefetch.Validate()
}

// Build constructs the fetch engine the spec describes.
func (s Spec) Build() (*fetch.Frontend, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	g, err := s.Cache.Geometry()
	if err != nil {
		return nil, err
	}
	depth := s.RASDepth
	if depth <= 0 {
		depth = ras.DefaultDepth
	}
	dir, err := s.PHT.Build()
	if err != nil {
		return nil, err
	}

	var e *fetch.Frontend
	switch s.Predictor.Kind {
	case KindNLSTable:
		e = fetch.NewNLSTableEngine(g, s.Predictor.Entries, dir, depth)
	case KindNLSCache:
		e = fetch.NewNLSCacheEngine(g, s.Predictor.PerLine, dir, depth)
	case KindBTB:
		cfg := btb.Config{Entries: s.Predictor.Entries, Assoc: s.Predictor.Assoc}
		e = fetch.NewBTBEngine(g, cfg, dir, depth)
	case KindCoupledBTB:
		cfg := btb.Config{Entries: s.Predictor.Entries, Assoc: s.Predictor.Assoc}
		e = fetch.NewCoupledBTBEngine(g, cfg, depth)
	case KindJohnson:
		e = fetch.NewJohnsonEngine(g)
	case KindHybrid:
		cfg := btb.Config{Entries: s.Predictor.BTBEntries, Assoc: s.Predictor.BTBAssoc}
		e = fetch.NewHybridEngine(g, s.Predictor.Entries, cfg, dir, depth)
	default:
		return nil, fmt.Errorf("arch: unknown predictor kind %q", s.Predictor.Kind)
	}
	e.SetWrongPathPollution(s.Pollution)
	if s.Prefetch != nil {
		if err := attachPrefetch(e, *s.Prefetch); err != nil {
			return nil, err
		}
	}
	return e, nil
}

// attachPrefetch wires a validated PrefetchSpec into the engine's frontend:
// enable the i-cache's prefetch/MSHR model, then attach the policy (and,
// for fdip, size the FTQ that decouples the BPU from fetch).
func attachPrefetch(e *fetch.Frontend, p PrefetchSpec) error {
	mshrs := p.MSHRs
	if mshrs == 0 {
		mshrs = defaultPrefetchMSHRs
	}
	latency := p.Latency
	if latency == 0 {
		latency = defaultPrefetchLatency
	}
	ic := e.ICache()
	ic.EnablePrefetch(mshrs, uint64(latency))
	switch p.Kind {
	case PrefKindNextLine:
		degree := p.Degree
		if degree == 0 {
			degree = defaultPrefetchDegree
		}
		e.AttachPrefetcher(fetch.NewNextLinePrefetcher(ic, degree))
	case PrefKindFDIP:
		e.SetFTQDepth(p.FTQDepth)
		e.AttachPrefetcher(fetch.NewFDIPPrefetcher(ic))
	default:
		return fmt.Errorf("arch: unknown prefetch kind %q", p.Kind)
	}
	return nil
}

// MustBuild is Build panicking on error, for registered (pre-validated)
// specs and tests.
func (s Spec) MustBuild() *fetch.Frontend {
	e, err := s.Build()
	if err != nil {
		panic(err)
	}
	return e
}
