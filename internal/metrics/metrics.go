// Package metrics defines the performance accounting of §5.2 of the paper:
// misfetch and mispredict rates, the branch execution penalty (BEP), and
// cycles per instruction (CPI) for a single-issue machine.
package metrics

import (
	"fmt"

	"repro/internal/isa"
)

// Penalties holds the cycle costs of §5.2. The paper assumes a one-cycle
// misfetch penalty, a four-cycle mispredict penalty, and a five-cycle
// instruction-cache miss penalty. The JSON tags fix the wire form shared
// by the cell-store key document and the sweep service's job decoder.
type Penalties struct {
	Misfetch   float64 `json:"misfetch"`
	Mispredict float64 `json:"mispredict"`
	CacheMiss  float64 `json:"cache_miss"`
}

// Default returns the paper's penalty assumptions.
func Default() Penalties {
	return Penalties{Misfetch: 1, Mispredict: 4, CacheMiss: 5}
}

// Counters accumulates the raw event counts of one simulation. The JSON
// tags fix the wire form of the CLIs' -json reports and the sweep
// service's nls-result/v1 rows. The content-addressed results store
// persists these fields, and only these, per grid cell, in a fixed binary
// layout that follows their declaration order (experiments.Store): adding,
// removing or reordering a field needs a cell value-schema bump there.
// Every derived metric (BEP, CPI, rates) is recomputable from these raw
// counts, so stored cells stay valid when penalty assumptions change:
// penalties are part of neither the cell key nor the cell value, and every
// point of a penalty sweep is served by the same stored cells.
type Counters struct {
	// Instructions is the number of instructions executed.
	Instructions uint64 `json:"instructions"`
	// Breaks is the number of executed control-transfer instructions.
	Breaks uint64 `json:"breaks"`
	// Misfetches counts branches whose next fetch had to wait for decode
	// (target or type unavailable) although the direction was right.
	Misfetches uint64 `json:"misfetches"`
	// Mispredicts counts branches whose predicted direction or target
	// value was wrong, discovered at execute. A branch is never both
	// misfetched and mispredicted (§5.2).
	Mispredicts uint64 `json:"mispredicts"`
	// MisfetchByKind / MispredictByKind break the penalties down by
	// branch kind for diagnosis.
	MisfetchByKind   [isa.NumKinds]uint64 `json:"misfetch_by_kind"`
	MispredictByKind [isa.NumKinds]uint64 `json:"mispredict_by_kind"`
	// CondBranches and CondDirWrong track raw PHT direction accuracy.
	CondBranches uint64 `json:"cond_branches"`
	CondDirWrong uint64 `json:"cond_dir_wrong"`
	// ICacheAccesses and ICacheMisses are the instruction cache counters.
	ICacheAccesses uint64 `json:"icache_accesses"`
	ICacheMisses   uint64 `json:"icache_misses"`
	// ICacheColdMisses counts the compulsory subset of ICacheMisses: demand
	// misses on lines never touched before (a line whose compulsory miss
	// was absorbed by a useful prefetch never counts). omitempty belongs to
	// the JSON wire form only: a run without cold misses (one that executed
	// nothing) still serializes as it did before the field existed.
	ICacheColdMisses uint64 `json:"icache_cold_misses,omitempty"`
	// Prefetch lifecycle counters (DESIGN.md §14), mirrored from
	// cache.PrefetchStats. All zero — and elided from JSON — when the
	// engine has no prefetcher.
	PrefIssued    uint64 `json:"pref_issued,omitempty"`
	PrefUseful    uint64 `json:"pref_useful,omitempty"`
	PrefLate      uint64 `json:"pref_late,omitempty"`
	PrefDropped   uint64 `json:"pref_dropped,omitempty"`
	PrefRedundant uint64 `json:"pref_redundant,omitempty"`
	PrefUnused    uint64 `json:"pref_unused,omitempty"`
}

// AddMisfetch records a misfetched branch of the given kind.
func (c *Counters) AddMisfetch(k isa.Kind) {
	c.Misfetches++
	c.MisfetchByKind[k]++
}

// AddMispredict records a mispredicted branch of the given kind.
func (c *Counters) AddMispredict(k isa.Kind) {
	c.Mispredicts++
	c.MispredictByKind[k]++
}

// Per100Breaks returns n per 100 executed breaks — the guarded division
// every per-break rate shares, so an empty run (zero breaks) reads as a
// zero rate rather than NaN in reports and JSON.
func (c *Counters) Per100Breaks(n uint64) float64 {
	if c.Breaks == 0 {
		return 0
	}
	return 100 * float64(n) / float64(c.Breaks)
}

// PctMisfetched returns %MfB: misfetched branches per 100 executed breaks.
func (c *Counters) PctMisfetched() float64 {
	return c.Per100Breaks(c.Misfetches)
}

// PctMispredicted returns %MpB: mispredicted branches per 100 executed
// breaks.
func (c *Counters) PctMispredicted() float64 {
	return c.Per100Breaks(c.Mispredicts)
}

// BEP returns the branch execution penalty of Yeh & Patt as used in §5.2:
//
//	BEP = (%MfB × misfetch penalty + %MpB × mispredict penalty) / 100
//
// i.e. the average penalty cycles suffered per executed break.
func (c *Counters) BEP(p Penalties) float64 {
	return (c.PctMisfetched()*p.Misfetch + c.PctMispredicted()*p.Mispredict) / 100
}

// MisfetchBEP returns the misfetch component of the BEP (the upper part of
// the paper's stacked bars).
func (c *Counters) MisfetchBEP(p Penalties) float64 {
	return c.PctMisfetched() * p.Misfetch / 100
}

// MispredictBEP returns the mispredict component of the BEP (the lower part
// of the stacked bars).
func (c *Counters) MispredictBEP(p Penalties) float64 {
	return c.PctMispredicted() * p.Mispredict / 100
}

// ICacheMissRate returns misses per access.
func (c *Counters) ICacheMissRate() float64 {
	if c.ICacheAccesses == 0 {
		return 0
	}
	return float64(c.ICacheMisses) / float64(c.ICacheAccesses)
}

// CondAccuracy returns the fraction of conditional branches whose direction
// was predicted correctly.
func (c *Counters) CondAccuracy() float64 {
	if c.CondBranches == 0 {
		return 0
	}
	return 1 - float64(c.CondDirWrong)/float64(c.CondBranches)
}

// PrefAccuracy returns the fraction of issued prefetches that were on-path:
// the line was demanded while in flight (late) or after fill (useful). The
// remainder were evicted unused or overwritten. Zero when nothing issued.
func (c *Counters) PrefAccuracy() float64 {
	if c.PrefIssued == 0 {
		return 0
	}
	return float64(c.PrefUseful+c.PrefLate) / float64(c.PrefIssued)
}

// PrefCoverage returns the fraction of would-be demand misses the
// prefetcher eliminated: useful prefetches over useful plus the demand
// misses that still happened. Zero on an empty run.
func (c *Counters) PrefCoverage() float64 {
	if c.PrefUseful+c.ICacheMisses == 0 {
		return 0
	}
	return float64(c.PrefUseful) / float64(c.PrefUseful+c.ICacheMisses)
}

// PrefTimeliness returns the fraction of on-path prefetches that arrived
// before the demand access (useful over useful plus late). Zero when no
// prefetch was ever on-path.
func (c *Counters) PrefTimeliness() float64 {
	if c.PrefUseful+c.PrefLate == 0 {
		return 0
	}
	return float64(c.PrefUseful) / float64(c.PrefUseful+c.PrefLate)
}

// CPI returns cycles per instruction for the single-issue machine of §5.2:
//
//	CPI = (#insns + BEP × #branches + #misses × miss penalty) / #insns
//
// CPI cannot be less than 1 and excludes data-cache and resource stalls.
func (c *Counters) CPI(p Penalties) float64 {
	if c.Instructions == 0 {
		return 0
	}
	cycles := float64(c.Instructions) +
		c.BEP(p)*float64(c.Breaks) +
		float64(c.ICacheMisses)*p.CacheMiss
	return cycles / float64(c.Instructions)
}

// Summary renders a one-line report.
func (c *Counters) Summary(p Penalties) string {
	return fmt.Sprintf("insns=%d breaks=%d %%MfB=%.2f %%MpB=%.2f BEP=%.3f CPI=%.3f icache-miss=%.2f%% cond-acc=%.2f%%",
		c.Instructions, c.Breaks, c.PctMisfetched(), c.PctMispredicted(),
		c.BEP(p), c.CPI(p), 100*c.ICacheMissRate(), 100*c.CondAccuracy())
}

// Reset zeroes the counters.
func (c *Counters) Reset() { *c = Counters{} }
