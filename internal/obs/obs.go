// Package obs turns the fetch frontend's probe event stream into per-branch
// attribution: which static branches pay the penalty cycles, and why. The
// aggregate counters of package metrics say *how often* each architecture
// pays; the paper's arguments are causal — NLS-cache state dies on line
// eviction (§4.1, §6.1), the RAS saves returns, tag-less tables alias — and
// attribution tables are what make those causes visible per configuration.
//
// An Attribution is a fetch.Probe. It only accumulates; reports are built
// on demand by Report and rendered by the pure functions in render.go, so
// the same collected state can feed the text table, the -json report, and
// the golden tests.
package obs

import (
	"encoding/binary"
	"sort"

	"repro/internal/fetch"
	"repro/internal/isa"
	"repro/internal/metrics"
)

// CauseMix counts penalized breaks by root cause, indexed by fetch.Cause.
type CauseMix [fetch.NumCauses]uint64

// Add accumulates another mix.
func (m *CauseMix) Add(o CauseMix) {
	for i, n := range o {
		m[i] += n
	}
}

// Total returns the penalized-break count (CauseNone slots are never
// incremented for penalized breaks, so this sums real causes).
func (m CauseMix) Total() uint64 {
	var t uint64
	for c := fetch.CauseNone + 1; c < fetch.NumCauses; c++ {
		t += m[c]
	}
	return t
}

// PCStats accumulates the attribution for one static branch.
type PCStats struct {
	PC   isa.Addr
	Kind isa.Kind
	// Breaks is the branch's execution count; Misfetches and Mispredicts
	// its penalized executions, split per §5.2.
	Breaks      uint64
	Misfetches  uint64
	Mispredicts uint64
	// Causes classifies the penalized executions.
	Causes CauseMix
	// Polluted counts wrong fetches whose cache touch was modelled.
	Polluted uint64
}

// PenaltyCycles returns the branch's total penalty cost under p.
func (s *PCStats) PenaltyCycles(p metrics.Penalties) float64 {
	return float64(s.Misfetches)*p.Misfetch + float64(s.Mispredicts)*p.Mispredict
}

// Attribution consumes one engine's probe events into per-PC tables. It is
// engine-private, like the probe contract requires: attach one Attribution
// per engine and merge reports afterwards if needed.
type Attribution struct {
	byPC map[isa.Addr]*PCStats
}

// NewAttribution returns an empty collector.
func NewAttribution() *Attribution {
	return &Attribution{byPC: make(map[isa.Addr]*PCStats)}
}

// Break implements fetch.Probe.
func (a *Attribution) Break(ev fetch.BreakEvent) {
	s := a.byPC[ev.PC]
	if s == nil {
		s = &PCStats{PC: ev.PC, Kind: ev.Kind}
		a.byPC[ev.PC] = s
	}
	s.Breaks++
	switch ev.Penalty {
	case fetch.PenaltyMisfetch:
		s.Misfetches++
	case fetch.PenaltyMispredict:
		s.Mispredicts++
	}
	if ev.Cause != fetch.CauseNone {
		s.Causes[ev.Cause]++
	}
	if ev.Polluted {
		s.Polluted++
	}
}

// Report is the attribution summary for one (arch, program) run: totals,
// the cause mix, and the top offender branches by penalty cycles.
type Report struct {
	Arch    string `json:"arch"`
	Program string `json:"program"`
	// Breaks, Misfetches, Mispredicts restate the run's counters as seen
	// through the probe (bit-identical to the engine's own, by contract).
	Breaks      uint64 `json:"breaks"`
	Misfetches  uint64 `json:"misfetches"`
	Mispredicts uint64 `json:"mispredicts"`
	// StaticBranches is the number of distinct break PCs executed.
	StaticBranches int `json:"static_branches"`
	// PenaltyCycles is the total penalty cost under the report's penalties.
	PenaltyCycles float64 `json:"penalty_cycles"`
	// Causes is the whole-run cause mix.
	Causes CauseMix `json:"causes"`
	// Top holds the worst offenders, sorted by penalty cycles descending
	// (ties by PC ascending, so reports are deterministic).
	Top []PCStats `json:"top"`
}

// Report builds the deterministic summary: top n offenders under penalties
// p. n <= 0 means all branches.
func (a *Attribution) Report(arch, program string, n int, p metrics.Penalties) Report {
	return a.Table().Report(arch, program, n, p)
}

// A Table is an Attribution's per-branch counts packed for keeping: one row
// of varints per static branch — its PC, its kind byte, then every counter
// in tableFields order. A gcc-like branch takes ~16 bytes this way against
// ~150 in the collector's map, so a run can hold every probed cell's counts
// until its figures render. The zero Table has no branches.
type Table struct {
	rows     []byte
	branches int
}

// tableFields lists s's counters in the order a Table row stores them.
func tableFields(s *PCStats) [4 + fetch.NumCauses]*uint64 {
	f := [4 + fetch.NumCauses]*uint64{&s.Breaks, &s.Misfetches, &s.Mispredicts, &s.Polluted}
	for c := range s.Causes {
		f[4+c] = &s.Causes[c]
	}
	return f
}

// Table packs the collector's counts.
func (a *Attribution) Table() Table {
	t := Table{branches: len(a.byPC)}
	for _, s := range a.byPC {
		t.rows = binary.AppendUvarint(t.rows, uint64(s.PC))
		t.rows = append(t.rows, byte(s.Kind))
		for _, f := range tableFields(s) {
			t.rows = binary.AppendUvarint(t.rows, *f)
		}
	}
	return t
}

// Report builds the deterministic summary of the packed counts, equal to
// the collector's own: top n offenders under penalties p, all branches for
// n <= 0.
func (t Table) Report(arch, program string, n int, p metrics.Penalties) Report {
	r := Report{Arch: arch, Program: program, StaticBranches: t.branches}
	all := make([]PCStats, t.branches)
	rest := t.rows
	next := func() uint64 {
		v, k := binary.Uvarint(rest)
		rest = rest[k:]
		return v
	}
	for i := range all {
		s := &all[i]
		s.PC = isa.Addr(next())
		s.Kind, rest = isa.Kind(rest[0]), rest[1:]
		for _, f := range tableFields(s) {
			*f = next()
		}
		r.Breaks += s.Breaks
		r.Misfetches += s.Misfetches
		r.Mispredicts += s.Mispredicts
		r.Causes.Add(s.Causes)
	}
	r.PenaltyCycles = float64(r.Misfetches)*p.Misfetch + float64(r.Mispredicts)*p.Mispredict
	sort.Slice(all, func(i, j int) bool {
		ci, cj := all[i].PenaltyCycles(p), all[j].PenaltyCycles(p)
		if ci != cj {
			return ci > cj
		}
		return all[i].PC < all[j].PC
	})
	if n > 0 && len(all) > n {
		// Copy the top n out: a slice of all would keep every branch of
		// the program alive for as long as the report.
		all = append(make([]PCStats, 0, n), all[:n]...)
	}
	r.Top = all
	return r
}
