// Package obs turns the fetch frontend's probe event stream into per-branch
// attribution: which static branches pay the penalty cycles, and why. The
// aggregate counters of package metrics say *how often* each architecture
// pays; the paper's arguments are causal — NLS-cache state dies on line
// eviction (§4.1, §6.1), the RAS saves returns, tag-less tables alias — and
// attribution tables are what make those causes visible per configuration.
//
// An Attribution is a fetch.Probe. It only accumulates, into pages of
// per-branch counts indexed by each event's site (fetch.BreakEvent.Site),
// with no map on the per-break path. Table packs the counts for keeping,
// and reports are built from it on demand by Report and rendered by the
// pure functions in render.go, so the same collected state can feed the
// text table, the -json report, and the golden tests.
package obs

import (
	"encoding/binary"
	"fmt"
	"math/bits"
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

// Attribution consumes one engine's probe events into per-branch counts,
// indexed by the event's site (fetch.BreakEvent.Site): fixed-size pages of
// PCStats, allocated as sites arrive and never moved, so a break costs an
// index and no map or per-branch object. It is engine-private, like the
// probe contract requires: attach one Attribution per engine and merge
// reports afterwards if needed.
type Attribution struct {
	pages    []*[pageSize]PCStats
	branches int
}

// pageSize is the number of sites one page of an Attribution counts.
const pageSize = 256

// NewAttribution returns an empty collector.
func NewAttribution() *Attribution { return &Attribution{} }

// Break implements fetch.Probe. It panics when one site names two PCs,
// which only events from more than one engine produce.
func (a *Attribution) Break(ev fetch.BreakEvent) {
	p := int(ev.Site / pageSize)
	if p >= len(a.pages) {
		a.pages = append(a.pages, make([]*[pageSize]PCStats, p+1-len(a.pages))...)
	}
	if a.pages[p] == nil {
		a.pages[p] = new([pageSize]PCStats)
	}
	s := &a.pages[p][ev.Site%pageSize]
	if s.Breaks == 0 {
		s.PC, s.Kind = ev.PC, ev.Kind
		a.branches++
	} else if s.PC != ev.PC {
		panic(fmt.Sprintf("obs: site %d names both %v and %v; an Attribution serves one engine", ev.Site, s.PC, ev.PC))
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

// each calls fn on every branch the collector counted, in site order.
func (a *Attribution) each(fn func(s *PCStats)) {
	for _, pg := range a.pages {
		if pg == nil {
			continue
		}
		for i := range pg {
			if pg[i].Breaks != 0 {
				fn(&pg[i])
			}
		}
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
// of varints per static branch, in site order — its PC, its kind byte,
// then every counter in tableFields order. A gcc-like branch takes ~16
// bytes this way against the collector's 104, so a run can hold every
// probed cell's counts until its figures render. The zero Table has no
// branches.
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

// uvarintLen is the length of v's uvarint encoding.
func uvarintLen(v uint64) int { return (bits.Len64(v|1) + 6) / 7 }

// Table packs the collector's counts into a buffer sized to fit them.
func (a *Attribution) Table() Table {
	size := 0
	a.each(func(s *PCStats) {
		size += uvarintLen(uint64(s.PC)) + 1
		for _, f := range tableFields(s) {
			size += uvarintLen(*f)
		}
	})
	t := Table{rows: make([]byte, 0, size), branches: a.branches}
	a.each(func(s *PCStats) {
		t.rows = binary.AppendUvarint(t.rows, uint64(s.PC))
		t.rows = append(t.rows, byte(s.Kind))
		for _, f := range tableFields(s) {
			t.rows = binary.AppendUvarint(t.rows, *f)
		}
	})
	return t
}

// rowCursor decodes a Table's rows one at a time, in site order, into one
// scratch PCStats that a caller must copy to keep.
type rowCursor struct {
	rest []byte
	s    PCStats
}

func (c *rowCursor) next() *PCStats {
	uv := func() uint64 {
		v, k := binary.Uvarint(c.rest)
		c.rest = c.rest[k:]
		return v
	}
	c.s.PC = isa.Addr(uv())
	c.s.Kind, c.rest = isa.Kind(c.rest[0]), c.rest[1:]
	for _, f := range tableFields(&c.s) {
		*f = uv()
	}
	return &c.s
}

// each calls fn on every row of t, in site order (see rowCursor).
func (t Table) each(fn func(s *PCStats)) {
	c := rowCursor{rest: t.rows}
	for range t.branches {
		fn(c.next())
	}
}

// Report builds the deterministic summary of the packed counts, equal to
// the collector's own: top n offenders under penalties p, all branches for
// n <= 0. A bounded report keeps only its n rows while it decodes.
func (t Table) Report(arch, program string, n int, p metrics.Penalties) Report {
	r := Report{Arch: arch, Program: program, StaticBranches: t.branches}
	// before orders offenders: more penalty cycles first, ties by PC.
	before := func(a, b *PCStats) bool {
		ca, cb := a.PenaltyCycles(p), b.PenaltyCycles(p)
		if ca != cb {
			return ca > cb
		}
		return a.PC < b.PC
	}
	keep := t.branches
	if n > 0 {
		keep = min(n, keep)
	}
	// top is a heap with its last-ranked row at the root once it holds
	// keep rows, so a row that ranks before the root replaces it.
	top := make([]PCStats, 0, keep)
	t.each(func(s *PCStats) {
		r.Breaks += s.Breaks
		r.Misfetches += s.Misfetches
		r.Mispredicts += s.Mispredicts
		r.Causes.Add(s.Causes)
		switch {
		case len(top) < keep:
			top = append(top, *s)
			if len(top) == keep && keep < t.branches {
				for i := keep/2 - 1; i >= 0; i-- {
					siftDown(top, i, before)
				}
			}
		case before(s, &top[0]):
			top[0] = *s
			siftDown(top, 0, before)
		}
	})
	r.PenaltyCycles = float64(r.Misfetches)*p.Misfetch + float64(r.Mispredicts)*p.Mispredict
	sort.Slice(top, func(i, j int) bool { return before(&top[i], &top[j]) })
	r.Top = top
	return r
}

// siftDown restores the heap order of h below i, where every row ranks
// before its parent.
func siftDown(h []PCStats, i int, before func(a, b *PCStats) bool) {
	for {
		j := 2*i + 1
		if j >= len(h) {
			return
		}
		if k := j + 1; k < len(h) && before(&h[j], &h[k]) {
			j = k
		}
		if !before(&h[i], &h[j]) {
			return
		}
		h[i], h[j] = h[j], h[i]
		i = j
	}
}
