package core

import (
	"repro/internal/cache"
	"repro/internal/isa"
)

// JohnsonCoupled reproduces the related-work design of §6.2: Johnson's
// cache-successor-index architecture as adopted by the TFP (MIPS R8000) —
// one predictor per four instructions, coupled to the cache line, with
// implicit one-bit direction prediction. The successor pointer is updated
// on *every* branch execution (taken → target location, not-taken →
// fall-through location), so the pointer itself encodes the last direction
// outcome. There is no decoupled PHT and no type field arbitration: a
// valid pointer is always followed.
//
// The paper's NLS design differs by updating the pointer only on taken
// branches and delegating direction to the two-level PHT; comparing the two
// isolates the value of decoupling.
type JohnsonCoupled struct {
	c           *cache.Cache
	g           cache.Geometry // c's geometry, cached off the hot paths
	perLine     int
	instrsPer   int
	instrShift  uint // log2(instrsPer)
	valid       []bool
	set         []uint16
	offset      []uint8
	way         []uint8
	slotsPerSet int
}

// JohnsonEntry is a successor pointer: the cache location the last
// execution of the covered branch continued at.
type JohnsonEntry struct {
	Valid  bool
	Set    uint16
	Offset uint8
	Way    uint8
}

// JohnsonInstrsPerPred is the number of instructions one successor index
// covers, so a Johnson cache line must hold a multiple of it.
const JohnsonInstrsPerPred = 4

// NewJohnson attaches successor-index predictors to the cache, one per four
// instructions as in the TFP.
func NewJohnson(c *cache.Cache) *JohnsonCoupled {
	g := c.Geometry()
	const instrsPerPred = JohnsonInstrsPerPred
	if g.InstrsPerLine()%instrsPerPred != 0 {
		panic("core: line must hold a multiple of 4 instructions")
	}
	perLine := g.InstrsPerLine() / instrsPerPred
	n := g.NumSets() * g.Assoc() * perLine
	j := &JohnsonCoupled{
		c:           c,
		g:           g,
		perLine:     perLine,
		instrsPer:   instrsPerPred,
		instrShift:  2, // log2(instrsPerPred)
		valid:       make([]bool, n),
		set:         make([]uint16, n),
		offset:      make([]uint8, n),
		way:         make([]uint8, n),
		slotsPerSet: g.Assoc() * perLine,
	}
	c.SetOnReplace(j.invalidateLine)
	return j
}

func (j *JohnsonCoupled) invalidateLine(set, way int) {
	base := set*j.slotsPerSet + way*j.perLine
	for i := 0; i < j.perLine; i++ {
		j.valid[base+i] = false
	}
}

func (j *JohnsonCoupled) slotFor(set, way, offset int) int {
	return set*j.slotsPerSet + way*j.perLine + offset>>j.instrShift
}

// Lookup returns the successor pointer covering the branch at pc, resident
// at (set, way).
func (j *JohnsonCoupled) Lookup(pc isa.Addr, set, way int) JohnsonEntry {
	s := j.slotFor(set, way, j.g.InstrOffset(pc))
	return JohnsonEntry{Valid: j.valid[s], Set: j.set[s], Offset: j.offset[s], Way: j.way[s]}
}

// PointsTo reports whether the pointer currently identifies the instruction
// at target (same check as Entry.PointsTo).
func (e JohnsonEntry) PointsTo(c *cache.Cache, target isa.Addr) bool {
	return e.Valid && c.PointsTo(int(e.Set), int(e.Offset), int(e.Way), target)
}

// Update trains the pointer with where execution actually continued —
// called for every executed branch, taken or not ("the cache index is
// updated even when a non-taken branch is executed", §6.2). next is the
// address of the instruction that executed after the branch and nextWay the
// way where its line resides.
func (j *JohnsonCoupled) Update(pc isa.Addr, next isa.Addr, nextWay int) {
	j.UpdateAt(pc, next, nextWay, j.g.SetIndex(pc), -1)
}

// UpdateAt is Update with the branch's fetch-time cache slot passed in:
// set MUST be pc's set index, and way is a residency hint (see
// LineCoupled.UpdateAt — same contract, same fallback).
func (j *JohnsonCoupled) UpdateAt(pc, next isa.Addr, nextWay, set, way int) {
	if !j.c.HoldsAt(set, way, pc) {
		var resident bool
		if way, resident = j.c.Probe(pc); !resident {
			return
		}
	}
	g := j.g
	s := j.slotFor(set, way, g.InstrOffset(pc))
	j.valid[s] = true
	j.set[s] = uint16(g.SetIndex(next))
	j.offset[s] = uint8(g.InstrOffset(next))
	j.way[s] = uint8(nextWay)
}

// PerLine returns the number of predictors per line.
func (j *JohnsonCoupled) PerLine() int { return j.perLine }

// SizeBits returns the storage cost: pointer plus valid bit per slot.
func (j *JohnsonCoupled) SizeBits() int {
	g := j.c.Geometry()
	return len(j.valid) * (1 + g.NLSPointerBits())
}

// Name identifies the design for reports.
func (j *JohnsonCoupled) Name() string { return "Johnson successor-index" }

// Reset invalidates all predictors.
func (j *JohnsonCoupled) Reset() {
	for i := range j.valid {
		j.valid[i] = false
	}
}
