package fetch

import (
	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/isa"
	"repro/internal/pht"
	"repro/internal/ras"
	"repro/internal/trace"
)

// nlsStore abstracts the two NLS organizations (table and line-coupled) so
// one predictor implements the NLS fetch architecture for both. The set and
// way arguments identify where the branch instruction itself resides in the
// cache (known at fetch time, since the branch was just fetched); the
// tag-less table ignores them.
type nlsStore interface {
	lookup(pc isa.Addr, set, way int) core.Entry
	// update trains the store after the branch at pc resolves. set/way
	// echo the slot the branch was fetched from (the last lookup's
	// arguments): line-coupled stores use them as a verified residency
	// hint (core.LineCoupled.UpdateAt); the tag-less table ignores them.
	update(pc isa.Addr, kind isa.Kind, taken bool, target isa.Addr, targetWay, set, way int)
	name() string
	reset()
	sizeBits() int
}

type tableStore struct{ t *core.Table }

func (s tableStore) lookup(pc isa.Addr, _, _ int) core.Entry { return s.t.Lookup(pc) }
func (s tableStore) update(pc isa.Addr, kind isa.Kind, taken bool, target isa.Addr, way, _, _ int) {
	s.t.Update(pc, kind, taken, target, way)
}
func (s tableStore) name() string  { return s.t.Name() }
func (s tableStore) reset()        { s.t.Reset() }
func (s tableStore) sizeBits() int { return s.t.SizeBits() }

type coupledStore struct{ l *core.LineCoupled }

func (s coupledStore) lookup(pc isa.Addr, set, way int) core.Entry {
	return s.l.Lookup(pc, set, way)
}
func (s coupledStore) update(pc isa.Addr, kind isa.Kind, taken bool, target isa.Addr, way, set, fway int) {
	s.l.UpdateAt(pc, kind, taken, target, way, set, fway)
}
func (s coupledStore) name() string  { return s.l.Name() }
func (s coupledStore) reset()        { s.l.Reset() }
func (s coupledStore) sizeBits() int { return s.l.SizeBits() }

// predMode is the fetch mechanism selected by the NLS type field (§4's
// type-field table).
type predMode uint8

const (
	modeFallThrough predMode = iota // invalid entry, or PHT says not taken
	modeRAS                         // type = return
	modePointer                     // pointer followed (taken cond / other)
)

// nlsPredictor implements TargetPredictor for the NLS fetch architecture of
// §4, over either NLS organization; instantiating it per concrete store
// type devirtualizes the store calls on the replay hot path. The instruction fetched is assumed
// identifiable as branch or non-branch during fetch (pre-decode bit, §4),
// so non-branches always fetch the fall-through line correctly and branches
// consult their NLS entry.
type nlsPredictor[S nlsStore] struct {
	store  S
	icache *cache.Cache
	rstack *ras.Stack

	// The mechanism selected and entry read by the last Lookup, retained
	// for WrongPath.
	lastMode  predMode
	lastEntry core.Entry
	// The branch's fetch-time cache slot from the last Lookup, passed to
	// the store's update as a residency hint (one break is in flight at a
	// time, so the pending update always belongs to the last lookup).
	lastSet, lastWay int

	// track records which sites ever had NLS state written, for cause
	// attribution only (see causeExplainer).
	track trainedSet
}

// Lookup implements TargetPredictor.
func (p *nlsPredictor[S]) Lookup(rec trace.Record, set, way int, dirTaken bool) Outcome {
	entry := p.store.lookup(rec.PC, set, way)

	// Select the fetch mechanism from the type field (§4).
	var mode predMode
	switch entry.Type {
	case core.TypeInvalid:
		mode = modeFallThrough
	case core.TypeReturn:
		mode = modeRAS
	case core.TypeCond:
		if dirTaken {
			mode = modePointer
		} else {
			mode = modeFallThrough
		}
	case core.TypeOther:
		mode = modePointer
	}
	p.lastMode, p.lastEntry = mode, entry
	p.lastSet, p.lastWay = set, way

	// Was the fetch correct? Fall-through and return-stack predictions
	// carry full addresses (the fall-through address is precomputed and
	// the RAS stores full addresses), so they are address-checked; the
	// NLS pointer is a cache location and is correct only if the
	// predicted slot currently holds the actual next instruction.
	next := rec.Next()
	var correct bool
	switch mode {
	case modeFallThrough:
		correct = next == rec.PC.Next()
	case modeRAS:
		top, ok := p.rstack.Top()
		correct = ok && top == next
	case modePointer:
		correct = entry.PointsTo(p.icache, next)
	}
	return Outcome{Correct: correct, Followed: mode == modePointer}
}

// Update implements TargetPredictor: type always; pointer only for taken
// branches, deferred until the target's way is known.
func (p *nlsPredictor[S]) Update(rec trace.Record) bool {
	if rec.Taken {
		return true
	}
	p.track.mark()
	p.store.update(rec.PC, rec.Kind, false, 0, 0, p.lastSet, p.lastWay)
	return false
}

// Resolve implements TargetPredictor, completing the deferred taken-branch
// pointer update now that the target's cache way is known.
func (p *nlsPredictor[S]) Resolve(rec trace.Record, way int) {
	p.track.mark()
	p.store.update(rec.PC, rec.Kind, true, rec.Target, way, p.lastSet, p.lastWay)
}

// trained implements causeExplainer.
func (p *nlsPredictor[S]) trained() *trainedSet { return &p.track }

// lastCause implements causeExplainer, explaining the last Lookup's miss
// from the mechanism it selected. An invalid entry for a branch that was
// trained before can only mean line-coupled state died with an evicted line
// (the tag-less table never invalidates a written entry), which is exactly
// the NLS-cache weakness the attribution report exists to expose.
func (p *nlsPredictor[S]) lastCause(rec trace.Record, _ bool, site uint32) Cause {
	switch p.lastMode {
	case modeRAS:
		if rec.Kind == isa.Return {
			return CauseRASMiss
		}
		// An aliased (or stale line-coupled) entry mislabeled a
		// non-return as a return and routed it to the stack.
		return CauseStalePointer
	case modePointer:
		return CauseStalePointer
	case modeFallThrough:
		if p.lastEntry.Type == core.TypeInvalid {
			if p.track.has(site) {
				return CauseEvictionLoss
			}
			return CauseCold
		}
		// A valid entry chose fall-through and was wrong: a decoupled
		// direction error (the frontend labels it) or an aliased type.
		if rec.Kind == isa.CondBranch {
			return CauseNone
		}
		return CauseStalePointer
	}
	return CauseNone
}

// WrongPath implements TargetPredictor: the address the NLS hardware
// actually fetched when its selected mechanism was wrong — the resident
// line at the predicted pointer slot, the fall-through, or the return-stack
// top.
func (p *nlsPredictor[S]) WrongPath(rec trace.Record) (isa.Addr, bool) {
	switch p.lastMode {
	case modeFallThrough:
		return rec.PC.Next(), true
	case modeRAS:
		if top, ok := p.rstack.Top(); ok {
			return top, true
		}
		return rec.PC.Next(), true
	case modePointer:
		line, ok := p.icache.ResidentAt(int(p.lastEntry.Set), int(p.lastEntry.Way))
		if !ok {
			return 0, false // predicted slot empty: nothing fetched
		}
		g := p.icache.Geometry()
		return isa.Addr(line)*isa.Addr(g.LineBytes()) +
			isa.Addr(int(p.lastEntry.Offset)*isa.InstrBytes), true
	}
	return 0, false
}

// Name implements TargetPredictor.
func (p *nlsPredictor[S]) Name() string { return p.store.name() }

// SizeBits implements TargetPredictor.
func (p *nlsPredictor[S]) SizeBits() int { return p.store.sizeBits() }

// Reset implements TargetPredictor.
func (p *nlsPredictor[S]) Reset() {
	p.store.reset()
	p.track.reset()
}

// newNLSEngine builds the NLS fetch architecture: a Frontend driven by an
// nlsPredictor over either NLS organization.
func newNLSEngine[S nlsStore](g cache.Geometry, dir pht.Predictor, rasDepth int, mk func(*cache.Cache) S) *Frontend {
	f := newFrontend(g, dir, rasDepth)
	f.bind(&nlsPredictor[S]{
		store:  mk(f.icache),
		icache: f.icache,
		rstack: f.rstack,
	}, Traits{})
	return f
}

// NewNLSTableEngine builds an NLS architecture using a tag-less NLS-table
// with the given number of entries (§4.1).
func NewNLSTableEngine(g cache.Geometry, tableEntries int, dir pht.Predictor, rasDepth int) *Frontend {
	return newNLSEngine(g, dir, rasDepth, func(*cache.Cache) tableStore {
		return tableStore{core.NewTable(tableEntries, g)}
	})
}

// NewNLSCacheEngine builds an NLS architecture with predictors coupled to
// cache lines (the NLS-cache of §4.1), perLine predictors per line.
func NewNLSCacheEngine(g cache.Geometry, perLine int, dir pht.Predictor, rasDepth int) *Frontend {
	return newNLSEngine(g, dir, rasDepth, func(c *cache.Cache) coupledStore {
		return coupledStore{core.NewLineCoupled(c, perLine)}
	})
}
