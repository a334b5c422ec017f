package fetch

import (
	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/isa"
	"repro/internal/pht"
	"repro/internal/trace"
)

// johnsonPredictor implements TargetPredictor for the related-work baseline
// of §6.2: Johnson's cache-successor-index design as used by the TFP (MIPS
// R8000). One successor pointer per four instructions is coupled to each
// cache line and updated on every branch execution to the location
// execution continued at — taken target or fall-through — giving implicit
// one-bit direction prediction. There is no decoupled PHT, no type field,
// and no return stack: every branch follows its pointer when one is valid
// (Traits{CoupledDirection, NoRAS}).
//
// Comparing this predictor with nlsPredictor isolates the paper's two
// improvements over Johnson: updating pointers only on taken branches, and
// decoupling direction prediction into a two-level PHT.
type johnsonPredictor struct {
	store  *core.JohnsonCoupled
	icache *cache.Cache
	// geom mirrors icache.Geometry(), cached so the per-break Lookup does
	// not copy the geometry struct out of the cache on every call.
	geom cache.Geometry

	// The last Lookup's pointer state, retained for WrongPath.
	lastEntry    core.JohnsonEntry
	lastFollowed bool
	// The branch's fetch-time cache slot from the last Lookup, passed to
	// the deferred update as a residency hint.
	lastSet, lastWay int

	// track records which sites ever wrote a successor pointer, for
	// cause attribution only (see causeExplainer).
	track trainedSet
}

// Lookup implements TargetPredictor.
func (p *johnsonPredictor) Lookup(rec trace.Record, set, way int, _ bool) Outcome {
	entry := p.store.Lookup(rec.PC, set, way)

	next := rec.Next()
	var correct, followed bool
	if entry.Valid {
		followed = true
		correct = entry.PointsTo(p.icache, next)
	} else {
		correct = next == rec.PC.Next()
	}
	p.lastEntry, p.lastFollowed = entry, followed
	p.lastSet, p.lastWay = set, way

	// The pointer encodes the last direction: pointing at the
	// fall-through location means "predict not taken".
	dirTaken := false
	if rec.Kind == isa.CondBranch {
		g := &p.geom
		fall := rec.PC.Next()
		dirTaken = followed &&
			!(int(entry.Set) == g.SetIndex(fall) && int(entry.Offset) == g.InstrOffset(fall))
	}
	return Outcome{Correct: correct, Followed: followed, DirTaken: dirTaken}
}

// Update implements TargetPredictor: Johnson updates the successor index on
// every branch execution (taken or not), deferring until the successor's
// way is known.
func (p *johnsonPredictor) Update(trace.Record) bool { return true }

// Resolve implements TargetPredictor, completing the deferred successor
// update now that the successor's cache way is known.
func (p *johnsonPredictor) Resolve(rec trace.Record, way int) {
	p.track.mark()
	p.store.UpdateAt(rec.PC, rec.Next(), way, p.lastSet, p.lastWay)
}

// trained implements causeExplainer.
func (p *johnsonPredictor) trained() *trainedSet { return &p.track }

// lastCause implements causeExplainer. Johnson's successor pointers are
// line-coupled, so an invalid pointer for a branch that updated one before
// means the line (and its predictor state) was evicted. A followed pointer
// that encoded the wrong direction is the implicit one-bit direction
// predictor's fault (the frontend labels it DirWrong); any other followed
// miss is a stale cache-relative pointer.
func (p *johnsonPredictor) lastCause(rec trace.Record, dirTaken bool, site uint32) Cause {
	if !p.lastFollowed {
		if p.track.has(site) {
			return CauseEvictionLoss
		}
		return CauseCold
	}
	if rec.Kind == isa.CondBranch && dirTaken != rec.Taken {
		return CauseNone // frontend labels the implicit direction error
	}
	return CauseStalePointer
}

// WrongPath implements TargetPredictor: the resident line at the followed
// pointer slot, or the fall-through when no pointer was valid.
func (p *johnsonPredictor) WrongPath(rec trace.Record) (isa.Addr, bool) {
	if !p.lastFollowed {
		return rec.PC.Next(), true
	}
	line, ok := p.icache.ResidentAt(int(p.lastEntry.Set), int(p.lastEntry.Way))
	if !ok {
		return 0, false // predicted slot empty: nothing fetched
	}
	g := p.icache.Geometry()
	return isa.Addr(line)*isa.Addr(g.LineBytes()) +
		isa.Addr(int(p.lastEntry.Offset)*isa.InstrBytes), true
}

// Name implements TargetPredictor.
func (p *johnsonPredictor) Name() string { return p.store.Name() }

// SizeBits implements TargetPredictor.
func (p *johnsonPredictor) SizeBits() int { return p.store.SizeBits() }

// Reset implements TargetPredictor.
func (p *johnsonPredictor) Reset() {
	p.store.Reset()
	p.track.reset()
}

// NewJohnsonEngine builds the successor-index baseline: a Frontend driven
// by a johnsonPredictor with no PHT and no RAS. The base PHT slot is
// unused (Johnson has no separate direction predictor); the RAS is
// allocated but never consulted.
func NewJohnsonEngine(g cache.Geometry) *Frontend {
	f := newFrontend(g, pht.Static{}, 1)
	f.bind(&johnsonPredictor{
		store:  core.NewJohnson(f.icache),
		icache: f.icache,
		geom:   g,
	}, Traits{CoupledDirection: true, NoRAS: true})
	return f
}
