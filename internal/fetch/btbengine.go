package fetch

import (
	"repro/internal/btb"
	"repro/internal/cache"
	"repro/internal/isa"
	"repro/internal/pht"
	"repro/internal/ras"
	"repro/internal/trace"
)

// btbPredictor implements TargetPredictor for the decoupled BTB
// architecture of §3: a tagged, set-associative BTB holding full target
// addresses and branch types for taken branches, with direction prediction
// left to the Frontend's decoupled PHT and return targets to its RAS.
//
// Because the BTB holds full addresses, its fetch predictions never depend
// on instruction cache contents: a correct BTB target is a correct fetch
// even if the target line is absent (the miss just starts a cycle earlier
// than it would under NLS, §7). Consequently the BTB's branch execution
// penalty is independent of the cache configuration — the property the
// paper's Figure 7 calls out.
type btbPredictor struct {
	buf    *btb.BTB
	rstack *ras.Stack

	// The entry read by the last Lookup, retained for WrongPath.
	lastEntry btb.Entry
	lastHit   bool

	// track records which PCs ever entered the BTB, for cause attribution
	// only (nil until a probe enables tracking).
	track trainedSet
}

// Lookup implements TargetPredictor.
func (p *btbPredictor) Lookup(rec trace.Record, _, _ int, dirTaken bool) Outcome {
	entry, hit := p.buf.Lookup(rec.PC)
	p.lastEntry, p.lastHit = entry, hit

	// Full-address prediction, so correctness is pure address comparison
	// per kind; the Frontend's §6 classification does the rest.
	var correct bool
	switch rec.Kind {
	case isa.CondBranch:
		// A hit entry for a direct conditional always carries the
		// branch's (unique) target, so a right direction mispredicts
		// nothing and a taken prediction fetches right iff it hit.
		correct = dirTaken == rec.Taken && (!rec.Taken || hit)
	case isa.UncondBranch, isa.Call:
		correct = hit
	case isa.IndirectJump:
		correct = hit && entry.Target == rec.Target
	case isa.Return:
		// Identified as a return on a hit, so the fetch is right iff
		// the stack top (about to be popped by the Frontend) is right.
		top, ok := p.rstack.Top()
		correct = hit && ok && top == rec.Target
	}
	return Outcome{Correct: correct, Followed: hit}
}

// Update implements TargetPredictor: only taken branches enter or refresh
// the BTB (§3); full addresses need no deferral.
func (p *btbPredictor) Update(rec trace.Record) bool {
	if rec.Taken {
		p.track.mark(rec.PC)
		p.buf.RecordTaken(rec.PC, rec.Target, rec.Kind)
	}
	return false
}

// Resolve implements TargetPredictor (never deferred).
func (p *btbPredictor) Resolve(trace.Record, int) {}

// enableTracking implements causeExplainer.
func (p *btbPredictor) enableTracking() {
	if p.track == nil {
		p.track = make(trainedSet)
	}
}

// lastCause implements causeExplainer. A BTB miss for a branch that was
// inserted before means its entry was displaced by conflict or capacity
// pressure (§3's tagged, set-associative organization has no other way to
// lose an entry); the only penalized hit that reaches here is a moving
// indirect target (direction and return errors are the frontend's).
func (p *btbPredictor) lastCause(rec trace.Record, _ bool) Cause {
	if !p.lastHit {
		if p.track.has(rec.PC) {
			return CauseBTBConflict
		}
		return CauseCold
	}
	return CauseWrongTarget
}

// WrongPath implements TargetPredictor, approximating the wrong-path fetch
// as the predicted target on a hit, the fall-through otherwise.
func (p *btbPredictor) WrongPath(rec trace.Record) (isa.Addr, bool) {
	if p.lastHit {
		return p.lastEntry.Target, true
	}
	return rec.PC.Next(), true
}

// invariantKey implements the broadcast echo dedup's eligibility probe
// (see Frontend.echoInvariant): the BTB's break accounting never reads the
// i-cache — correctness is pure address comparison against full stored
// targets plus the RAS — and Update never defers on the successor's cache
// way, so from a cold buffer the predictor's entire evolution is a function
// of the trace alone, identical under every cache geometry. The key pins
// the configuration; eligibility additionally requires the cold state and
// no attribution tracking (a probed run must observe real per-engine
// lookups).
func (p *btbPredictor) invariantKey() (string, bool) {
	if p.track != nil || !p.buf.Cold() {
		return "", false
	}
	return "btb:" + p.buf.Config().String(), true
}

// Name implements TargetPredictor.
func (p *btbPredictor) Name() string { return p.buf.Config().String() }

// SizeBits implements TargetPredictor.
func (p *btbPredictor) SizeBits() int { return p.buf.SizeBits() }

// Reset implements TargetPredictor.
func (p *btbPredictor) Reset() {
	p.buf.Reset()
	if p.track != nil {
		clear(p.track)
	}
}

// NewBTBEngine builds the decoupled BTB architecture: a Frontend driven by
// a btbPredictor. dir is shared-use: pass a fresh predictor per engine.
func NewBTBEngine(g cache.Geometry, cfg btb.Config, dir pht.Directional, rasDepth int) *Frontend {
	f := newFrontend(g, dir, rasDepth)
	f.bind(&btbPredictor{buf: btb.New(cfg), rstack: f.rstack}, Traits{})
	return f
}
