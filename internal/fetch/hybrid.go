package fetch

import (
	"fmt"

	"repro/internal/btb"
	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/isa"
	"repro/internal/pht"
	"repro/internal/ras"
	"repro/internal/trace"
)

// hybridPredictor implements TargetPredictor for the NLS+BTB hybrid the
// ROADMAP sketches: the NLS-table pointer is the primary fetch predictor
// (fast, tag-less, cache-relative), and a small BTB is probed in parallel
// to supply a full target address exactly where full addresses win:
//
//   - an unknown branch (invalid NLS entry) whose target the BTB remembers,
//   - a taken branch whose NLS pointer names a cache slot that no longer
//     holds the target line (the displaced-line misfetch of §7) — the BTB's
//     full address validates the fetched line's tag and redirects, and
//   - a return the RAS cannot serve (stack underflow), where the BTB's
//     stored return address beats predicting nothing.
//
// The arbitration is implementable at fetch time: the NLS type field
// selects the mechanism as in §4, the BTB is read in the same cycle (small
// BTBs are fast, Figure 6), and a BTB hit either fills in for an invalid
// entry or tag-checks the line fetched through the NLS pointer. Direction
// prediction stays in the shared decoupled PHT and return addresses in the
// RAS, per §5.1's methodology.
type hybridPredictor struct {
	table  *core.Table
	buf    *btb.BTB
	icache *cache.Cache
	rstack *ras.Stack

	// The mechanism selected and entries read by the last Lookup,
	// retained for WrongPath.
	lastMode  hybMode
	lastEntry core.Entry
	lastB     btb.Entry
	lastBHit  bool
}

// hybMode is the fetch mechanism the hybrid followed for one break.
type hybMode uint8

const (
	hybFallThrough hybMode = iota // no prediction followed
	hybRAS                        // return served by the return stack
	hybPointer                    // NLS pointer followed (BTB validating)
	hybBTB                        // BTB full-address fallback followed
)

// Lookup implements TargetPredictor.
func (p *hybridPredictor) Lookup(rec trace.Record, set, way int, dirTaken bool) Outcome {
	entry := p.table.Lookup(rec.PC)
	bentry, bhit := p.buf.Lookup(rec.PC)

	// Select the fetch mechanism: the NLS type field first (§4), the BTB
	// filling in where the table predicts nothing it can act on.
	var mode hybMode
	switch entry.Type {
	case core.TypeInvalid:
		if bhit {
			mode = hybBTB
		} else {
			mode = hybFallThrough
		}
	case core.TypeReturn:
		if _, ok := p.rstack.Top(); ok {
			mode = hybRAS
		} else if bhit {
			mode = hybBTB // RAS underflow: the BTB's full address steps in
		} else {
			mode = hybFallThrough
		}
	case core.TypeCond:
		if dirTaken {
			mode = hybPointer
		} else {
			mode = hybFallThrough
		}
	case core.TypeOther:
		mode = hybPointer
	}
	p.lastMode, p.lastEntry, p.lastB, p.lastBHit = mode, entry, bentry, bhit

	next := rec.Next()
	var correct, followed bool
	switch mode {
	case hybFallThrough:
		correct = next == rec.PC.Next()
	case hybRAS:
		top, ok := p.rstack.Top()
		correct = ok && top == next
	case hybPointer:
		// The NLS pointer is followed; a parallel BTB hit tag-checks the
		// fetched line against its full address, so a displaced target
		// line is caught and redirected when the BTB knows the target.
		correct = entry.PointsTo(p.icache, next) || (bhit && bentry.Target == next)
		followed = true
	case hybBTB:
		followed = true
		switch rec.Kind {
		case isa.CondBranch:
			// A hit entry for a direct conditional carries its unique
			// target, so the fetch is right iff the direction was.
			correct = dirTaken == rec.Taken
		case isa.UncondBranch, isa.Call:
			correct = true
		case isa.IndirectJump:
			correct = bentry.Target == rec.Target
		case isa.Return:
			// Identified as a return: the RAS supplies the address when
			// it can, the BTB's last-seen return address otherwise.
			if top, ok := p.rstack.Top(); ok {
				correct = top == rec.Target
			} else {
				correct = bentry.Target == rec.Target
			}
		}
	}
	return Outcome{Correct: correct, Followed: followed}
}

// Update implements TargetPredictor: both halves train on every resolved
// break — the table's type field always, its pointer (deferred until the
// successor's way is known) and the BTB entry for taken branches.
func (p *hybridPredictor) Update(rec trace.Record) bool {
	if rec.Taken {
		p.buf.RecordTaken(rec.PC, rec.Target, rec.Kind)
		return true
	}
	p.table.Update(rec.PC, rec.Kind, false, 0, 0)
	return false
}

// Resolve implements TargetPredictor, completing the deferred taken-branch
// pointer update.
func (p *hybridPredictor) Resolve(rec trace.Record, way int) {
	p.table.Update(rec.PC, rec.Kind, true, rec.Target, way)
}

// trained implements causeExplainer. The hybrid needs no shadow state:
// its table half is tag-less (a written entry never invalidates, so
// eviction loss is structurally impossible), and an invalid table entry
// implies the branch never trained — which also means its taken target never
// entered the BTB half.
func (p *hybridPredictor) trained() *trainedSet { return nil }

// lastCause implements causeExplainer, explaining the last Lookup's miss
// from the mechanism the hybrid followed. Decoupled direction errors never
// reach here (the frontend claims them first).
func (p *hybridPredictor) lastCause(rec trace.Record, _ bool, _ uint32) Cause {
	switch p.lastMode {
	case hybFallThrough:
		if p.lastEntry.Type == core.TypeInvalid {
			return CauseCold
		}
		// An aliased entry chose fall-through for a taken break.
		return CauseStalePointer
	case hybRAS, hybPointer:
		// hybRAS only reaches here for a non-return an aliased entry
		// routed to the stack (a return served wrong is the frontend's
		// RASMiss); hybPointer is a stale cache-relative pointer.
		return CauseStalePointer
	case hybBTB:
		return CauseWrongTarget
	}
	return CauseNone
}

// WrongPath implements TargetPredictor: the address actually fetched by the
// mechanism the hybrid followed.
func (p *hybridPredictor) WrongPath(rec trace.Record) (isa.Addr, bool) {
	switch p.lastMode {
	case hybFallThrough:
		return rec.PC.Next(), true
	case hybRAS:
		if top, ok := p.rstack.Top(); ok {
			return top, true
		}
		return rec.PC.Next(), true
	case hybBTB:
		return p.lastB.Target, true
	case hybPointer:
		if p.lastBHit {
			return p.lastB.Target, true // BTB validation redirected here
		}
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
func (p *hybridPredictor) Name() string {
	return fmt.Sprintf("%d NLS+%d BTB hybrid", p.table.Len(), p.buf.Config().Entries)
}

// SizeBits implements TargetPredictor: both halves count toward the
// equal-cost comparison.
func (p *hybridPredictor) SizeBits() int { return p.table.SizeBits() + p.buf.SizeBits() }

// Reset implements TargetPredictor.
func (p *hybridPredictor) Reset() {
	p.table.Reset()
	p.buf.Reset()
}

// NewHybridEngine builds the NLS+BTB hybrid architecture: a Frontend
// driven by a hybridPredictor, an NLS-table with tableEntries entries
// backed by a BTB of cfg, sharing the frontend's decoupled PHT and RAS.
// dir is shared-use: pass a fresh predictor per engine.
func NewHybridEngine(g cache.Geometry, tableEntries int, cfg btb.Config, dir pht.Predictor, rasDepth int) *Frontend {
	f := newFrontend(g, dir, rasDepth)
	f.bind(&hybridPredictor{
		table:  core.NewTable(tableEntries, g),
		buf:    btb.New(cfg),
		icache: f.icache,
		rstack: f.rstack,
	}, Traits{})
	return f
}
