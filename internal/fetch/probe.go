package fetch

import (
	"repro/internal/isa"
	"repro/internal/trace"
)

// Per-branch attribution probes.
//
// The counters of package metrics answer "how often does each architecture
// pay a penalty"; they cannot answer "which branches pay it, and why" — the
// causal questions the paper's arguments turn on (NLS-cache state dies with
// evicted lines, the RAS saves returns, tag-less tables alias). A Probe
// attached to a Frontend receives one typed BreakEvent per resolved
// control-transfer instruction, carrying the predicted and actual direction
// and target plus a Cause classifying any penalty. The contract is
// zero-overhead when detached: the only cost on the unprobed hot path is a
// nil check per break (see DESIGN.md §10 and BenchmarkSweepBroadcast).
//
// Probes observe; they must not mutate engine state. Counters of a probed
// run are bit-identical to the same run without a probe (asserted by
// TestProbeCountersBitIdentical for every architecture).

// PenaltyClass is the §5.2 classification of one break's outcome.
type PenaltyClass uint8

const (
	// PenaltyNone: the front end fetched the correct next instruction.
	PenaltyNone PenaltyClass = iota
	// PenaltyMisfetch: wrong path until decode (1 cycle).
	PenaltyMisfetch
	// PenaltyMispredict: wrong value discovered at execute (4 cycles).
	PenaltyMispredict
)

// String names the penalty class.
func (p PenaltyClass) String() string {
	switch p {
	case PenaltyNone:
		return "none"
	case PenaltyMisfetch:
		return "misfetch"
	case PenaltyMispredict:
		return "mispredict"
	}
	return "?"
}

// Cause is the root-cause taxonomy of a wrong fetch. The frontend assigns
// the architecture-independent causes (wrong PHT direction, RAS misses);
// each TargetPredictor explains its own misses through the unexported
// causeExplainer hook. Classification of correct breaks is CauseNone.
type Cause uint8

const (
	// CauseNone: no penalty.
	CauseNone Cause = iota
	// CauseCold: the predictor held no state for this branch — first
	// encounter, or a never-taken branch no structure allocates for.
	CauseCold
	// CauseDirWrong: the direction prediction (decoupled PHT, or a coupled
	// per-entry counter) was wrong.
	CauseDirWrong
	// CauseStalePointer: an NLS/successor pointer (or an aliased tag-less
	// entry) was consulted and named the wrong cache location — aliasing,
	// a moved target, or a target line displaced from the cache (§7).
	CauseStalePointer
	// CauseEvictionLoss: line-coupled predictor state previously trained
	// for this branch was discarded when its cache line was replaced —
	// the NLS-cache's central weakness (§4.1, §6.1). Structurally zero
	// for the decoupled NLS-table, whose entries survive cache eviction.
	CauseEvictionLoss
	// CauseRASMiss: the return address stack underflowed or its top was
	// wrong for a return.
	CauseRASMiss
	// CauseBTBConflict: the branch was in the BTB before but its entry
	// was displaced by conflict or capacity pressure.
	CauseBTBConflict
	// CauseWrongTarget: a full-address target prediction was followed and
	// was wrong (moving indirect targets).
	CauseWrongTarget
	// NumCauses bounds arrays indexed by Cause.
	NumCauses
)

// String names the cause for reports.
func (c Cause) String() string {
	switch c {
	case CauseNone:
		return "none"
	case CauseCold:
		return "cold"
	case CauseDirWrong:
		return "dir-wrong"
	case CauseStalePointer:
		return "stale-pointer"
	case CauseEvictionLoss:
		return "eviction-loss"
	case CauseRASMiss:
		return "ras-miss"
	case CauseBTBConflict:
		return "btb-conflict"
	case CauseWrongTarget:
		return "wrong-target"
	}
	return "?"
}

// BreakEvent is one resolved control-transfer instruction as the probe
// sees it: what the front end predicted, what actually happened, and — for
// wrong fetches — why.
type BreakEvent struct {
	// PC and Kind identify the static branch.
	PC   isa.Addr
	Kind isa.Kind
	// Taken and Target are the architectural outcome.
	Taken  bool
	Target isa.Addr
	// PredTaken is the predicted direction (PHT, or the coupled
	// predictor's own state), Followed whether a predicted target was
	// followed rather than the fall-through.
	PredTaken bool
	Followed  bool
	// Penalty classifies the fetch per §5.2; Cause explains it.
	Penalty PenaltyClass
	Cause   Cause
	// WrongPath is the address the front end actually fetched before the
	// redirect (valid when WrongPathKnown); Polluted reports that the
	// touch was applied to the i-cache (pollution modelling enabled).
	WrongPath      isa.Addr
	WrongPathKnown bool
	Polluted       bool
}

// Probe receives the event stream of one engine. Implementations are
// engine-private: the broadcast replay gives each engine (and so each
// probe) to exactly one worker goroutine.
type Probe interface {
	Break(ev BreakEvent)
}

// causeExplainer is the optional per-predictor half of cause
// classification: lastCause explains the most recent Lookup for rec, and
// enableTracking switches on the shadow state (ever-trained sets) that
// separates cold misses from eviction and conflict losses. Tracking is off
// until a probe is attached, so the unprobed hot path never touches it.
type causeExplainer interface {
	lastCause(rec trace.Record, dirTaken bool) Cause
	enableTracking()
}

// AttachProbe connects a probe to the frontend (nil detaches). Attach
// before the run starts: cause tracking begins at attach time, and events
// for breaks stepped earlier are not replayed.
func (f *Frontend) AttachProbe(p Probe) {
	f.probe = p
	if p != nil {
		if ce, ok := f.bpu.tp.(causeExplainer); ok {
			ce.enableTracking()
		}
	}
}

// emitBreak builds and delivers the event for one resolved break. Called
// only when a probe is attached, after the break's architectural effects
// (RAS push/pop, pollution touches) and before the predictor trains on it —
// so cause tracking still describes the state the prediction was made from.
func (f *Frontend) emitBreak(rec trace.Record, out Outcome, dirTaken bool, penalty PenaltyClass) {
	ev := BreakEvent{
		PC: rec.PC, Kind: rec.Kind, Taken: rec.Taken, Target: rec.Target,
		PredTaken: dirTaken, Followed: out.Followed, Penalty: penalty,
	}
	if penalty != PenaltyNone {
		ev.Cause = f.classifyCause(rec, out, dirTaken, penalty)
		if wp, ok := f.bpu.tp.WrongPath(rec); ok {
			ev.WrongPath, ev.WrongPathKnown = wp, true
			ev.Polluted = f.pollution.enabled
		}
	}
	f.probe.Break(ev)
}

// classifyCause assigns the root cause of a penalized break. Two causes
// belong to frontend-owned state and are claimed before the predictor is
// consulted: a decoupled direction error is the PHT's fault regardless of
// target state, and under a RAS discipline a return mispredicts exactly when
// the stack was wrong (§6's accounting), so no target predictor could have
// saved it. Everything else defers to the predictor's own explanation, with
// architecture-independent fallbacks for predictors that offer none.
func (f *Frontend) classifyCause(rec trace.Record, out Outcome, dirTaken bool, penalty PenaltyClass) Cause {
	if !f.bpu.traits.CoupledDirection && rec.Kind == isa.CondBranch && dirTaken != rec.Taken {
		return CauseDirWrong
	}
	if !f.bpu.traits.NoRAS && rec.Kind == isa.Return && penalty == PenaltyMispredict {
		return CauseRASMiss
	}
	if ce, ok := f.bpu.tp.(causeExplainer); ok {
		if c := ce.lastCause(rec, dirTaken); c != CauseNone {
			return c
		}
	}
	if rec.Kind == isa.CondBranch && dirTaken != rec.Taken {
		return CauseDirWrong
	}
	if out.Followed {
		return CauseWrongTarget
	}
	return CauseCold
}

// trainedSet is the shadow "ever trained" state behind eviction- and
// conflict-loss attribution: nil (and untouched) until a probe enables
// tracking, so the unprobed hot path pays only a nil check per update.
type trainedSet map[isa.Addr]struct{}

func (t trainedSet) mark(pc isa.Addr) {
	if t != nil {
		t[pc] = struct{}{}
	}
}

func (t trainedSet) has(pc isa.Addr) bool {
	if t == nil {
		return false
	}
	_, ok := t[pc]
	return ok
}
