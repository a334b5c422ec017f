package fetch

import (
	"maps"

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
	// PC and Kind identify the static branch. Site numbers it densely:
	// the engine's static break PCs in first-seen order since its first
	// probe attached, so a probe may index slices by Site instead of
	// hashing PC. It is identical on every replay path (DESIGN.md §10).
	PC   isa.Addr
	Kind isa.Kind
	Site uint32
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
// classification: lastCause explains the most recent Lookup for rec, the
// break numbered site, and trained returns the predictor's shadow "ever
// trained" state that separates cold misses from eviction and conflict
// losses (nil when it keeps none; see trainedSet).
type causeExplainer interface {
	lastCause(rec trace.Record, dirTaken bool, site uint32) Cause
	trained() *trainedSet
}

// AttachProbe connects a probe to the frontend (nil detaches). Attach
// before the run starts: cause tracking and site numbering begin when the
// first probe attaches, and events for breaks stepped earlier are not
// replayed; a break whose update was deferred before then trains no site
// when it resolves. Both go on after a detach, so a later probe sees the
// same sites and causes it would have seen attached all along.
func (f *Frontend) AttachProbe(p Probe) {
	f.probe = p
	if p != nil && f.sites == nil {
		f.sites = &siteTable{ids: make(map[isa.Addr]uint32)}
		f.bpu.explain, _ = f.bpu.tp.(causeExplainer)
		if t := f.trainedSet(); t != nil {
			t.on = true
		}
		f.pending.site = noSite
	}
}

// noSite is the site of a break stepped before the first probe attached.
const noSite = ^uint32(0)

// trainedSet returns the target predictor's shadow state once a probe has
// attached, else nil.
func (f *Frontend) trainedSet() *trainedSet {
	if f.bpu.explain == nil {
		return nil
	}
	return f.bpu.explain.trained()
}

// trainAt tells the predictor's shadow state, when it keeps one, that its
// next Update or Resolve trains the break numbered site. Callers check
// f.bpu.explain first, so the unprobed hot path makes no call.
func (f *Frontend) trainAt(site uint32) {
	if t := f.bpu.explain.trained(); t != nil {
		t.at = site
	}
}

// siteTable numbers static break PCs densely, in first-seen order. After a
// broadcast its readers share the driver's table; shared marks it, and a
// holder copies it before assigning a new id.
type siteTable struct {
	ids    map[isa.Addr]uint32
	shared bool
}

// id returns pc's site, assigning the next one to a new pc. t must not be
// shared.
func (t *siteTable) id(pc isa.Addr) uint32 {
	s, ok := t.ids[pc]
	if !ok {
		s = uint32(len(t.ids))
		t.ids[pc] = s
	}
	return s
}

// clone returns an unshared copy of t.
func (t *siteTable) clone() *siteTable {
	return &siteTable{ids: maps.Clone(t.ids)}
}

// nextSite returns the site of the break at pc: the next id of the current
// block's site annotation when a broadcast gives one (siteIn), else the
// engine's own numbering.
func (f *Frontend) nextSite(pc isa.Addr) uint32 {
	if f.siteIn != nil {
		s := f.siteIn[0]
		f.siteIn = f.siteIn[1:]
		return s
	}
	if f.sites.shared {
		if s, ok := f.sites.ids[pc]; ok {
			return s
		}
		f.sites = f.sites.clone()
	}
	return f.sites.id(pc)
}

// emitBreak builds and delivers the event for one resolved break. Called
// only when a probe is attached, after the break's architectural effects
// (RAS push/pop, pollution touches) and before the predictor trains on it —
// so cause tracking still describes the state the prediction was made from.
func (f *Frontend) emitBreak(rec trace.Record, site uint32, out Outcome, dirTaken bool, penalty PenaltyClass) {
	ev := BreakEvent{
		PC: rec.PC, Kind: rec.Kind, Site: site, Taken: rec.Taken, Target: rec.Target,
		PredTaken: dirTaken, Followed: out.Followed, Penalty: penalty,
	}
	if penalty != PenaltyNone {
		ev.Cause = f.classifyCause(rec, site, out, dirTaken, penalty)
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
func (f *Frontend) classifyCause(rec trace.Record, site uint32, out Outcome, dirTaken bool, penalty PenaltyClass) Cause {
	if !f.bpu.traits.CoupledDirection && rec.Kind == isa.CondBranch && dirTaken != rec.Taken {
		return CauseDirWrong
	}
	if !f.bpu.traits.NoRAS && rec.Kind == isa.Return && penalty == PenaltyMispredict {
		return CauseRASMiss
	}
	if ce := f.bpu.explain; ce != nil {
		if c := ce.lastCause(rec, dirTaken, site); c != CauseNone {
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
// conflict-loss attribution: one bit per site. It is off until a probe
// attaches, so the unprobed hot path pays only the on check in mark. From
// then on the Frontend sets at to the site of the break that each Update
// or Resolve trains (trainAt), and the predictor calls mark where it
// writes that break's state.
type trainedSet struct {
	bits []uint64
	at   uint32
	on   bool
}

// mark records that the break at was trained.
func (t *trainedSet) mark() {
	if !t.on || t.at == noSite {
		return
	}
	w := int(t.at >> 6)
	if w >= len(t.bits) {
		t.bits = append(t.bits, make([]uint64, w+1-len(t.bits))...)
	}
	t.bits[w] |= 1 << (t.at & 63)
}

// has reports whether the break numbered site was ever trained.
func (t *trainedSet) has(site uint32) bool {
	w := int(site >> 6)
	return w < len(t.bits) && t.bits[w]>>(site&63)&1 != 0
}

// reset forgets every trained site (tracking stays on).
func (t *trainedSet) reset() { clear(t.bits) }
