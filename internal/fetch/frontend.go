package fetch

import (
	"fmt"
	"time"

	"repro/internal/cache"
	"repro/internal/isa"
	"repro/internal/metrics"
	"repro/internal/pht"
	"repro/internal/trace"
)

// This file implements the single fetch-frontend core shared by every
// architecture. The paper's normative accounting rules (DESIGN.md §6) —
// misfetch vs mispredict classification per branch kind, decode-time
// predictor updates, the RAS discipline, and optional wrong-path pollution
// — live here exactly once; the per-architecture half (what was predicted
// and whether the fetch went down the right path) is behind the narrow
// TargetPredictor interface. BTBEngine, NLSEngine, JohnsonEngine, and
// CoupledBTBEngine are thin adapters binding a predictor to a Frontend,
// and a new architecture is a new TargetPredictor, not a new engine.

// Outcome is a TargetPredictor's verdict on one break: how the front end
// fetched and whether that fetch was right.
type Outcome struct {
	// Correct reports that the front end fetched the actual next
	// instruction. Correct breaks incur no penalty; wrong ones are
	// classified misfetch or mispredict by the Frontend per DESIGN.md §6.
	Correct bool
	// Followed reports that a predicted target (NLS pointer, BTB
	// address, Johnson successor index) was followed. It separates a
	// *wrong* prediction — disproved only at execute, a mispredict —
	// from a *missing* one — redirected at decode, a misfetch — for the
	// indirect-class breaks.
	Followed bool
	// DirTaken is the predicted conditional direction, meaningful only
	// for predictors with Traits.CoupledDirection (Johnson's implicit
	// one-bit pointer, Pentium-style per-entry counters). Decoupled
	// predictors leave it false; the Frontend's shared PHT decides.
	DirTaken bool
}

// Traits declares the architectural capabilities of a TargetPredictor,
// read once when the predictor is bound to a Frontend.
type Traits struct {
	// CoupledDirection: direction prediction is embedded in the target
	// predictor state, so the Frontend bypasses its decoupled PHT for
	// both prediction and training.
	CoupledDirection bool
	// NoRAS: the architecture has no return-address-stack discipline
	// (Johnson §6.2): calls do not push, and returns classify like
	// indirect jumps instead of consulting the stack.
	NoRAS bool
}

// TargetPredictor is the per-architecture half of a fetch frontend: it
// owns the target-prediction state (BTB, NLS table, successor pointers)
// while the Frontend owns everything the paper holds constant across
// architectures — i-cache, decoupled PHT, RAS, counters — and the §6
// accounting that consumes them.
type TargetPredictor interface {
	// Lookup evaluates the prediction for the break rec, whose own
	// instruction resides at (set, way) of the frontend's i-cache.
	// dirTaken is the shared PHT's direction prediction for rec.PC
	// (false when Traits.CoupledDirection). Lookup may refresh
	// recency state, mirroring a real fetch-time probe.
	Lookup(rec trace.Record, set, way int, dirTaken bool) Outcome
	// Update trains the predictor once the break resolves at decode.
	// Returning true defers the update until the successor instruction
	// is fetched and its cache way is known; the Frontend then calls
	// Resolve with that way (hardware updates NLS pointers "after
	// instructions are decoded and the branch type and destinations
	// are resolved", §4).
	Update(rec trace.Record) (deferred bool)
	// Resolve completes a deferred Update for the break rec; way is the
	// i-cache way its successor was just fetched into.
	Resolve(rec trace.Record, way int)
	// WrongPath returns the address the front end actually fetched for
	// a wrong break, and whether anything was fetched at all. Called
	// only when wrong-path pollution is enabled, after the break's RAS
	// effects have been applied (the real front end would be reading
	// the post-update stack).
	WrongPath(rec trace.Record) (isa.Addr, bool)
	// Name identifies the predictor configuration, e.g. "1024 NLS-table".
	Name() string
	// SizeBits returns the predictor's storage cost in bits.
	SizeBits() int
	// Reset restores the initial (cold) state.
	Reset()
}

// predictStage is the branch-prediction unit of the decoupled frontend
// (DESIGN.md §14): it owns every structure that produces the predicted
// fetch stream — the direction predictor, the architecture's target
// predictor, and the fetch-target queue its run-ahead cursor feeds. In the
// fused configuration (FTQ depth 0, no prefetcher) the stage is consulted
// synchronously from the fetch stage, bit-identically to the pre-§14
// frontend; in the decoupled configuration its cursor runs ahead of fetch
// within the current block, emitting one FTQ entry per predicted fetch
// block.
//
// The run-ahead stream is modeled as exact between mispredictions: on a
// trace-driven simulator the BPU's predicted path coincides with the trace
// path until the next wrong break (every prediction the frontend would act
// on is resolved against the trace at that break), so the cursor walks the
// trace, and a wrong break flushes the queue and restarts the cursor at
// the resolved successor — exactly the redirect a hardware FTQ takes.
type predictStage struct {
	dir    pht.DirectionPredictor
	tp     TargetPredictor
	traits Traits

	// ftq buffers the predicted fetch-block addresses between the BPU
	// cursor and the fetch stage.
	ftq FTQ
	// aheadIdx is the block-relative index of the next record the
	// run-ahead cursor examines (reset at each block boundary; lookahead
	// is intra-block). aheadLine/haveLine track the last fetch block the
	// cursor entered, persisting across blocks so a block boundary does
	// not fabricate a fetch-block transition.
	aheadIdx  int
	aheadLine uint32
	haveLine  bool
}

// reset restores the stage's initial state, keeping the configured FTQ
// depth.
func (ps *predictStage) reset() {
	ps.dir.Reset()
	ps.tp.Reset()
	ps.ftq.reset()
	ps.aheadIdx = 0
	ps.haveLine = false
}

// Frontend is the shared fetch-engine core: one Step/StepBlock/pollution
// implementation of the paper's accounting, structured as the three-stage
// predict/FTQ/fetch pipeline of DESIGN.md §14 and driven by a
// TargetPredictor. It implements Engine.
type Frontend struct {
	base
	pollution
	// bpu is the branch-prediction stage; base is the fetch stage.
	bpu predictStage
	// probe, when non-nil, receives one BreakEvent per resolved break
	// (see probe.go). The unprobed fast path costs one nil check.
	probe Probe
	// pf, when non-nil, receives the demand-access and FTQ-push streams
	// (see prefetch.go). Like the probe it costs one nil check detached;
	// unlike the probe it selects the decoupled stepping path.
	pf Prefetcher

	// fetchLine/fetchLineValid track the last cache line the fetch stage
	// demanded, so prefetchers observe one OnAccess per fetch block
	// rather than one per instruction.
	fetchLine      uint32
	fetchLineValid bool

	// oneRec backs the decoupled single-record Step without allocating.
	oneRec [1]trace.Record

	// pending holds a break whose predictor update was deferred by
	// TargetPredictor.Update until the successor's cache way is known;
	// the next fetched record resolves it.
	pending struct {
		active bool
		rec    trace.Record
	}

	// dirShare, when non-nil, is the broadcast's shared direction-bit
	// stream for this engine's direction-predictor configuration (see
	// broadcast.go): identically configured cold predictors consuming the
	// identical break stream compute identical bits, so one owner engine
	// records them and the rest replay them. dirOwner marks the recorder;
	// dirPos is a consumer's cursor within the current chunk.
	dirShare *dirShare
	dirOwner bool
	dirPos   int

	// replayTime is the wall time the broadcaster spent stepping this
	// engine since its last Reset (see ReplayTime).
	replayTime time.Duration
}

// replayer is the broadcaster's one replay interface: every built-in
// engine embeds a Frontend and so satisfies it, and the unexported method
// keeps wrappers outside the package from claiming it. BroadcastWorkers
// resolves each engine through it once; an engine without it replays via
// StepBlock alone.
type replayer interface{ frontend() *Frontend }

func (f *Frontend) frontend() *Frontend { return f }

// asFrontend returns e's Frontend, or nil when e has none.
func asFrontend(e Engine) *Frontend {
	if r, ok := e.(replayer); ok {
		return r.frontend()
	}
	return nil
}

// ReplayTime returns the wall time broadcasts spent stepping e's blocks
// since its last Reset, whichever replay path each broadcast chose. It is
// 0 for an engine whose break metrics a broadcast echoed from another
// engine (it steps nothing) and for an engine without a Frontend (the
// broadcaster cannot time it).
func ReplayTime(e Engine) time.Duration {
	if f := asFrontend(e); f != nil {
		return f.replayTime
	}
	return 0
}

// newFrontend builds the architecture-independent half; bind attaches the
// predictor. dir may be a legacy pht.Predictor or a protocol-native
// pht.DirectionPredictor, promoted onto the protocol the predict stage
// drives (DESIGN.md §13).
func newFrontend(g cache.Geometry, dir pht.Directional, rasDepth int) Frontend {
	f := Frontend{base: newBase(g, rasDepth)}
	f.bpu.dir = pht.AsDirection(dir)
	return f
}

// bind attaches the architecture-specific predictor to the predict stage.
func (f *Frontend) bind(tp TargetPredictor, tr Traits) {
	f.bpu.tp = tp
	f.bpu.traits = tr
}

// AttachPrefetcher connects a prefetch policy (nil detaches). Attach before
// the run starts; a non-nil prefetcher selects the decoupled stepping path.
func (f *Frontend) AttachPrefetcher(p Prefetcher) { f.pf = p }

// SetFTQDepth sizes the fetch-target queue (0 keeps the fused path).
func (f *Frontend) SetFTQDepth(depth int) { f.bpu.ftq.SetDepth(depth) }

// FTQStats exposes the queue's traffic counters for tests and diagnostics.
func (f *Frontend) FTQStats() FTQStats { return f.bpu.ftq.Stats() }

// FTQLen returns the queue's current occupancy (entries predicted but not
// yet fetched) — the run-ahead depth the sim-time trace exporter samples.
func (f *Frontend) FTQLen() int { return f.bpu.ftq.Len() }

// Prefetcher returns the attached prefetch policy (nil when detached), so
// an observer can wrap it without knowing how the engine was built.
func (f *Frontend) Prefetcher() Prefetcher { return f.pf }

// decoupled reports whether the frontend steps through the three-stage
// pipeline. With no prefetcher and FTQ depth 0 the fused path runs instead
// — the exact pre-§14 code, so the refactor is bit-identical by
// construction.
func (f *Frontend) decoupled() bool { return f.pf != nil || f.bpu.ftq.Cap() > 0 }

// Name implements Engine.
func (f *Frontend) Name() string {
	n := fmt.Sprintf("%s + %s", f.bpu.tp.Name(), f.icache.Geometry())
	if f.pf != nil {
		n += " + " + f.pf.Name()
	}
	return n
}

// PredictorSizeBits returns the storage cost of the target-predictor state.
func (f *Frontend) PredictorSizeBits() int { return f.bpu.tp.SizeBits() }

// Reset implements Engine.
func (f *Frontend) Reset() {
	f.resetBase()
	f.bpu.reset()
	if f.pf != nil {
		f.pf.Reset()
	}
	f.fetchLineValid = false
	f.pending.active = false
	f.replayTime = 0
}

// StepBlock implements Engine, batching same-line sequential fetch runs
// (see base.stepBlock).
func (f *Frontend) StepBlock(recs []trace.Record) {
	if f.decoupled() {
		f.stepBlockDecoupled(recs)
		return
	}
	f.stepBlock(recs, f.Step)
}

// replayRuns is StepBlock with the run boundaries precomputed for this
// engine's line size (see base.stepBlockRuns); nil runs is StepBlock. The
// decoupled pipeline steps per record and ignores the annotation.
func (f *Frontend) replayRuns(recs []trace.Record, runs []uint8) {
	if runs == nil || f.decoupled() {
		f.StepBlock(recs)
		return
	}
	f.stepBlockRuns(recs, runs, f.Step)
}

// Step implements Engine, applying the accounting rules of DESIGN.md §6.
func (f *Frontend) Step(rec trace.Record) {
	if f.decoupled() {
		// A single-record block: the pipeline runs with zero lookahead
		// (the cursor cannot see past the record being fetched), which
		// keeps Step ≡ StepBlock-of-one.
		f.oneRec[0] = rec
		f.stepBlockDecoupled(f.oneRec[:])
		return
	}
	_, way := f.access(rec)

	// Resolve the deferred update for the previous break: this record IS
	// its successor, so the successor line's way is now known. (The
	// equality guard only matters for malformed, non-chained input.)
	if f.pending.active {
		if f.pending.rec.Next() == rec.PC {
			f.bpu.tp.Resolve(f.pending.rec, way)
		}
		f.pending.active = false
	}

	if !rec.IsBreak() {
		// Pre-decoded as non-branch: the fall-through fetch is always
		// correct (§4.2).
		return
	}
	f.stepBreak(rec, way)
}

// stepBlockDecoupled is the three-stage pipeline's block replay: for each
// record, the BPU cursor first runs as far ahead as the FTQ allows, then
// the fetch stage consumes one record (popping the FTQ entry predicted for
// it, if any). Lookahead is bounded by min(FTQ depth, records left in the
// block); the queue drains to empty at every block boundary because every
// queued position lies within the block.
func (f *Frontend) stepBlockDecoupled(recs []trace.Record) {
	f.bpu.aheadIdx = 0
	for i := range recs {
		f.runAhead(recs, i)
		f.fetchOne(recs, i)
	}
}

// runAhead advances the BPU cursor from its current position, pushing one
// FTQ entry (and notifying the prefetcher) per fetch block the predicted
// stream enters, until the queue is full or the block ends. i is the fetch
// stage's current position; the cursor never trails it.
func (f *Frontend) runAhead(recs []trace.Record, i int) {
	ps := &f.bpu
	if ps.ftq.Cap() == 0 {
		return
	}
	if ps.aheadIdx < i {
		ps.aheadIdx = i
	}
	for !ps.ftq.Full() && ps.aheadIdx < len(recs) {
		r := recs[ps.aheadIdx]
		line := f.geom.LineAddr(r.PC)
		if !ps.haveLine || line != ps.aheadLine {
			ps.aheadLine, ps.haveLine = line, true
			ps.ftq.push(r.PC, ps.aheadIdx)
			if f.pf != nil {
				f.pf.OnFTQPush(r.PC)
			}
		}
		ps.aheadIdx++
	}
}

// fetchOne is the fetch stage of the decoupled pipeline: consume the FTQ
// entry predicted for this record (exact position pairing, so stalls and
// flushes cannot misalign the streams), demand-fetch the instruction,
// resolve any deferred predictor update, and — on a wrong break — redirect
// the BPU: flush the queue and restart the cursor at the resolved
// successor.
func (f *Frontend) fetchOne(recs []trace.Record, i int) {
	rec := recs[i]
	if e, ok := f.bpu.ftq.peek(); ok && e.pos == i {
		f.bpu.ftq.pop()
	}
	hit, way := f.access(rec)
	if f.pf != nil {
		if line := f.geom.LineAddr(rec.PC); !f.fetchLineValid || line != f.fetchLine {
			f.fetchLine, f.fetchLineValid = line, true
			f.pf.OnAccess(rec.PC, hit)
		}
	}

	if f.pending.active {
		if f.pending.rec.Next() == rec.PC {
			f.bpu.tp.Resolve(f.pending.rec, way)
		}
		f.pending.active = false
	}

	if !rec.IsBreak() {
		return
	}
	if penalty := f.stepBreak(rec, way); penalty != PenaltyNone {
		f.bpu.ftq.flush()
		f.bpu.aheadIdx = i + 1
		f.bpu.aheadLine, f.bpu.haveLine = f.geom.LineAddr(rec.PC), true
	}
}

// stepBreak applies the §6 break accounting for rec, whose instruction
// resides in way of its i-cache set, and returns the penalty class the
// break incurred (the decoupled fetch stage redirects the BPU on any wrong
// break). It is the post-fetch half of Step, shared verbatim by the
// private-cache path (Step), the decoupled path (fetchOne), and the
// oracle event-list path (replayEvents), so every replay classifies
// breaks through literally the same code.
func (f *Frontend) stepBreak(rec trace.Record, way int) PenaltyClass {
	return f.stepBreakAt(rec, way, f.geom.SetIndex(rec.PC))
}

// stepBreakAt is stepBreak with the break PC's set index precomputed by
// the caller (the event-list replay reads it off the oracle's break
// event; every other path derives it from the engine's own geometry).
func (f *Frontend) stepBreakAt(rec trace.Record, way, set int) PenaltyClass {
	f.m.Breaks++

	// Direction prediction through the pht.DirectionPredictor protocol
	// (DESIGN.md §13): a conditional branch OPENS a prediction (Predict
	// may shift speculative history and checkpoints for the Resolve
	// below); every other break only READS a direction — aliased
	// tag-less NLS entries consult it for target arbitration — so Query
	// keeps history-based predictors' speculative state untouched. For
	// legacy predictors both map to the same Predict call the
	// pre-protocol frontend made here, bit for bit.
	dirTaken := false
	var dirTok pht.Token
	isCond := rec.Kind == isa.CondBranch
	// dirFollower marks a break whose direction bit came from the
	// broadcast's shared stream: the engine's own predictor is neither
	// consulted nor trained (the owner's identical predictor already
	// computed this exact bit; the follower adopts its state when the
	// broadcast ends).
	dirFollower := false
	if !f.bpu.traits.CoupledDirection {
		if ds := f.dirShare; ds != nil && !f.dirOwner {
			dirFollower = true
			dirTaken = ds.at(f.dirPos)
			f.dirPos++
		} else if isCond {
			dirTaken, dirTok = f.bpu.dir.Predict(rec.PC)
		} else {
			dirTaken = f.bpu.dir.Query(rec.PC)
		}
		if f.dirShare != nil && f.dirOwner {
			f.dirShare.push(dirTaken)
		}
	}
	out := f.bpu.tp.Lookup(rec, set, way, dirTaken)
	if f.bpu.traits.CoupledDirection {
		dirTaken = out.DirTaken
	}

	// Classify a wrong fetch by its root cause (DESIGN.md §6) and keep
	// the architectural predictors trained.
	penalty := PenaltyNone
	switch rec.Kind {
	case isa.CondBranch:
		f.m.CondBranches++
		dirRight := dirTaken == rec.Taken
		if !dirRight {
			f.m.CondDirWrong++
		}
		if !out.Correct {
			if dirRight {
				// Direction was right but the target was
				// unavailable (or stale) until decode.
				f.m.AddMisfetch(rec.Kind)
				penalty = PenaltyMisfetch
			} else {
				f.m.AddMispredict(rec.Kind)
				penalty = PenaltyMispredict
			}
		}

	case isa.UncondBranch:
		if !out.Correct {
			f.m.AddMisfetch(rec.Kind)
			penalty = PenaltyMisfetch
		}

	case isa.Call:
		if !out.Correct {
			f.m.AddMisfetch(rec.Kind)
			penalty = PenaltyMisfetch
		}
		if !f.bpu.traits.NoRAS {
			f.rstack.Push(rec.PC.Next())
		}

	case isa.IndirectJump:
		if !out.Correct {
			if out.Followed {
				// A prediction was followed and disproved at
				// execute.
				f.m.AddMispredict(rec.Kind)
				penalty = PenaltyMispredict
			} else {
				f.m.AddMisfetch(rec.Kind)
				penalty = PenaltyMisfetch
			}
		}

	case isa.Return:
		if f.bpu.traits.NoRAS {
			// Moving target with no stack: classify like an
			// indirect jump (§6.2).
			if !out.Correct {
				if out.Followed {
					f.m.AddMispredict(rec.Kind)
					penalty = PenaltyMispredict
				} else {
					f.m.AddMisfetch(rec.Kind)
					penalty = PenaltyMisfetch
				}
			}
			break
		}
		top, ok := f.rstack.Pop()
		rasRight := ok && top == rec.Target
		if !out.Correct {
			if rasRight {
				// Not identified as a return until decode, but
				// the stack had the right address there.
				f.m.AddMisfetch(rec.Kind)
				penalty = PenaltyMisfetch
			} else {
				f.m.AddMispredict(rec.Kind)
				penalty = PenaltyMispredict
			}
		}
	}

	// Optional wrong-path pollution: touch what the front end actually
	// fetched before the redirect (see wrongpath.go), and report the
	// excursion to the direction predictor so history-based schemes can
	// model speculative-history corruption (repaired by the Resolve
	// below, or by their next Predict — the redirect).
	if f.pollution.enabled && !out.Correct {
		if wp, ok := f.bpu.tp.WrongPath(rec); ok {
			f.pollute(wp, penalty == PenaltyMispredict)
			f.bpu.dir.WrongPath(wp)
		}
	}

	// Attribution probe: emit after the break's architectural effects and
	// before the predictors train on it (see probe.go).
	if f.probe != nil {
		f.emitBreak(rec, out, dirTaken, penalty)
	}

	// Close the direction prediction opened above, after any wrong-path
	// report so recovery wipes the poison. For legacy predictors this is
	// the same Update call the pre-protocol frontend made inside the
	// conditional case — nothing between the two points reads their
	// state, so the move is invisible to them.
	if isCond && !f.bpu.traits.CoupledDirection && !dirFollower {
		f.bpu.dir.Resolve(rec.PC, dirTok, rec.Taken)
	}

	// Train the target predictor; a deferred update waits for the
	// successor's fetch to reveal its cache way.
	if f.bpu.tp.Update(rec) {
		f.pending.active = true
		f.pending.rec = rec
	}
	return penalty
}

// oracleEligible reports whether this engine may currently share a
// broadcast fetch oracle with the other engines of its cache geometry.
// Sharing requires the engine's i-cache accesses to be a pure function of the
// trace: wrong-path pollution forks the cache state per architecture
// (different engines touch different wrong-path lines), a probed run
// may want per-engine access behaviour observable in isolation, and a
// decoupled (prefetching) frontend injects prefetch fills no shared oracle
// models — all three keep the private-cache path (DESIGN.md §11, §14).
func (f *Frontend) oracleEligible() bool {
	return !f.pollution.enabled && f.probe == nil && !f.decoupled()
}

// echoInvariant reports a key identifying everything this engine's break
// accounting depends on besides the trace itself, and whether the engine
// currently qualifies for break-metric echoing. Echoing is the broadcast's
// cross-geometry dedup (DESIGN.md §16): when a target predictor's break
// path never reads the i-cache — the BTB's full-address scheme, per §7 and
// Figure 7 of the paper — engines differing only in cache geometry produce
// bit-identical break metrics from the same trace, so the broadcast replays
// one of them and copies the result, crediting only the i-cache counters
// (which do differ per geometry) from each geometry's oracle annotation.
//
// Qualifying requires that every structure the break path reads or trains
// be provably trace-pure from here on: a geometry-invariant target
// predictor (asserted by its invariantKey, which also pins its config and
// cold state), a direction predictor exposing a cold StateKey (config
// including history width), an empty RAS, zero counters, no in-flight
// deferred update, and oracle eligibility (no pollution, probe, or
// prefetching — each forks per-engine state the echo would miss).
func (f *Frontend) echoInvariant() (string, bool) {
	inv, ok := f.bpu.tp.(interface{ invariantKey() (string, bool) })
	if !ok {
		return "", false
	}
	if !f.oracleEligible() {
		return "", false
	}
	if f.m != (metrics.Counters{}) || f.pending.active || f.rstack.Depth() != 0 {
		return "", false
	}
	tkey, ok := inv.invariantKey()
	if !ok {
		return "", false
	}
	keyed, ok := pht.Unwrap(f.bpu.dir).(interface{ StateKey() (string, bool) })
	if !ok {
		return "", false
	}
	dkey, ok := keyed.StateKey()
	if !ok {
		return "", false
	}
	return fmt.Sprintf("%s|%s|ras%d", tkey, dkey, f.rstack.Cap()), true
}

// dirShareKey reports the configuration key under which this engine may
// share a broadcast direction-bit stream, and whether sharing is currently
// sound. Sharing requires a decoupled, deterministic direction predictor
// in its cold state (so identically keyed engines hold identical state
// throughout the replay), no wrong-path excursions feeding it, no probe
// observing it, and the ability to adopt the owner's trained state when
// the broadcast ends (AdoptState) so sharing stays invisible afterwards.
func (f *Frontend) dirShareKey() (string, bool) {
	if f.bpu.traits.CoupledDirection || f.pollution.enabled || f.probe != nil {
		return "", false
	}
	p, ok := pht.Unwrap(f.bpu.dir).(interface {
		StateKey() (string, bool)
		AdoptState(pht.Predictor) bool
	})
	if !ok {
		return "", false
	}
	return p.StateKey()
}

// setDirShare attaches the engine to a shared direction-bit stream;
// clearDirShare detaches it.
func (f *Frontend) setDirShare(ds *dirShare, owner bool) {
	f.dirShare, f.dirOwner, f.dirPos = ds, owner, 0
}
func (f *Frontend) clearDirShare() {
	f.dirShare, f.dirOwner, f.dirPos = nil, false, 0
}

// dirPredictor exposes the unwrapped legacy direction predictor for the
// teardown's state hand-off.
func (f *Frontend) dirPredictor() pht.Predictor { return pht.Unwrap(f.bpu.dir) }

// adoptDirState copies src's predictor state into this engine's direction
// predictor, leaving a stream follower exactly as if it had trained its
// own predictor through the broadcast.
func (f *Frontend) adoptDirState(src pht.Predictor) {
	if src == nil {
		return
	}
	if dst, ok := pht.Unwrap(f.bpu.dir).(interface{ AdoptState(pht.Predictor) bool }); ok {
		dst.AdoptState(src)
	}
}

// echoCredit bulk-credits one block's i-cache counters from this engine's
// geometry annotation — the only per-block work an echoed engine needs
// (its tag mirror is left stale: a geometry-invariant predictor never
// reads it, and Reset rebuilds it).
func (f *Frontend) echoCredit(n int, ann *cache.AccessAnnotations) {
	f.icache.AddAccesses(uint64(n), ann.Misses)
	f.icache.AddColdMisses(ann.ColdMisses)
}

// adoptBreakMetrics copies the replayed leader's counters after a
// broadcast. The i-cache and prefetch fields of m are don't-cares here:
// Counters() re-syncs them from this engine's own (bulk-credited) i-cache.
func (f *Frontend) adoptBreakMetrics(leader *Frontend) { f.m = leader.m }

// replayEvents replays one block from a shared fetch oracle's access
// annotation (DESIGN.md §11) instead of accessing the private i-cache per
// record, by walking the oracle's packed event list (fills, breaks, and
// the post-break resolution points) instead of visiting every record. ann
// must come from an Oracle of this engine's geometry fed the identical
// block sequence. Every action the private path takes that couples to
// predictor state happens at an event position: fills happen only at
// missing run leaders (EvtFill), break accounting only at breaks
// (EvtBreak), and a deferred predictor update can only be pending at the
// record after a break or the first record of a block — exactly the
// EvtPost positions. Hitting non-break leaders and all same-line
// followers need no per-record work, so the replay cost scales with the
// block's break + miss density rather than its record count.
//
// The private cache is kept as a tag mirror: annotated misses apply their
// fill (tags, valid bit, onReplace — everything predictor state couples
// to) via cache.ApplyFill, so mid-block content reads by the target
// predictor (NLS PointsTo/HoldsAt, LineCoupled's Probe) see exactly the
// state the private path would. LRU bookkeeping is skipped — the oracle
// owns replacement decisions — and the access/miss counters are credited
// in bulk per block.
func (f *Frontend) replayEvents(recs []trace.Record, ann *cache.AccessAnnotations) {
	if ds := f.dirShare; ds != nil {
		// A new chunk begins: the owner starts a fresh bit stream, each
		// follower rewinds its cursor (the owner always replays first).
		if f.dirOwner {
			ds.reset()
		} else {
			f.dirPos = 0
		}
	}
	slots := ann.Slots
	ic := f.icache
	for _, ev := range ann.Events {
		i := int(ev >> cache.EvtShift & cache.EvtIdxMask)
		r := recs[i]
		way := int(slots[i] & cache.AnnWayMask)
		if ev&cache.EvtFill != 0 {
			ic.ApplyFill(r.PC, way)
		}
		if ev&cache.EvtPost != 0 && f.pending.active {
			// A break at the end of the PREVIOUS block deferred its
			// update to this block's first record.
			if f.pending.rec.Next() == r.PC {
				f.bpu.tp.Resolve(f.pending.rec, way)
			}
			f.pending.active = false
		}
		if ev&cache.EvtBreak != 0 {
			// The event carries the break PC's set index, computed once
			// by the oracle for the whole geometry group.
			f.stepBreakAt(r, way, int(ev>>cache.EvtSetShift))
			// A deferred update resolves inline with the successor's way
			// (the next record is always an annotated run leader), unless
			// the successor is in the next block. Resolving here instead
			// of after the successor's fill is invisible: if that fill
			// evicts the branch's line, both orders leave the coupled
			// entry invalidated; otherwise they train identical state.
			if f.pending.active && i+1 < len(recs) {
				f.bpu.tp.Resolve(f.pending.rec, int(slots[i+1]&cache.AnnWayMask))
				f.pending.active = false
			}
		}
	}
	f.m.Instructions += uint64(len(recs))
	ic.AddAccesses(uint64(len(recs)), ann.Misses)
	ic.AddColdMisses(ann.ColdMisses)
}
