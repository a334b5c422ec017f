// Package fetch implements the instruction fetch architectures the paper
// compares: the decoupled BTB design (§3), the NLS-table and NLS-cache
// designs (§4), and the Johnson successor-index baseline (§6.2). Each
// engine consumes an instruction trace and accounts misfetches and
// mispredictions per the paper's rules (see DESIGN.md §6):
//
//   - A branch is MISPREDICTED (4 cycles) when a predicted *value* was wrong
//     and could only be verified at execute: a wrong PHT direction, a wrong
//     return-stack target, or a wrong predicted indirect target.
//   - A branch is MISFETCHED (1 cycle) when the fetch went down the wrong
//     path but the correct next address became available at decode: the
//     predictor failed to identify the branch or supply its target (BTB
//     miss, invalid or aliased NLS entry), or — NLS only — the pointer
//     named a cache location that no longer holds the target line.
//   - A branch is never both ("a mispredicted branch is never counted as a
//     misfetched branch and visa versa", §5.2).
//
// Both architectures share the same decoupled PHT and return stack so the
// comparison isolates fetch (target) prediction, exactly as §5.1 sets up.
package fetch

import (
	"repro/internal/cache"
	"repro/internal/isa"
	"repro/internal/metrics"
	"repro/internal/ras"
	"repro/internal/trace"
)

// Engine is a fetch architecture simulator consuming a trace one record at
// a time.
type Engine interface {
	// Step processes one executed instruction.
	Step(rec trace.Record)
	// StepBlock processes a block of consecutive executed instructions,
	// equivalent to calling Step on each record in order. Engines
	// implement it as a direct loop over their own Step so the broadcast
	// replay path pays one dynamic dispatch per block rather than per
	// record.
	StepBlock(recs []trace.Record)
	// Counters returns the accumulated metrics. The returned pointer
	// stays valid and updates as more records are stepped.
	Counters() *metrics.Counters
	// Name identifies the configuration, e.g. "1024 NLS-table, 8K direct".
	Name() string
	// Reset restores the engine to its initial (cold) state.
	Reset()
}

// Run drives every record of a trace through the engine and returns its
// counters.
func Run(e Engine, t *trace.Trace) *metrics.Counters {
	for _, r := range t.Records {
		e.Step(r)
	}
	return e.Counters()
}

// RunChunks drives every record of a chunk source through the engine,
// releasing each block once stepped, and returns its counters.
func RunChunks(e Engine, src trace.ChunkSource) *metrics.Counters {
	for blk := src.NextChunk(); len(blk) > 0; blk = src.NextChunk() {
		e.StepBlock(blk)
		src.Release(blk)
	}
	return e.Counters()
}

// RunSource drives up to n records from a trace source through the engine.
func RunSource(e Engine, src trace.Source, n int) *metrics.Counters {
	src.Run(n, e.Step)
	return e.Counters()
}

// base bundles the fetch-stage structures shared by every architecture: the
// instruction cache, the return stack, and the counters. The direction
// predictor lives in the branch-prediction stage (fetch.predictStage, see
// frontend.go) since DESIGN.md §14 split the frontend into explicit
// predict/FTQ/fetch stages.
type base struct {
	icache *cache.Cache
	geom   cache.Geometry // icache's geometry, cached off the hot paths
	rstack *ras.Stack
	m      metrics.Counters
}

// newBase builds the fetch-stage state.
func newBase(g cache.Geometry, rasDepth int) base {
	if rasDepth <= 0 {
		rasDepth = ras.DefaultDepth
	}
	return base{
		icache: cache.New(g),
		geom:   g,
		rstack: ras.New(rasDepth),
	}
}

// access fetches the record's instruction from the i-cache, counting the
// access, and returns where the line now resides.
func (b *base) access(rec trace.Record) (hit bool, way int) {
	b.m.Instructions++
	return b.icache.Access(rec.PC)
}

// Counters implements Engine; it synchronizes the i-cache counters first.
func (b *base) Counters() *metrics.Counters {
	b.m.ICacheAccesses = b.icache.Accesses()
	b.m.ICacheMisses = b.icache.Misses()
	b.m.ICacheColdMisses = b.icache.ColdMisses()
	st := b.icache.PrefetchStats()
	b.m.PrefIssued, b.m.PrefUseful, b.m.PrefLate = st.Issued, st.Useful, st.Late
	b.m.PrefDropped, b.m.PrefRedundant, b.m.PrefUnused = st.Dropped, st.Redundant, st.Unused
	return &b.m
}

// resetBase clears the shared state.
func (b *base) resetBase() {
	b.icache.Reset()
	b.rstack.Reset()
	b.m.Reset()
}

// ICache exposes the engine's instruction cache (for inspection in tests
// and the set-prediction ablation).
func (b *base) ICache() *cache.Cache { return b.icache }

// stepBlock implements StepBlock for every engine on top of its concrete
// Step. Run-leaders and branches go through step unchanged; the non-branch
// records that follow a non-break within the same cache line are pure
// sequential fetches — for all four architectures their Step reduces to
// {count the instruction, hit the just-accessed line, refresh LRU} — so the
// whole run is applied as one batched cache.AccessRun. State and counters
// evolve bit-identically to stepping each record (the engines' deferred
// "pending" updates are armed only by breaks and resolved by the next
// step()ed record, and batches never start until a step()ed non-break has
// cleared them).
//
// The batch target comes from cache.LastSlot rather than a fresh Probe:
// step(r) on a non-break record performs exactly one i-cache Access — of
// r.PC, which fills the line on a miss — so afterwards r.PC's line is
// resident at LastSlot by construction.
func (b *base) stepBlock(recs []trace.Record, step func(trace.Record)) {
	g := b.geom
	for i := 0; i < len(recs); {
		r := recs[i]
		step(r)
		i++
		if r.IsBreak() {
			// The break may have armed a deferred ("pending") update
			// that the next step()ed record resolves.
			continue
		}
		i = b.sameLineTail(g, recs, i, g.LineAddr(r.PC))
		// Straight-line stretch: until the next branch record, no
		// deferred update can be armed, so each line leader reduces to
		// exactly the non-branch Step body — count it and access its
		// line — with no dynamic dispatch.
		for i < len(recs) && recs[i].Kind == isa.NonBranch {
			b.m.Instructions++
			b.icache.Access(recs[i].PC)
			i++
			i = b.sameLineTail(g, recs, i, g.LineAddr(recs[i-1].PC))
		}
	}
}

// sameLineTail batches the records from i on that continue recs[i-1]'s
// sequential fetch run within line, returning the index after the run.
func (b *base) sameLineTail(g cache.Geometry, recs []trace.Record, i int, line uint32) int {
	j := i
	for j < len(recs) && recs[j].Kind == isa.NonBranch && g.LineAddr(recs[j].PC) == line {
		j++
	}
	if j > i {
		set, way := b.icache.LastSlot()
		b.icache.AccessRun(set, way, uint64(j-i))
		b.m.Instructions += uint64(j - i)
	}
	return j
}

// stepBlockRuns is stepBlock with the same-line run lengths precomputed
// (trace.Chunked.RunLens): the boundary scan is done once per chunk and
// shared by every engine replaying it, instead of re-derived per engine.
// runs must be parallel to recs and follow the RunChunkSource contract for
// this engine's i-cache line size; the replay is bit-identical to stepBlock
// (asserted by TestStepBlockRunsMatchesStepBlock).
func (b *base) stepBlockRuns(recs []trace.Record, runs []uint8, step func(trace.Record)) {
	for i := 0; i < len(recs); {
		r := recs[i]
		step(r)
		i++
		if r.IsBreak() {
			continue // next record must resolve any pending update
		}
		if n := uint64(runs[i-1]); n > 0 {
			set, way := b.icache.LastSlot()
			b.icache.AccessRun(set, way, n)
			b.m.Instructions += n
			i += int(n)
		}
		// Straight-line stretch, as in stepBlock but with the line
		// boundaries already annotated.
		for i < len(recs) && recs[i].Kind == isa.NonBranch {
			b.m.Instructions++
			b.icache.Access(recs[i].PC)
			i++
			if n := uint64(runs[i-1]); n > 0 {
				set, way := b.icache.LastSlot()
				b.icache.AccessRun(set, way, n)
				b.m.Instructions += n
				i += int(n)
			}
		}
	}
}
