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
	"repro/internal/metrics"
	"repro/internal/ras"
	"repro/internal/trace"
)

// Engine is the fetch engine type. Every architecture is one Frontend
// bound to its TargetPredictor by a New*Engine constructor, so Engine is
// an alias of *Frontend, not an interface.
//
// An engine is stepped by one driver for its whole run: privately (Step,
// StepBlock, Run, RunChunks) or as a member of a broadcast group. A grouped
// engine replays from its geometry's shared oracle (replayEvents,
// echoCredit) and keeps its own i-cache only as a tag mirror: fills land
// in it, but neither first touches nor LRU order are tracked there. So an
// engine stepped privately after a grouped broadcast would count every
// line's first touch as a cold miss again and replace lines by stale
// recency. No production path does so: the executor takes each engine's
// counters once its broadcast ends and builds new engines per cell. Reset
// restores a clean cold state either way.
type Engine = *Frontend

// Run drives every record of a trace through the engine and returns its
// counters.
func Run(e *Frontend, t *trace.Trace) *metrics.Counters {
	for _, r := range t.Records {
		e.Step(r)
	}
	return e.Counters()
}

// RunChunks drives every record of a chunk source through the engine,
// releasing each block once stepped, and returns its counters.
func RunChunks(e *Frontend, src trace.ChunkSource) *metrics.Counters {
	for blk := src.NextChunk(); len(blk) > 0; blk = src.NextChunk() {
		e.StepBlock(blk)
		src.Release(blk)
	}
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

// Counters returns the accumulated metrics, synchronizing the i-cache
// counters first. The returned pointer stays valid and updates as more
// records are stepped.
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

// ICache exposes the engine's instruction cache: arch.Spec.Build enables
// its prefetch model, the sim-time recorder observes it, and tests and the
// set-prediction ablation inspect it.
func (b *base) ICache() *cache.Cache { return b.icache }
