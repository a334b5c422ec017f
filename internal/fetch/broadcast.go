package fetch

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cache"
	"repro/internal/trace"
)

// broadcastDepth is the capacity of each channel of the parallel fan-out
// (per-group gin, per-worker wch). It bounds the blocks one broadcast holds
// outstanding — drawn from the source and not yet released — regardless
// of trace length, worker count or group count, which is what lets a
// streamed sweep run in O(chunk) memory: one inline; three pipelined (one
// replaying, one annotated and queued, one drawn and waiting for a parity
// buffer); and 2*broadcastDepth+3 on the parallel path. There, every
// outstanding block lies between the oldest one still held and the newest
// drawn, and the main goroutine cannot run further ahead of the oldest
// than the longest chain it feeds: main (1) → gin (depth) → group
// goroutine (1) → wch (depth) → worker (1).
const broadcastDepth = 4

// Broadcast replays a trace ONCE through every engine: each block drawn
// from src is fanned out to all engines before the next block is drawn, so
// a sweep cell of E engines reads the records one time instead of E times
// and each block is still cache-hot when the later engines replay it.
// Engines see exactly the record sequence of src, in order, via StepBlock.
// The worker pool is sized to min(GOMAXPROCS, len(engines)); use
// BroadcastWorkers to bound it explicitly. Returns the number of records
// replayed.
func Broadcast(src trace.ChunkSource, engines ...Engine) int64 {
	return BroadcastWorkers(src, runtime.GOMAXPROCS(0), engines...)
}

// annotated pairs a block with its optional shared run annotation.
type annotated struct {
	recs []trace.Record
	runs []uint8
}

// groupMember is one grouped engine: its broadcast index (for worker
// assignment) and its Frontend.
type groupMember struct {
	idx int
	fr  *Frontend
}

// oracleGroup shares one fetch oracle among the eligible engines of equal
// geometry: the oracle simulates the group's i-cache once per block and
// every member consumes the resulting annotation.
type oracleGroup struct {
	oracle  *cache.Oracle
	members []groupMember
	// echoes are the engines of this geometry whose break metrics are
	// echoed from an equal-invariant leader in another group (see
	// Frontend.echoInvariant): they skip replay entirely and only receive
	// this group's per-block i-cache bulk credits.
	echoes []*Frontend
	// runsOK records that the source's shared run annotation was computed
	// for this geometry's line size; otherwise members (and the oracle)
	// scan line boundaries themselves, with runs forced nil so both sides
	// agree on run-leader positions.
	runsOK bool
	// ann holds the group's reusable annotations on the sequential path:
	// one buffer for inline annotation, two when the double-buffered
	// pipeline annotates chunk k+1 while chunk k replays (the parity
	// token names which buffer a chunk owns).
	ann [2]cache.AccessAnnotations
}

// echoPair records one echoed engine and the replayed leader whose break
// metrics it adopts once the broadcast completes.
type echoPair struct {
	echo, leader *Frontend
}

// extractEchoes implements the cross-geometry echo dedup over a resolved
// group plan: among all grouped members, engines reporting equal
// echoInvariant keys produce bit-identical break metrics from the same
// trace regardless of their cache geometry, so the first one found (the
// plan is deterministic: groups in first-seen geometry order, members in
// engine order) replays for real and every later one is demoted to an
// echo — removed from its group's member list, bulk-credited from its
// group's annotation each block, and patched with the leader's metrics at
// the end.
func extractEchoes(groups []*oracleGroup) (pairs []echoPair) {
	leaders := make(map[string]*Frontend)
	for _, g := range groups {
		kept := g.members[:0]
		for _, m := range g.members {
			if key, ok := m.fr.echoInvariant(); ok {
				if lead := leaders[key]; lead != nil {
					g.echoes = append(g.echoes, m.fr)
					pairs = append(pairs, echoPair{echo: m.fr, leader: lead})
					continue
				}
				leaders[key] = m.fr
			}
			kept = append(kept, m)
		}
		g.members = kept
	}
	return pairs
}

// dirShare is one chunk's direction-prediction bit stream, recorded by
// the owner engine and replayed by its followers (one bit per break, in
// break order). Identically configured cold direction predictors fed the
// identical break stream are bit-identical state machines, so the bits —
// and every counter derived from them — match what each follower's own
// predictor would have computed.
type dirShare struct {
	bits []uint64
	n    int
}

func (d *dirShare) reset() { d.bits, d.n = d.bits[:0], 0 }
func (d *dirShare) push(taken bool) {
	if d.n&63 == 0 {
		d.bits = append(d.bits, 0)
	}
	if taken {
		d.bits[d.n>>6] |= 1 << (d.n & 63)
	}
	d.n++
}
func (d *dirShare) at(i int) bool { return d.bits[i>>6]>>(i&63)&1 != 0 }

// dirSharePlan pairs a stream's owner with its followers for the
// end-of-broadcast state hand-off.
type dirSharePlan struct {
	owner     *Frontend
	followers []*Frontend
}

// extractDirShares groups the replaying members by direction-predictor
// configuration (Frontend.dirShareKey) and attaches each group with two or
// more engines to a shared bit stream; the first member in replay order
// becomes the owner, so its bits are always recorded before any follower
// consumes them. Only the sequential broadcast path may use this —
// parallel fan-out replays groups concurrently, with no owner-first
// ordering across them.
func extractDirShares(groups []*oracleGroup) []dirSharePlan {
	var plans []dirSharePlan
	owners := make(map[string]int)
	for _, g := range groups {
		for _, m := range g.members {
			key, ok := m.fr.dirShareKey()
			if !ok {
				continue
			}
			if pi, seen := owners[key]; seen {
				plans[pi].followers = append(plans[pi].followers, m.fr)
			} else {
				owners[key] = len(plans)
				plans = append(plans, dirSharePlan{owner: m.fr})
			}
		}
	}
	kept := plans[:0]
	for _, p := range plans {
		if len(p.followers) == 0 {
			continue
		}
		ds := &dirShare{}
		p.owner.setDirShare(ds, true)
		for _, fr := range p.followers {
			fr.setDirShare(ds, false)
		}
		kept = append(kept, p)
	}
	return kept
}

// releaseDirShares detaches every engine from its shared stream and hands
// the owner's trained predictor state to the followers, leaving all of
// them exactly as if each had trained its own predictor.
func releaseDirShares(plans []dirSharePlan) {
	for _, p := range plans {
		src := p.owner.dirPredictor()
		p.owner.clearDirShare()
		for _, fr := range p.followers {
			fr.clearDirShare()
			fr.adoptDirState(src)
		}
	}
}

// broadcastPipeline gates the sequential path's double-buffered annotation
// pipeline. With a single P the annotator goroutines cannot overlap the
// replay and only add scheduling latency, so the pipeline engages exactly
// when spare parallelism exists; tests toggle the gate to exercise both
// paths on any machine.
var broadcastPipeline = runtime.GOMAXPROCS(0) > 1

// broadcastSequentialInline annotates and replays each chunk in one
// goroutine: annotate every group, replay every member, release the chunk,
// repeat.
func broadcastSequentialInline(next func() annotated, release func([]trace.Record), private []func(annotated), groups []*oracleGroup) int64 {
	var n int64
	for blk := next(); len(blk.recs) > 0; blk = next() {
		for _, g := range groups {
			runs := blk.runs
			if !g.runsOK {
				runs = nil
			}
			g.oracle.Annotate(blk.recs, runs, &g.ann[0])
			replayGroup(g, blk, &g.ann[0])
		}
		for _, s := range private {
			s(blk)
		}
		n += int64(len(blk.recs))
		release(blk.recs)
	}
	return n
}

// broadcastSequentialPipelined is broadcastSequentialInline with the
// annotation stage running one chunk ahead: an annotator goroutine fills
// the parity-p buffers of every group for chunk k+1 — each geometry
// group's oracle pass in its own goroutine, they share no state — while
// the main goroutine replays chunk k from the parity-(1-p) buffers. The
// two parity tokens circulate through the free channel, so a buffer is
// never annotated over until its chunk has fully replayed. Replay stays in
// the main goroutine in the exact order of the inline path, which keeps
// counters — and the shared direction-bit streams — bit-identical to it.
// A chunk is released as its parity token is handed back.
func broadcastSequentialPipelined(next func() annotated, release func([]trace.Record), private []func(annotated), groups []*oracleGroup) int64 {
	type slot struct {
		blk annotated
		par int
	}
	ready := make(chan slot, 1)
	free := make(chan int, 2)
	free <- 0
	free <- 1
	go func() {
		defer close(ready)
		for blk := next(); len(blk.recs) > 0; blk = next() {
			par := <-free
			var wg sync.WaitGroup
			for _, g := range groups {
				wg.Add(1)
				go func(g *oracleGroup) {
					defer wg.Done()
					runs := blk.runs
					if !g.runsOK {
						runs = nil
					}
					g.oracle.Annotate(blk.recs, runs, &g.ann[par])
				}(g)
			}
			wg.Wait()
			ready <- slot{blk, par}
		}
	}()
	var n int64
	for s := range ready {
		for _, g := range groups {
			replayGroup(g, s.blk, &g.ann[s.par])
		}
		for _, p := range private {
			p(s.blk)
		}
		n += int64(len(s.blk.recs))
		release(s.blk.recs)
		free <- s.par
	}
	return n
}

// replayGroup feeds one annotated chunk to a group's members and echoes.
func replayGroup(g *oracleGroup, blk annotated, ann *cache.AccessAnnotations) {
	replayMembers(g.members, blk.recs, ann)
	for _, ef := range g.echoes {
		ef.echoCredit(len(blk.recs), ann)
	}
}

// replayMembers steps grouped members through one annotated chunk,
// charging each member's replay time with its own share of the wall time
// (one clock read per member).
func replayMembers(members []groupMember, recs []trace.Record, ann *cache.AccessAnnotations) {
	start := time.Now()
	for _, m := range members {
		m.fr.replayEvents(recs, ann)
		end := time.Now()
		m.fr.replayTime += end.Sub(start)
		start = end
	}
}

// replayPlan resolves how blocks are drawn and how each engine replays
// them. Each engine is resolved to its Frontend once, here. Eligible
// Frontends (oracleEligible) sharing a cache geometry with at least one
// other eligible Frontend form an oracleGroup and replay via replayEvents
// from the group's shared oracle. Every other engine — pollution-on,
// probed, prefetching, or alone in its geometry (an oracle for one engine
// is pure overhead) — replays privately: via replayRuns when src annotates
// blocks for its line size, else via StepBlock; an engine without a
// Frontend always replays via StepBlock. Frontends are timed on every path
// (ReplayTime). private holds the private replay closures; groups the
// oracle groups (singletons already demoted).
func replayPlan(src trace.ChunkSource, engines []Engine) (next func() annotated, private []func(annotated), groups []*oracleGroup) {
	rs, _ := src.(trace.RunChunkSource)
	if rs != nil && rs.RunLineBytes() > 0 {
		next = func() annotated {
			recs, runs := rs.NextChunkRuns()
			return annotated{recs, runs}
		}
	} else {
		rs = nil
		next = func() annotated { return annotated{recs: src.NextChunk()} }
	}

	privateStep := func(e Engine, f *Frontend) func(annotated) {
		if f == nil {
			return func(b annotated) { e.StepBlock(b.recs) }
		}
		runsOK := rs != nil && f.geom.LineBytes() == rs.RunLineBytes()
		return func(b annotated) {
			runs := b.runs
			if !runsOK {
				runs = nil
			}
			start := time.Now()
			f.replayRuns(b.recs, runs)
			f.replayTime += time.Since(start)
		}
	}

	// Tentatively group every eligible engine by geometry, in engine order
	// (map only for lookup, so the plan is deterministic).
	groupOf := make(map[cache.Geometry]*oracleGroup)
	for i, e := range engines {
		f := asFrontend(e)
		if f == nil || !f.oracleEligible() {
			private = append(private, privateStep(e, f))
			continue
		}
		geom := f.geom
		g := groupOf[geom]
		if g == nil {
			g = &oracleGroup{
				oracle: cache.NewOracle(geom),
				runsOK: rs != nil && geom.LineBytes() == rs.RunLineBytes(),
			}
			groupOf[geom] = g
			groups = append(groups, g)
		}
		g.members = append(g.members, groupMember{idx: i, fr: f})
	}
	// Demote singleton groups: simulating an oracle plus one mirror is
	// strictly more work than one private cache.
	kept := groups[:0]
	for _, g := range groups {
		if len(g.members) < 2 {
			private = append(private, privateStep(engines[g.members[0].idx], g.members[0].fr))
			continue
		}
		kept = append(kept, g)
	}
	groups = kept
	return next, private, groups
}

// sharedAnn is one block's access annotation fanned to the workers owning
// a group's members; the last consumer recycles the slot buffer.
type sharedAnn struct {
	cache.AccessAnnotations
	refs atomic.Int32
}

// sharedBlock is one block fanned out by the parallel broadcast. Its
// reference count is fixed before it is sent: one per group target (one
// for a group whose members were all echoed away) plus one per worker
// owning private engines. The last reader releases it to the source.
type sharedBlock struct {
	annotated
	refs atomic.Int32
}

func (b *sharedBlock) done(src trace.ChunkSource) {
	if b.refs.Add(-1) == 0 {
		src.Release(b.recs)
	}
}

// workItem is one unit handed to a parallel broadcast worker: a block for
// the worker's private engines (ann nil) or an annotated block for the
// worker's members of group gid.
type workItem struct {
	blk *sharedBlock
	gid int
	ann *sharedAnn
}

// BroadcastWorkers is Broadcast with an explicit worker bound. Each engine
// is owned by exactly one worker for the whole replay, so every engine
// consumes blocks strictly in trace order with no per-record locking.
// workers <= 1 replays on the calling goroutine. Every drawn block is
// released to src exactly once, after its last reader.
func BroadcastWorkers(src trace.ChunkSource, workers int, engines ...Engine) int64 {
	if len(engines) == 0 {
		return 0
	}
	next, private, groups := replayPlan(src, engines)
	echoes := extractEchoes(groups)
	if workers > len(engines) {
		workers = len(engines)
	}
	if workers <= 1 {
		// Sequential chunk-major replay: block k visits every engine
		// while it is hot, then block k+1 is drawn. Each group's oracle
		// annotates the block once into a reusable group buffer; its
		// members then consume the annotation back to back and its echoes
		// take only the bulk i-cache credit. Replay order is deterministic
		// here, so engines with identical direction predictors
		// additionally share one recorded bit stream per chunk.
		shares := extractDirShares(groups)
		var n int64
		if broadcastPipeline && len(groups) > 0 {
			n = broadcastSequentialPipelined(next, src.Release, private, groups)
		} else {
			n = broadcastSequentialInline(next, src.Release, private, groups)
		}
		for _, g := range groups {
			g.ann[0].Release()
			g.ann[1].Release()
		}
		for _, p := range echoes {
			p.echo.adoptBreakMetrics(p.leader)
		}
		releaseDirShares(shares)
		return n
	}

	// Parallel fan-out. Engines keep their static round-robin worker
	// assignment (engine i → worker i mod workers); each worker drains its
	// own bounded channel. Grouped engines add one producer goroutine per
	// group: it annotates each block once and fans the shared annotation
	// to exactly the workers owning members of that group, refcounted so
	// the last consumer recycles the buffer. The producer graph is acyclic
	// (main → group oracles → workers, main → workers), so the bounded
	// channels cannot deadlock.
	wch := make([]chan workItem, workers)
	ownPrivate := make([][]func(annotated), workers)
	ownGrouped := make([][][]groupMember, workers)
	for w := range wch {
		wch[w] = make(chan workItem, broadcastDepth)
		ownGrouped[w] = make([][]groupMember, len(groups))
	}
	// Private engines and group members round-robin onto workers by their
	// original engine index; private closures round-robin by position
	// (their engine indices are no longer needed).
	for i, s := range private {
		w := i % workers
		ownPrivate[w] = append(ownPrivate[w], s)
	}
	groupWorkers := make([][]int, len(groups))
	var refs int32
	for gi, g := range groups {
		seen := make(map[int]bool, workers)
		for _, m := range g.members {
			w := m.idx % workers
			ownGrouped[w][gi] = append(ownGrouped[w][gi], m)
			if !seen[w] {
				seen[w] = true
				groupWorkers[gi] = append(groupWorkers[gi], w)
			}
		}
		refs += int32(max(len(groupWorkers[gi]), 1))
	}

	var wwg sync.WaitGroup
	for w := range wch {
		wwg.Add(1)
		go func(w int) {
			defer wwg.Done()
			for it := range wch[w] {
				if it.ann == nil {
					for _, s := range ownPrivate[w] {
						s(it.blk.annotated)
					}
				} else {
					replayMembers(ownGrouped[w][it.gid], it.blk.recs, &it.ann.AccessAnnotations)
					if it.ann.refs.Add(-1) == 0 {
						it.ann.Release()
					}
				}
				it.blk.done(src)
			}
		}(w)
	}

	var gwg sync.WaitGroup
	gin := make([]chan *sharedBlock, len(groups))
	for gi, g := range groups {
		gin[gi] = make(chan *sharedBlock, broadcastDepth)
		targets := groupWorkers[gi]
		gwg.Add(1)
		go func(gi int, g *oracleGroup, targets []int) {
			defer gwg.Done()
			for blk := range gin[gi] {
				runs := blk.runs
				if !g.runsOK {
					runs = nil
				}
				ann := &sharedAnn{}
				g.oracle.Annotate(blk.recs, runs, &ann.AccessAnnotations)
				// The group's echoes are owned by this goroutine alone
				// (they appear in no worker's member list), so their bulk
				// credit happens here, before the annotation is shared.
				for _, ef := range g.echoes {
					ef.echoCredit(len(blk.recs), &ann.AccessAnnotations)
				}
				if len(targets) == 0 {
					// Every member of this geometry was echoed away; the
					// annotation existed only for the credit above.
					ann.Release()
					blk.done(src)
					continue
				}
				ann.refs.Store(int32(len(targets)))
				for _, w := range targets {
					wch[w] <- workItem{blk: blk, gid: gi, ann: ann}
				}
			}
		}(gi, g, targets)
	}

	anyPrivate := make([]bool, workers)
	for w := range anyPrivate {
		anyPrivate[w] = len(ownPrivate[w]) > 0
		if anyPrivate[w] {
			refs++
		}
	}
	var n int64
	for a := next(); len(a.recs) > 0; a = next() {
		n += int64(len(a.recs))
		blk := &sharedBlock{annotated: a}
		blk.refs.Store(refs)
		for gi := range gin {
			gin[gi] <- blk
		}
		for w, own := range anyPrivate {
			if own {
				wch[w] <- workItem{blk: blk, gid: -1}
			}
		}
	}
	for gi := range gin {
		close(gin[gi])
	}
	gwg.Wait()
	for _, ch := range wch {
		close(ch)
	}
	wwg.Wait()
	for _, p := range echoes {
		p.echo.adoptBreakMetrics(p.leader)
	}
	return n
}
