package fetch

import (
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cache"
	"repro/internal/isa"
	"repro/internal/pht"
	"repro/internal/trace"
)

// broadcastDepth is the capacity of each channel of the fan-out (per-group
// gin, per-worker wch). It bounds the blocks one broadcast holds
// outstanding — drawn from the source and not yet released — regardless
// of trace length, worker count or group count, which is what lets a
// streamed sweep run in O(chunk) memory. Every outstanding block lies
// between the oldest one still held and the newest drawn, and the main
// goroutine cannot run further ahead of the oldest than the longest chain
// it feeds: main (1) → gin (depth) → group goroutine (1) → wch (depth) →
// worker (1), which is broadcastBound. Unbuffered hand-offs measured as
// fast as buffered ones for less memory (DESIGN.md §16): on one CPU they
// replay each block group by group while it is cache-hot, and on more the
// stages still overlap.
const (
	broadcastDepth = 0
	broadcastBound = 2*broadcastDepth + 3
)

// Broadcast replays a trace ONCE through every engine: each block drawn
// from src is fanned out to all engines, so a sweep cell of E engines reads
// the records one time instead of E times and each block is still
// cache-hot when the engines replay it. Engines see exactly the record
// sequence of src, in order, each on the replay path replayPlan picks for
// it, and end with the counters a per-record Run would leave. The worker
// pool is sized to min(GOMAXPROCS, len(engines)); use BroadcastWorkers to
// bound it explicitly. Returns the number of records replayed.
func Broadcast(src trace.ChunkSource, engines ...*Frontend) int64 {
	return BroadcastWorkers(src, runtime.GOMAXPROCS(0), engines...)
}

// member is one engine a broadcast worker replays.
type member struct {
	idx int // broadcast index: worker idx mod workers replays it
	fr  *Frontend
	// runs is the slot of each block's run annotation a private fr
	// replays, or -1 when it reads none (grouped or decoupled; see
	// planRuns).
	runs int
	// dir is the slot of each block's direction annotation fr reads, or -1
	// when fr predicts with its own predictor (see dirDriver).
	dir int
}

// replayPrivate steps a private engine through one block on its own cache,
// via replayRuns over the block's run slot.
func (m *member) replayPrivate(blk *sharedBlock) {
	var runs []uint8
	if m.runs >= 0 {
		runs = blk.runs[m.runs]
	}
	m.fr.readDirs(blk, m.dir)
	start := time.Now()
	m.fr.replayRuns(blk.recs, runs)
	m.fr.replayTime += time.Since(start)
}

// oracleGroup shares one fetch oracle among the eligible engines of equal
// geometry: the oracle simulates the group's i-cache once per block and
// every member consumes the resulting annotation.
type oracleGroup struct {
	oracle  *cache.Oracle
	members []member
	// echoes are the engines of this geometry whose break metrics are
	// echoed from an equal-invariant leader in another group (see
	// Frontend.echoInvariant): they skip replay entirely and only receive
	// this group's per-block i-cache bulk credits.
	echoes []*Frontend
	// runs is the slot of each block's run annotation the oracle reads.
	runs int
	// anns recycles the group's per-block annotations.
	anns freeList[sharedAnn]
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

// dirBits is one block's direction annotation for one predictor
// configuration: the predicted direction of each break, in break order.
type dirBits struct {
	bits []uint64
	n    int
}

func (d *dirBits) push(taken bool) {
	if d.n&63 == 0 {
		d.bits = append(d.bits, 0)
	}
	if taken {
		d.bits[d.n>>6] |= 1 << (d.n & 63)
	}
	d.n++
}

func (d *dirBits) at(i int) bool { return d.bits[i>>6]>>(i&63)&1 != 0 }

// readDirs points f's direction cursor at the start of blk's annotation in
// slot k; k < 0 leaves f predicting with its own predictor.
func (f *Frontend) readDirs(blk *sharedBlock, k int) {
	if k >= 0 {
		f.dirIn, f.dirPos = &blk.dirs[k], 0
	}
}

// dirDriver computes one direction-annotation slot. Identically configured
// cold direction predictors fed the identical break stream are bit-identical
// state machines (Frontend.dirShareKey), so the main goroutine trains the
// first reader's predictor through each drawn block's breaks, before the
// block is fanned out, and every reader — the first included — reads the
// bits instead of consulting or training its own predictor.
type dirDriver struct {
	readers []*Frontend
}

// annotate drives the predictor through recs' breaks exactly as
// stepBreakAt does: Predict and Resolve for a conditional, Query for any
// other break.
func (d *dirDriver) annotate(recs []trace.Record, out *dirBits) {
	dir := d.readers[0].bpu.dir
	out.bits, out.n = out.bits[:0], 0
	for _, r := range recs {
		switch {
		case r.Kind == isa.CondBranch:
			taken, tok := dir.Predict(r.PC)
			dir.Resolve(r.PC, tok, r.Taken)
			out.push(taken)
		case r.IsBreak():
			out.push(dir.Query(r.PC))
		}
	}
}

// handOff detaches the readers and has every other reader adopt the driven
// predictor's state, leaving each exactly as if it had trained its own.
func (d *dirDriver) handOff() {
	src := pht.Unwrap(d.readers[0].bpu.dir)
	for i, f := range d.readers {
		f.dirIn = nil
		if i > 0 {
			pht.Unwrap(f.bpu.dir).(interface{ AdoptState(pht.Predictor) bool }).AdoptState(src)
		}
	}
}

// planDirs gives a direction-annotation slot to every replaying engine whose
// Frontend.dirShareKey at least one other replaying engine, grouped or
// private, shares, and returns one driver per slot. Echoed engines replay
// nothing and read nothing.
func planDirs(private []member, groups []*oracleGroup) []*dirDriver {
	var all []*member
	for _, g := range groups {
		for i := range g.members {
			all = append(all, &g.members[i])
		}
	}
	for i := range private {
		all = append(all, &private[i])
	}
	var keys []string
	byKey := make(map[string][]*member)
	for _, m := range all {
		if key, ok := m.fr.dirShareKey(); ok {
			if byKey[key] == nil {
				keys = append(keys, key)
			}
			byKey[key] = append(byKey[key], m)
		}
	}
	var drivers []*dirDriver
	for _, key := range keys {
		if ms := byKey[key]; len(ms) > 1 {
			d := &dirDriver{}
			for _, m := range ms {
				m.dir = len(drivers)
				d.readers = append(d.readers, m.fr)
			}
			drivers = append(drivers, d)
		}
	}
	return drivers
}

// replayMembers steps grouped members through one annotated block,
// charging each member's replay time with its own share of the wall time
// (one clock read per member).
func replayMembers(members []member, blk *sharedBlock, ann *cache.AccessAnnotations) {
	start := time.Now()
	for _, m := range members {
		m.fr.readDirs(blk, m.dir)
		m.fr.replayEvents(blk.recs, ann)
		end := time.Now()
		m.fr.replayTime += end.Sub(start)
		start = end
	}
}

// replayPlan resolves how each engine replays the drawn blocks. Eligible
// engines (oracleEligible) sharing a cache geometry with at least one other
// eligible engine form an oracleGroup and replay via replayEvents from the
// group's shared oracle. Every other engine — pollution-on, probed,
// prefetching, or alone in its geometry (an oracle for one engine is pure
// overhead) — replays privately (member.replayPrivate). Engines are timed
// on every path (ReplayTime).
func replayPlan(engines []*Frontend) (private []member, groups []*oracleGroup) {
	// Tentatively group every eligible engine by geometry, in engine order
	// (map only for lookup, so the plan is deterministic).
	groupOf := make(map[cache.Geometry]*oracleGroup)
	for i, e := range engines {
		m := member{idx: i, fr: e, runs: -1, dir: -1}
		if !e.oracleEligible() {
			private = append(private, m)
			continue
		}
		geom := e.geom
		g := groupOf[geom]
		if g == nil {
			g = &oracleGroup{
				oracle: cache.NewOracle(geom),
				anns:   make(freeList[sharedAnn], broadcastBound),
			}
			groupOf[geom] = g
			groups = append(groups, g)
		}
		g.members = append(g.members, m)
	}
	// Demote singleton groups: simulating an oracle plus one mirror is
	// strictly more work than one private cache.
	kept := groups[:0]
	for _, g := range groups {
		if len(g.members) < 2 {
			private = append(private, g.members[0])
			continue
		}
		kept = append(kept, g)
	}
	return private, kept
}

// planRuns gives every group oracle, and every private engine that replays
// through the fused pipeline, the run-annotation slot of its line size, and
// returns the line size of each slot. A block's runs depend only on its
// records and the line size (trace.BlockRuns), so the broadcast computes
// each slot once per block, however many engines and oracles read it.
func planRuns(private []member, groups []*oracleGroup) (lines []int) {
	slot := func(lineBytes int) int {
		if k := slices.Index(lines, lineBytes); k >= 0 {
			return k
		}
		lines = append(lines, lineBytes)
		return len(lines) - 1
	}
	for _, g := range groups {
		g.runs = slot(g.oracle.Geometry().LineBytes())
	}
	for i := range private {
		if m := &private[i]; !m.fr.decoupled() {
			m.runs = slot(m.fr.geom.LineBytes())
		}
	}
	return lines
}

// freeList recycles the per-block structures of one broadcast, which never
// holds more than broadcastBound of them outstanding.
type freeList[T any] chan *T

func (l freeList[T]) get() *T {
	select {
	case v := <-l:
		return v
	default:
		return new(T)
	}
}

func (l freeList[T]) put(v *T) {
	select {
	case l <- v:
	default:
	}
}

// sharedAnn is one block's access annotation fanned to the workers owning
// a group's members; the last consumer recycles it.
type sharedAnn struct {
	cache.AccessAnnotations
	refs atomic.Int32
}

// sharedBlock is one block fanned out by the broadcast, with its run
// annotation (one slot per line size, see planRuns) and its direction
// annotation (one slot per dirDriver). Its reference count is fixed before
// it is sent: one per group target (one for a group whose members were all
// echoed away) plus one per worker owning private engines. The last reader
// releases it to the source and recycles it.
type sharedBlock struct {
	recs []trace.Record
	runs [][]uint8
	dirs []dirBits
	refs atomic.Int32
}

// workItem is one unit handed to a broadcast worker: a block for the
// worker's private engines (ann nil) or an annotated block for the worker's
// members of group gid.
type workItem struct {
	blk *sharedBlock
	gid int
	ann *sharedAnn
}

// BroadcastWorkers is Broadcast with an explicit worker bound (at least
// one). Each engine is owned by exactly one worker for the whole replay, so
// every engine consumes blocks strictly in trace order with no per-record
// locking. Every drawn block is released to src exactly once, after its
// last reader.
//
// The main goroutine draws each block and computes its run annotation, once
// per line size a replaying engine or oracle needs (planRuns), and its
// direction annotation (dirDriver). Engines keep a static round-robin worker
// assignment (engine i → worker i mod workers); each worker drains its own
// bounded channel. Grouped engines add one goroutine per group: it
// annotates each block once and fans the shared annotation to exactly the
// workers owning members of that group, refcounted so the last consumer
// recycles it. The producer graph is acyclic (main → group oracles →
// workers, main → workers), so the bounded channels cannot deadlock.
func BroadcastWorkers(src trace.ChunkSource, workers int, engines ...*Frontend) int64 {
	if len(engines) == 0 {
		return 0
	}
	private, groups := replayPlan(engines)
	echoes := extractEchoes(groups)
	lines := planRuns(private, groups)
	drivers := planDirs(private, groups)
	workers = max(1, min(workers, len(engines)))

	blocks := make(freeList[sharedBlock], broadcastBound)
	done := func(blk *sharedBlock) {
		if blk.refs.Add(-1) == 0 {
			src.Release(blk.recs)
			blocks.put(blk)
		}
	}

	wch := make([]chan workItem, workers)
	ownPrivate := make([][]member, workers)
	ownGrouped := make([][][]member, workers)
	for w := range wch {
		wch[w] = make(chan workItem, broadcastDepth)
		ownGrouped[w] = make([][]member, len(groups))
	}
	var refs int32
	for _, m := range private {
		w := m.idx % workers
		if len(ownPrivate[w]) == 0 {
			refs++
		}
		ownPrivate[w] = append(ownPrivate[w], m)
	}
	groupWorkers := make([][]int, len(groups))
	for gi, g := range groups {
		for _, m := range g.members {
			w := m.idx % workers
			if len(ownGrouped[w][gi]) == 0 {
				groupWorkers[gi] = append(groupWorkers[gi], w)
			}
			ownGrouped[w][gi] = append(ownGrouped[w][gi], m)
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
					for i := range ownPrivate[w] {
						ownPrivate[w][i].replayPrivate(it.blk)
					}
				} else {
					replayMembers(ownGrouped[w][it.gid], it.blk, &it.ann.AccessAnnotations)
					if it.ann.refs.Add(-1) == 0 {
						groups[it.gid].anns.put(it.ann)
					}
				}
				done(it.blk)
			}
		}(w)
	}

	var gwg sync.WaitGroup
	gin := make([]chan *sharedBlock, len(groups))
	for gi, g := range groups {
		gin[gi] = make(chan *sharedBlock, broadcastDepth)
		gwg.Add(1)
		go func(gi int, g *oracleGroup, targets []int) {
			defer gwg.Done()
			for blk := range gin[gi] {
				ann := g.anns.get()
				g.oracle.Annotate(blk.recs, blk.runs[g.runs], &ann.AccessAnnotations)
				// The group's echoes are owned by this goroutine alone
				// (they appear in no worker's member list), so their bulk
				// credit happens here, before the annotation is shared.
				for _, ef := range g.echoes {
					ef.echoCredit(len(blk.recs), &ann.AccessAnnotations)
				}
				if len(targets) == 0 {
					// Every member of this geometry was echoed away; the
					// annotation existed only for the credit above.
					g.anns.put(ann)
					done(blk)
					continue
				}
				ann.refs.Store(int32(len(targets)))
				for _, w := range targets {
					wch[w] <- workItem{blk: blk, gid: gi, ann: ann}
				}
			}
		}(gi, g, groupWorkers[gi])
	}

	var n int64
	for recs := src.NextChunk(); len(recs) > 0; recs = src.NextChunk() {
		n += int64(len(recs))
		blk := blocks.get()
		blk.recs = recs
		if blk.dirs == nil {
			blk.runs = make([][]uint8, len(lines))
			blk.dirs = make([]dirBits, len(drivers))
		}
		for k, lb := range lines {
			blk.runs[k] = trace.BlockRuns(blk.runs[k], recs, lb)
		}
		for k, d := range drivers {
			d.annotate(recs, &blk.dirs[k])
		}
		blk.refs.Store(refs)
		for gi := range gin {
			gin[gi] <- blk
		}
		for w, own := range ownPrivate {
			if len(own) > 0 {
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
	for _, g := range groups {
		for len(g.anns) > 0 {
			(<-g.anns).Release()
		}
	}
	for _, p := range echoes {
		p.echo.adoptBreakMetrics(p.leader)
	}
	for _, d := range drivers {
		d.handOff()
	}
	return n
}
