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

// broadcastDepth is the capacity of each channel of the fan-out (per-line-size
// ain, per-worker wch). It bounds the blocks one broadcast holds
// outstanding — drawn from the source and not yet released — regardless
// of trace length, worker count or group count, which is what lets a
// streamed sweep run in O(chunk) memory. Every outstanding block lies
// between the oldest one still held and the newest drawn, and the main
// goroutine cannot run further ahead of the oldest than the longest chain
// it feeds: main (1) → ain (depth) → line-size annotator (1) → wch (depth)
// → worker (1), which is broadcastBound. Unbuffered hand-offs measured as
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
	// dir is the slot of each block's direction annotation fr reads, or -1
	// when fr predicts with its own predictor (see dirDriver).
	dir int
	// tab is the slot of each block's table annotation a table reader
	// reads, or -1 when fr replays (see tableDriver).
	tab int
	// sites reports that fr reads each block's site annotation (see
	// siteDriver).
	sites bool
}

// replayPrivate steps a private engine (polluted or decoupled) through one
// block on its own cache, as StepBlock does outside a broadcast.
func (m *member) replayPrivate(blk *sharedBlock) {
	m.fr.readDirs(blk, m.dir)
	m.fr.readSites(blk, m.sites)
	start := time.Now()
	m.fr.StepBlock(blk.recs)
	m.fr.replayTime += time.Since(start)
}

// oracleGroup is the eligible engines of one geometry: the oracle of the
// group's line size simulates its i-cache once per block and every member
// consumes the resulting annotation.
type oracleGroup struct {
	geom    cache.Geometry
	members []member
	// echoes are the engines of this geometry whose break metrics are
	// echoed from an equal-invariant leader in another group (see
	// Frontend.echoInvariant): they skip replay entirely and only receive
	// this group's per-block i-cache bulk credits.
	echoes []*Frontend
	// readers are the NLS-table engines of this geometry that read a
	// table annotation instead of replaying (see planTables).
	readers []member
	// runs is the slot of each block's run annotation the oracle reads:
	// one per line size, so it also names the group's annotator.
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
	// runs is the run slot of some reader's group oracle, or -1 when every
	// reader replays privately.
	runs int
}

// annotate drives the predictor through recs' breaks exactly as
// stepBreakAt does: Predict and Resolve for a conditional, Query for any
// other break. Given the block's runs (any line size: a run's followers
// are non-breaks under every one), it skips each non-break's same-line
// followers; with nil runs it visits every record.
func (d *dirDriver) annotate(recs []trace.Record, runs []uint8, out *dirBits) {
	dir := d.readers[0].bpu.dir
	out.bits, out.n = out.bits[:0], 0
	for i := 0; i < len(recs); i++ {
		switch r := recs[i]; {
		case r.Kind == isa.CondBranch:
			taken, tok := dir.Predict(r.PC)
			dir.Resolve(r.PC, tok, r.Taken)
			out.push(taken)
		case r.IsBreak():
			out.push(dir.Query(r.PC))
		case runs != nil:
			i += int(runs[i])
		}
	}
}

// handOff detaches the readers and has every other reader adopt the driven
// predictor's state, leaving each exactly as if it had trained its own.
func (d *dirDriver) handOff() {
	src := d.readers[0].bpu.dir
	for i, f := range d.readers {
		f.dirIn = nil
		if i > 0 {
			f.bpu.dir.(interface{ AdoptState(pht.Predictor) bool }).AdoptState(src)
		}
	}
}

// planDirs gives a direction-annotation slot to every replaying engine whose
// Frontend.dirShareKey at least one other replaying engine, grouped or
// private, shares, and returns one driver per slot, each reading the run
// slot of one of its readers' groups (planRuns has run). Echoed engines
// replay nothing and read nothing.
func planDirs(private []member, groups []*oracleGroup) []*dirDriver {
	var all []*member
	var runs []int // the run slot all[i]'s group reads, -1 for private
	for _, g := range groups {
		for i := range g.members {
			all = append(all, &g.members[i])
			runs = append(runs, g.runs)
		}
	}
	for i := range private {
		all = append(all, &private[i])
		runs = append(runs, -1)
	}
	var keys []string
	byKey := make(map[string][]int)
	for i, m := range all {
		if key, ok := m.fr.dirShareKey(); ok {
			if byKey[key] == nil {
				keys = append(keys, key)
			}
			byKey[key] = append(byKey[key], i)
		}
	}
	var drivers []*dirDriver
	for _, key := range keys {
		if ms := byKey[key]; len(ms) > 1 {
			d := &dirDriver{runs: -1}
			for _, i := range ms {
				all[i].dir = len(drivers)
				d.readers = append(d.readers, all[i].fr)
				d.runs = max(d.runs, runs[i])
			}
			drivers = append(drivers, d)
		}
	}
	return drivers
}

// siteDriver numbers the breaks of every drawn block for the probed
// engines, on the main goroutine before the block is fanned out: one map
// lookup per break for all of them, where each would otherwise number its
// own. Its readers are the probed engines that enter the broadcast with no
// site numbered yet (planSites); they read the block's site annotation,
// grouped or private, and take the driver's table when the broadcast ends.
type siteDriver struct {
	table   *siteTable
	readers []*Frontend
}

// planSites returns the site driver of a broadcast, or nil when no probed
// engine enters it with an empty site table. The driver starts from an
// empty table, so its readers number as each would alone; a probed engine
// that numbered sites before numbers its own as it replays.
func planSites(private []member, groups []*oracleGroup) *siteDriver {
	var d *siteDriver
	serve := func(m *member) {
		if t := m.fr.sites; t == nil || len(t.ids) > 0 {
			return
		}
		if d == nil {
			d = &siteDriver{table: &siteTable{ids: make(map[isa.Addr]uint32)}}
		}
		m.sites = true
		d.readers = append(d.readers, m.fr)
	}
	for _, g := range groups {
		for i := range g.members {
			serve(&g.members[i])
		}
	}
	for i := range private {
		serve(&private[i])
	}
	return d
}

// annotate appends the site of each of recs' breaks to out[:0], in break
// order. Given the block's runs (any line size), it skips each non-break's
// same-line followers; with nil runs it visits every record.
func (d *siteDriver) annotate(recs []trace.Record, runs []uint8, out []uint32) []uint32 {
	out = out[:0]
	for i := 0; i < len(recs); i++ {
		switch r := recs[i]; {
		case r.IsBreak():
			out = append(out, d.table.id(r.PC))
		case runs != nil:
			i += int(runs[i])
		}
	}
	return out
}

// readSites points f's site cursor at the start of blk's site annotation
// when f reads it; otherwise f numbers its own sites.
func (f *Frontend) readSites(blk *sharedBlock, read bool) {
	if read {
		f.siteIn = blk.sites
	}
}

// handOff detaches the readers, which share the driver's table from now
// on: the first to number a new break copies it (Frontend.nextSite).
func (d *siteDriver) handOff() {
	d.table.shared = true
	for _, f := range d.readers {
		f.sites, f.siteIn = d.table, nil
	}
}

// replayMembers steps grouped members through one annotated block,
// charging each member's replay time with its own share of the wall time
// (one clock read per member).
func replayMembers(members []member, blk *sharedBlock, ann *cache.AccessAnnotations) {
	start := time.Now()
	for _, m := range members {
		m.fr.readDirs(blk, m.dir)
		m.fr.readSites(blk, m.sites)
		m.fr.replayEvents(blk.recs, ann)
		end := time.Now()
		m.fr.replayTime += end.Sub(start)
		start = end
	}
}

// replayPlan resolves how each engine replays the drawn blocks. Eligible
// engines (oracleEligible) form one oracleGroup per cache geometry, alone
// in it or not, and replay via replayEvents from the group's annotation
// unless extractEchoes or planTables finds them a cheaper path. The
// others — pollution-on or prefetching — replay privately
// (member.replayPrivate). Engines are timed on every path (ReplayTime).
func replayPlan(engines []*Frontend) (private []member, groups []*oracleGroup) {
	// Group every eligible engine by geometry, in engine order (map only
	// for lookup, so the plan is deterministic).
	groupOf := make(map[cache.Geometry]*oracleGroup)
	for i, e := range engines {
		m := member{idx: i, fr: e, dir: -1, tab: -1}
		if !e.oracleEligible() {
			private = append(private, m)
			continue
		}
		geom := e.geom
		g := groupOf[geom]
		if g == nil {
			g = &oracleGroup{
				geom: geom,
				anns: make(freeList[sharedAnn], broadcastBound),
			}
			groupOf[geom] = g
			groups = append(groups, g)
		}
		g.members = append(g.members, m)
	}
	return private, groups
}

// planRuns gives every group the run-annotation slot of its line size, and
// returns the line size of each slot. A block's runs depend only on its
// records and the line size (trace.BlockRuns), so the broadcast computes
// each slot once per block, however many groups and drivers read it.
func planRuns(groups []*oracleGroup) (lines []int) {
	slot := func(lineBytes int) int {
		if k := slices.Index(lines, lineBytes); k >= 0 {
			return k
		}
		lines = append(lines, lineBytes)
		return len(lines) - 1
	}
	for _, g := range groups {
		g.runs = slot(g.geom.LineBytes())
	}
	return lines
}

// annotator walks each block once for every group of one line size: its
// oracle simulates the groups' geometries, in group order.
type annotator struct {
	oracle *cache.Oracle
	groups []int
	// succ reports whether a group has table readers, which need the
	// successor slots of blk.succ.
	succ bool
}

// planAnnotators returns one annotator per run slot (planRuns), so
// annotator k reads run slot k.
func planAnnotators(groups []*oracleGroup, lines []int) []annotator {
	ans := make([]annotator, len(lines))
	geoms := make([][]cache.Geometry, len(lines))
	for gi, g := range groups {
		a := &ans[g.runs]
		a.groups = append(a.groups, gi)
		a.succ = a.succ || len(g.readers) > 0
		geoms[g.runs] = append(geoms[g.runs], g.geom)
	}
	for k := range ans {
		ans[k].oracle = cache.NewOracle(geoms[k]...)
	}
	return ans
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
// annotation (one slot per line size, see planRuns), its direction
// annotation (one slot per dirDriver), its site annotation (see
// siteDriver) and its table annotation (one slot per tableDriver). Its
// reference count is fixed before it is sent: one per group target (one
// for a group whose members were all echoed away or read tables) plus one
// per worker owning private engines. The last reader releases it to the
// source and recycles it.
type sharedBlock struct {
	recs  []trace.Record
	runs  [][]uint8
	dirs  []dirBits
	sites []uint32
	tabs  []tableAnn
	// succ lists, ascending, the breaks whose successor slot a table
	// reader needs from its group's annotation (cache.Oracle.AnnotateSucc).
	succ []uint16
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
// per line size a group needs (planRuns), its direction annotation
// (dirDriver), its site annotation (siteDriver) and its table annotation
// (tableDriver). Engines keep a static round-robin worker assignment
// (engine i → worker i mod workers); each worker drains its own bounded
// channel. Grouped engines add one
// goroutine per line size: its oracle annotates each block once for every
// group of that line size, and for each group it steps the echoes and
// table readers and fans the group's annotation to exactly the workers
// owning members of that group, refcounted so the last consumer recycles
// it. The producer graph is acyclic (main → line-size annotators →
// workers, main → workers), so the bounded channels cannot deadlock. When
// the broadcast ends, every grouped member and table reader takes its
// oracle's resident lines and LRU order (cache.Oracle.MirrorInto).
func BroadcastWorkers(src trace.ChunkSource, workers int, engines ...*Frontend) int64 {
	if len(engines) == 0 {
		return 0
	}
	private, groups := replayPlan(engines)
	echoes := extractEchoes(groups)
	lines := planRuns(groups)
	drivers := planDirs(private, groups)
	tables := planTables(groups)
	sites := planSites(private, groups)
	annotators := planAnnotators(groups, lines)
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

	var awg sync.WaitGroup
	ain := make([]chan *sharedBlock, len(annotators))
	for k := range annotators {
		ain[k] = make(chan *sharedBlock, broadcastDepth)
		awg.Add(1)
		go func(k int, a *annotator) {
			defer awg.Done()
			anns := make([]*sharedAnn, len(a.groups))
			outs := make([]*cache.AccessAnnotations, len(a.groups))
			for blk := range ain[k] {
				for j, gi := range a.groups {
					anns[j] = groups[gi].anns.get()
					outs[j] = &anns[j].AccessAnnotations
				}
				var succ []uint16
				if a.succ {
					succ = blk.succ
				}
				a.oracle.AnnotateSucc(blk.recs, blk.runs[k], succ, outs...)
				for j, gi := range a.groups {
					g, ann, targets := groups[gi], anns[j], groupWorkers[gi]
					// The group's echoes and table readers are owned by
					// this goroutine alone (they appear in no worker's
					// member list), so their credit and reads happen
					// here, before the annotation is shared.
					for _, ef := range g.echoes {
						ef.echoCredit(len(blk.recs), &ann.AccessAnnotations)
					}
					readTables(g.readers, blk, &ann.AccessAnnotations)
					if len(targets) == 0 {
						// Every member of this geometry was echoed or
						// reads a table; the annotation existed only for
						// them.
						g.anns.put(ann)
						done(blk)
						continue
					}
					ann.refs.Store(int32(len(targets)))
					for _, w := range targets {
						wch[w] <- workItem{blk: blk, gid: gi, ann: ann}
					}
				}
			}
		}(k, &annotators[k])
	}

	var n int64
	for recs := src.NextChunk(); len(recs) > 0; recs = src.NextChunk() {
		n += int64(len(recs))
		blk := blocks.get()
		blk.recs = recs
		if blk.dirs == nil {
			blk.runs = make([][]uint8, len(lines))
			blk.dirs = make([]dirBits, len(drivers))
			blk.tabs = make([]tableAnn, len(tables))
			for k := range blk.tabs {
				blk.tabs[k].items = getItems()
			}
		}
		for k, lb := range lines {
			blk.runs[k] = trace.BlockRuns(blk.runs[k], recs, lb)
		}
		for k, d := range drivers {
			var runs []uint8
			if d.runs >= 0 {
				runs = blk.runs[d.runs]
			}
			d.annotate(recs, runs, &blk.dirs[k])
		}
		if sites != nil {
			var runs []uint8
			if len(lines) > 0 {
				runs = blk.runs[0]
			}
			blk.sites = sites.annotate(recs, runs, blk.sites)
		}
		blk.succ = blk.succ[:0]
		for _, d := range tables {
			d.annotate(blk)
		}
		if len(tables) > 1 {
			slices.Sort(blk.succ)
			blk.succ = slices.Compact(blk.succ)
		}
		blk.refs.Store(refs)
		for k := range ain {
			ain[k] <- blk
		}
		for w, own := range ownPrivate {
			if len(own) > 0 {
				wch[w] <- workItem{blk: blk, gid: -1}
			}
		}
	}
	for k := range ain {
		close(ain[k])
	}
	awg.Wait()
	for _, ch := range wch {
		close(ch)
	}
	wwg.Wait()
	for _, a := range annotators {
		for _, gi := range a.groups {
			g := groups[gi]
			for len(g.anns) > 0 {
				(<-g.anns).Release()
			}
			for _, m := range g.members {
				a.oracle.MirrorInto(m.fr.icache)
			}
			for _, m := range g.readers {
				a.oracle.MirrorInto(m.fr.icache)
			}
		}
	}
	for _, p := range echoes {
		p.echo.adoptBreakMetrics(p.leader)
	}
	for len(blocks) > 0 {
		for _, ta := range (<-blocks).tabs {
			putItems(ta.items)
		}
	}
	for _, d := range drivers {
		d.handOff()
	}
	for _, d := range tables {
		d.handOff()
	}
	if sites != nil {
		sites.handOff()
	}
	return n
}
