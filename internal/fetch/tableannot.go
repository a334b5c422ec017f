package fetch

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/isa"
	"repro/internal/metrics"
	"repro/internal/ras"
	"repro/internal/trace"
)

// This file implements the broadcast's NLS-table annotation (DESIGN.md §16,
// "The NLS-table annotation"). The NLS-table is tag-less and decoupled from
// the cache (§4.1), so an entry's type and target depend on the break
// stream alone; a cache geometry decides only which way a pointer names and
// whether that line is still resident when the pointer is followed. Grouped
// NLS-table engines that differ only in geometry therefore share one walk
// of the table per block: a tableDriver on the main goroutine keeps a table
// without geometry and emits, per block, the counters every reader shares
// plus a list of the pointer checks and way updates, and each reader
// resolves those items against its group's access annotation in its group
// goroutine, keeping only a way per table entry.

// Table-annotation items. Each item is one uint64: a pointer check (the
// break at record idx followed a pointer whose offset matched) or a way
// update (the taken break owning entry ent resolved at record idx).
const (
	// itemWay marks a way update: the entry's way becomes the way of the
	// slot at idx, the break's successor.
	itemWay = 1 << 0
	// itemSucc marks a pointer check whose successor slot is published in
	// cache.AccessAnnotations.Succ rather than at idx+1: the block's last
	// record, or a break whose next record is not its successor. The
	// driver asks every group oracle with readers about it (sharedBlock.succ).
	itemSucc = 1 << 1
	// itemMispredict marks a pointer check whose wrong outcome is a
	// mispredict rather than a misfetch.
	itemMispredict = 1 << 2
	// A check carries the break's isa.Kind, the record index, the table
	// entry and, in its top 16 bits, the target line XOR the successor's
	// line: the pointer's set matches iff the bits under a reader's set
	// mask are zero (tableShareKey bounds the sets to 16 bits).
	itemKindShift = 3
	itemKindMask  = 7
	itemIdxShift  = 6
	itemEntShift  = itemIdxShift + cache.EvtIdxBits
	itemDiffShift = 48
	itemEntMask   = 1<<(itemDiffShift-itemEntShift) - 1
)

// The item's kind field must hold every isa.Kind.
var _ [itemKindMask + 1 - isa.NumKinds]struct{}

// breakCounts are the break counters every reader of one table annotation
// shares: all of them but the outcomes of the pointer checks.
type breakCounts struct {
	breaks, cond, dirWrong uint64
	misfetch, mispredict   [isa.NumKinds]uint64
}

func (c *breakCounts) addTo(m *metrics.Counters) {
	m.Breaks += c.breaks
	m.CondBranches += c.cond
	m.CondDirWrong += c.dirWrong
	for k := range c.misfetch {
		m.Misfetches += c.misfetch[k]
		m.MisfetchByKind[k] += c.misfetch[k]
		m.Mispredicts += c.mispredict[k]
		m.MispredictByKind[k] += c.mispredict[k]
	}
}

// tableAnn is one block's annotation from one tableDriver.
type tableAnn struct {
	shared breakCounts
	items  []uint64
}

// itemPool recycles item lists across broadcasts; within one they travel
// with their recycled block.
var itemPool = sync.Pool{
	New: func() any {
		b := make([]uint64, 0, trace.DefaultChunkRecords/2)
		return &b
	},
}

func getItems() []uint64 { return (*itemPool.Get().(*[]uint64))[:0] }

func putItems(b []uint64) {
	b = b[:0]
	itemPool.Put(&b)
}

// drvEntry is one entry of a driver's table: an NLS entry without the
// fields a cache geometry decides. line is the target's line address,
// from which each reader derives its set.
type drvEntry struct {
	line uint32
	typ  core.EntryType
	off  uint8
}

// tableDriver computes one table-annotation slot. It steps the break stream
// of every drawn block through a geometry-free copy of the readers' table,
// exactly as stepBreakAt and nlsPredictor would, reading the break
// directions from direction slot dir, on the main goroutine before the
// block is fanned out. Its return stack is the first reader's, which reads
// no stack while it reads the annotation.
type tableDriver struct {
	// slot is the driver's table-annotation slot; dir and runs are the
	// direction and run slots it reads.
	slot, dir, runs int
	// geom is the first reader's geometry; the driver uses only its line
	// size, which every reader shares.
	geom    cache.Geometry
	mask    uint32
	ents    []drvEntry
	ras     *ras.Stack
	pending pendingBreak
	readers []*Frontend
}

// nlsTable returns the NLS-table of an engine tableShareKey admitted.
func (f *Frontend) nlsTable() *core.Table {
	return f.bpu.tp.(*nlsPredictor[tableStore]).store.t
}

// tableShareKey reports the key under which this grouped engine, reading
// direction slot dir, may read a table annotation instead of replaying, and
// whether reading one is sound. It requires an NLS-table predictor, oracle
// eligibility (pollution and prefetching fork the cache state the checks
// read off the group annotation), no probe ever attached (a reader steps no
// break, so a probe would see no events and no site would be numbered),
// the engine's cold state, as echoInvariant does, and a shared direction
// slot. The key holds what the driven stream depends on besides the trace:
// table size, direction slot, return-stack depth and line size.
func (f *Frontend) tableShareKey(dir int) (string, bool) {
	p, ok := f.bpu.tp.(*nlsPredictor[tableStore])
	if !ok || dir < 0 || f.sites != nil || !f.oracleEligible() ||
		!f.coldBreaks() || f.geom.NumSets() > 1<<16 {
		return "", false
	}
	return fmt.Sprintf("%d|dir%d|ras%d|line%d",
		p.store.t.Len(), dir, f.rstack.Cap(), f.geom.LineBytes()), true
}

// planTables makes every grouped member whose tableShareKey at least one
// other grouped member shares a reader of that key's table annotation: the
// member moves from its group's member list to the group's readers. It
// returns one driver per such key. Run it after planRuns and planDirs,
// whose slots the drivers read.
func planTables(groups []*oracleGroup) []*tableDriver {
	type cand struct {
		g *oracleGroup
		m *member
	}
	var keys []string
	byKey := make(map[string][]cand)
	for _, g := range groups {
		for i := range g.members {
			m := &g.members[i]
			if key, ok := m.fr.tableShareKey(m.dir); ok {
				if byKey[key] == nil {
					keys = append(keys, key)
				}
				byKey[key] = append(byKey[key], cand{g, m})
			}
		}
	}
	var drivers []*tableDriver
	for _, key := range keys {
		cs := byKey[key]
		if len(cs) < 2 {
			continue
		}
		lead := cs[0].m.fr
		n := lead.nlsTable().Len()
		d := &tableDriver{
			slot: len(drivers), dir: cs[0].m.dir, runs: cs[0].g.runs,
			geom: lead.geom, mask: uint32(n - 1),
			ents: make([]drvEntry, n), ras: lead.rstack,
		}
		for _, c := range cs {
			c.m.tab = d.slot
			c.g.readers = append(c.g.readers, *c.m)
			d.readers = append(d.readers, c.m.fr)
		}
		drivers = append(drivers, d)
	}
	for _, g := range groups {
		kept := g.members[:0]
		for _, m := range g.members {
			if m.tab < 0 {
				kept = append(kept, m)
			}
		}
		g.members = kept
	}
	return drivers
}

// annotate steps blk's breaks through the driver's table, writes the
// block's slot and adds the breaks whose successor slot the oracles must
// publish to blk.succ.
func (d *tableDriver) annotate(blk *sharedBlock) {
	recs, runs := blk.recs, blk.runs[d.runs]
	dirs := &blk.dirs[d.dir]
	out := &blk.tabs[d.slot]
	g := &d.geom
	var c breakCounts
	items := out.items[:0]
	for i, pos := 0, 0; i < len(recs); i++ {
		r := recs[i]
		// Step's resolve of a deferred pointer update, chaining guard
		// included: the table gets the type and target, each reader the
		// successor's way.
		if d.pending.active {
			if p := d.pending.rec; p.Next() == r.PC {
				e := p.PC.Word() & d.mask
				d.ents[e] = drvEntry{
					line: g.LineAddr(p.Target),
					typ:  core.TypeForKind(p.Kind),
					off:  uint8(g.InstrOffset(p.Target)),
				}
				items = append(items, uint64(e)<<itemEntShift|uint64(i)<<itemIdxShift|itemWay)
			}
			d.pending.active = false
		}
		if !r.IsBreak() {
			// Its same-line followers are non-breaks too, none of them
			// right after a break.
			i += int(runs[i])
			continue
		}
		c.breaks++
		dirTaken := dirs.at(pos)
		pos++
		e := r.PC.Word() & d.mask
		ent := d.ents[e]
		next := r.Next()

		// nlsPredictor.Lookup: the fall-through and return-stack
		// mechanisms are address-checked here; a pointer whose offset
		// matches is left to each reader's set bits and way.
		followed, check, correct := false, false, false
		switch {
		case ent.typ == core.TypeReturn:
			top, ok := d.ras.Top()
			correct = ok && top == next
		case ent.typ == core.TypeOther || ent.typ == core.TypeCond && dirTaken:
			followed = true
			check = int(ent.off) == g.InstrOffset(next)
		default:
			correct = next == r.PC.Next()
		}

		// stepBreakAt: the class of a wrong fetch, and the stack effects.
		mispredict := false
		switch r.Kind {
		case isa.CondBranch:
			c.cond++
			if dirTaken != r.Taken {
				c.dirWrong++
				mispredict = true
			}
		case isa.Call:
			d.ras.Push(r.PC.Next())
		case isa.IndirectJump:
			mispredict = followed
		case isa.Return:
			top, ok := d.ras.Pop()
			mispredict = !ok || top != r.Target
		}
		switch {
		case check:
			it := uint64(uint16(ent.line^g.LineAddr(next)))<<itemDiffShift |
				uint64(e)<<itemEntShift | uint64(i)<<itemIdxShift | uint64(r.Kind)<<itemKindShift
			if mispredict {
				it |= itemMispredict
			}
			if i+1 == len(recs) || recs[i+1].PC != next {
				it |= itemSucc
				blk.succ = append(blk.succ, uint16(i))
			}
			items = append(items, it)
		case correct:
		case mispredict:
			c.mispredict[r.Kind]++
		default:
			c.misfetch[r.Kind]++
		}

		// nlsPredictor.Update: the type now, unless the break was taken;
		// then type and pointer wait for the successor.
		if r.Taken {
			d.pending.active, d.pending.rec = true, r
		} else {
			d.ents[e].typ = core.TypeForKind(r.Kind)
		}
	}
	out.shared, out.items = c, items
}

// readTable replays one block of n records for a table reader from its
// driver's annotation ta and its group's access annotation ann. A pointer
// check passes iff the target and successor lines agree in the reader's set
// bits and the successor's slot is a hit in the entry's way: with pollution
// and prefetching off nothing touches the cache between a break's lookup
// and its successor's fetch, so that slot says exactly whether the
// successor's line was resident in that way when the pointer was followed.
func (f *Frontend) readTable(n int, ta *tableAnn, ann *cache.AccessAnnotations) {
	ents := f.nlsTable().Entries()
	setMask := uint64(f.geom.NumSets() - 1)
	slots := ann.Slots
	ta.shared.addTo(&f.m)
	for _, it := range ta.items {
		e := it >> itemEntShift & itemEntMask
		i := int(it >> itemIdxShift & uint64(cache.EvtIdxMask))
		if it&itemWay != 0 {
			ents[e].Way = slots[i] & cache.AnnWayMask
			continue
		}
		var s uint8
		if it&itemSucc != 0 {
			s = ann.SuccSlot(i)
		} else {
			s = slots[i+1]
		}
		if it>>itemDiffShift&setMask == 0 && s&cache.AnnHit != 0 && s&cache.AnnWayMask == ents[e].Way {
			continue
		}
		kind := isa.Kind(it >> itemKindShift & itemKindMask)
		if it&itemMispredict != 0 {
			f.m.AddMispredict(kind)
		} else {
			f.m.AddMisfetch(kind)
		}
	}
	f.m.Instructions += uint64(n)
	f.echoCredit(n, ann)
}

// readTables replays a group's table readers through one block, charging
// each reader its own share of the wall time, as replayMembers does.
func readTables(readers []member, blk *sharedBlock, ann *cache.AccessAnnotations) {
	if len(readers) == 0 {
		return
	}
	start := time.Now()
	for _, m := range readers {
		m.fr.readTable(len(blk.recs), &blk.tabs[m.tab], ann)
		end := time.Now()
		m.fr.replayTime += end.Sub(start)
		start = end
	}
}

// handOff leaves every reader exactly as per-record stepping would have:
// each table entry takes the driver's type and offset, the set of the
// target line in the reader's geometry and the reader's own way; the
// driven return stack and pending break are adopted. The broadcast copies
// the i-cache state from the oracle, as for every grouped member.
func (d *tableDriver) handOff() {
	for _, f := range d.readers {
		ents := f.nlsTable().Entries()
		for e, de := range d.ents {
			ents[e].Type, ents[e].Offset = de.typ, de.off
			ents[e].Set = uint16(f.geom.SetOfLine(de.line))
		}
		if f.rstack != d.ras {
			f.rstack.CopyFrom(d.ras)
		}
		f.pending = d.pending
	}
}
