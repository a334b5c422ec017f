package cache

import (
	"slices"

	"repro/internal/trace"
)

// This file implements the shared fetch oracle behind the geometry-sharded
// broadcast replay (DESIGN.md §11). With wrong-path pollution off, every
// engine that shares a cache Geometry drives bit-identical i-cache state
// from the same trace, so a sweep cell of E same-geometry engines pays for
// the same LRU simulation E times. The Oracle runs that simulation ONCE per
// record block — for every geometry of one line size in a single walk —
// and publishes each geometry's per-record (hit, way) outcomes as an
// AccessAnnotations value; each engine in the geometry group then mirrors
// the outcomes into its own tags (Cache.ApplyFill + Cache.AddAccesses)
// instead of calling Cache.Access per record.

// Annotation slot encoding: bit 7 is the hit flag, the low bits are the way
// the accessed line resides in after the access (the fill victim on a
// miss). The set is not stored — it is a pure function of the record's PC
// and the group's shared Geometry (SetIndex), so consumers rederive it for
// free.
const (
	// AnnHit is set in an annotation slot when the access hit.
	AnnHit uint8 = 0x80
	// AnnWayMask extracts the way from an annotation slot (associativity
	// is at most 127 by far — the paper's maximum is 4).
	AnnWayMask uint8 = 0x7f
)

// Replay-event encoding: each element of AccessAnnotations.Events packs a
// record index with the flags saying why an annotated replay must visit it.
// Every record NOT in the event list is a hit the oracle already counted
// and a non-break the frontend's accounting ignores, so a member replays a
// block by walking the event list alone — no per-record scanning.
const (
	// EvtFill marks a missing access: the member applies the fill to its
	// tag mirror (Cache.ApplyFill).
	EvtFill uint32 = 1 << 0
	// EvtBreak marks a break record: the member runs its §6 break
	// accounting.
	EvtBreak uint32 = 1 << 1
	// EvtPost marks the record after a break (and the first record of
	// every block): the point where a deferred predictor update resolves
	// with this record's way.
	EvtPost uint32 = 1 << 2
	// EvtShift is the index shift above the flag bits.
	EvtShift = 3

	// EvtIdxBits is the width of the record-index field above the flags
	// (record blocks hold at most trace.DefaultChunkRecords = 4096
	// records; Annotate checks the bound). Break events carry the break
	// PC's set index in the bits above the field, so every replay engine
	// sharing the annotation reads the set instead of recomputing
	// Geometry.SetIndex per break.
	EvtIdxBits         = 13
	EvtIdxMask  uint32 = 1<<EvtIdxBits - 1
	EvtSetShift        = EvtShift + EvtIdxBits
)

// AccessAnnotations is the columnar access outcome of one record block
// under one cache geometry: one encoded (hit, way) slot per record, the
// packed replay-event list, plus the block's miss count so consumers can
// credit counters in bulk. Slots are written only for the records an
// engine's batched replay actually dispatches on — run leaders and breaks;
// the same-line followers that stepBlockRuns batches into one AccessRun
// always hit the leader's slot and their annotation bytes are left stale.
// Buffers are recycled through trace's annotation-buffer pools (see
// Release).
type AccessAnnotations struct {
	// Slots holds one encoded slot per record (AnnHit | way), valid at
	// run-leader and break positions only.
	Slots []uint8
	// Events is the block's replay-event list in record order: index<<
	// EvtShift | EvtFill/EvtBreak/EvtPost. Every indexed record is a run
	// leader, so its Slots entry is valid.
	Events []uint32
	// Misses is the number of block accesses that missed.
	Misses uint64
	// ColdMisses is the number of those misses that were compulsory
	// (first demand touch of the line; see Cache.ColdMisses).
	ColdMisses uint64
	// Succ holds, for each break AnnotateSucc was asked about, in record
	// order, index<<8 | the slot where the break's successor line
	// (rec.Next()) resides right after the break's access: AnnHit | way,
	// or 0 when it is not resident. A consumer asks about the breaks whose
	// next record in the block is not their successor's fetch (the block's
	// last record, or a non-chained record); every other break's successor
	// slot is the next record's. Nothing touches the cache between a
	// break's fetch and its successor's, so either slot says whether the
	// successor's line was resident when the break was looked up.
	Succ []uint32
}

// SuccSlot returns the Succ slot published for the break at record i.
// It panics if AnnotateSucc was not asked about that break.
func (a *AccessAnnotations) SuccSlot(i int) uint8 {
	for _, p := range a.Succ {
		if int(p>>8) == i {
			return uint8(p)
		}
	}
	panic("cache: no successor slot published for the break")
}

// Release returns the buffers to the shared pools. The annotation must
// not be used afterwards.
func (a *AccessAnnotations) Release() {
	trace.PutAnnBuf(a.Slots)
	a.Slots = nil
	trace.PutEvtBuf(a.Events)
	a.Events = nil
}

// Oracle simulates the i-caches of one or more geometries of one line size
// over a record stream, annotating each block with every geometry's access
// outcomes exactly as a private Cache fed the same stream — Access per run
// leader and break, AccessRun per same-line run — would produce them. One
// walk serves every geometry (DESIGN.md §11):
//
//   - a record's line address, break test and run skip are computed once;
//   - the direct-mapped geometries are visited smallest first, and the
//     first hit settles every larger one: with one line size and
//     power-of-two set counts a larger direct-mapped cache holds every line
//     a smaller one does, so the access hits there too, at way 0, and
//     changes nothing;
//   - a hit on a set's most recently used way leaves its LRU order as it
//     is, so a same-line run costs nothing after its leader;
//   - first touches are tracked once: a line's first demand touch misses in
//     every geometry, and no other miss is compulsory.
type Oracle struct {
	// caches are the geometries' states: the direct-mapped ones first, in
	// ascending set count, then the set-associative ones.
	caches []oracleCache
	dm     int // the number of direct-mapped caches
	shift  uint
	// seen holds the lines touched so far.
	seen lineSet
	// clock is the number of records annotated. The access to record i of
	// a block stamps its line clock+i+1, as a private Cache's LRU clock
	// would read right after that access.
	clock uint64
	runs  []uint8 // AnnotateSucc's run annotation when its caller passes none
}

// oracleCache is the state of one oracle geometry, and the outputs of the
// block being annotated.
type oracleCache struct {
	geom Geometry
	pos  int      // the geometry's position among NewOracle's arguments
	tags []uint32 // tagValid | line address per (set, way); 0 = empty
	// stamp is the LRU stamp of each slot and mru the most recently used
	// way of each set; both nil when direct-mapped.
	stamp []uint64
	mru   []uint8

	slots  []uint8
	events []uint32
	succ   []uint32
	misses uint64
}

// NewOracle builds a cold oracle for geoms, which must share one line
// size. Annotate and AnnotateSucc take one annotation per geometry, in the
// order given here.
func NewOracle(geoms ...Geometry) *Oracle {
	if len(geoms) == 0 {
		panic("cache: an oracle needs a geometry")
	}
	o := &Oracle{shift: geoms[0].lineShift, seen: lineSet{pages: make(map[uint32]*[1 << 6]uint64)}}
	for k, g := range geoms {
		if g.lineShift != o.shift {
			panic("cache: oracle geometries differ in line size")
		}
		c := oracleCache{geom: g, pos: k, tags: make([]uint32, g.NumLines())}
		if g.assoc > 1 {
			c.stamp = make([]uint64, g.NumLines())
			c.mru = make([]uint8, g.numSets)
		} else {
			o.dm++
		}
		o.caches = append(o.caches, c)
	}
	slices.SortStableFunc(o.caches, func(a, b oracleCache) int {
		return visitOrder(a.geom) - visitOrder(b.geom)
	})
	return o
}

// visitOrder sorts direct-mapped geometries first, by set count.
func visitOrder(g Geometry) int {
	if g.assoc == 1 {
		return g.numSets
	}
	return 1<<31 - 1
}

// MirrorInto copies the oracle's state for c's geometry into c: the
// resident lines and their LRU order, without firing c's replacement
// callback, and an access clock past every copied stamp (the records
// annotated so far, as c's own clock would read after taking every access
// itself). An engine that replayed from the annotations then continues
// with private accesses exactly — except for first touches, which stay
// with the oracle, so c would count each line's first miss as compulsory
// again.
func (o *Oracle) MirrorInto(c *Cache) {
	for k := range o.caches {
		oc := &o.caches[k]
		if oc.geom != c.geom {
			continue
		}
		copy(c.tags, oc.tags)
		if oc.stamp != nil {
			if c.stamp == nil {
				c.stamp = make([]uint64, len(c.tags))
			}
			copy(c.stamp, oc.stamp)
		}
		c.clock = o.clock
		return
	}
	panic("cache: mirroring an oracle into a cache of another geometry")
}

// Annotate simulates one record block and fills anns — one per geometry,
// in NewOracle's order — with its access outcomes and replay events,
// walking the block with exactly the batched traversal of an engine's
// private replay (fetch's stepBlockRuns). runs is the block's same-line
// run annotation for the oracle's line size (trace.BlockRuns), which a
// broadcast computes once and shares; nil runs derives it into oracle
// scratch. Each annotation's buffers are grown from the trace annotation
// pools as needed and reused across calls.
func (o *Oracle) Annotate(recs []trace.Record, runs []uint8, anns ...*AccessAnnotations) {
	o.AnnotateSucc(recs, runs, nil, anns...)
}

// AnnotateSucc is Annotate that also publishes each annotation's Succ for
// the breaks at the record indices succ lists, in ascending order. Every
// listed record must be a break.
func (o *Oracle) AnnotateSucc(recs []trace.Record, runs []uint8, succ []uint16, anns ...*AccessAnnotations) {
	if len(anns) != len(o.caches) {
		panic("cache: an oracle annotates one annotation per geometry")
	}
	if len(recs) > 1<<EvtIdxBits {
		panic("cache: record block exceeds the event index field")
	}
	if runs == nil {
		o.runs = trace.BlockRuns(o.runs, recs, 1<<o.shift)
		runs = o.runs
	}
	for k := range o.caches {
		c, ann := &o.caches[k], anns[o.caches[k].pos]
		if cap(ann.Slots) < len(recs) {
			trace.PutAnnBuf(ann.Slots)
			ann.Slots = trace.GetAnnBuf(len(recs))
		}
		c.slots = ann.Slots[:len(recs)]
		if ann.Events == nil {
			ann.Events = trace.GetEvtBuf(len(recs) / 2)
		}
		c.events, c.succ, c.misses = ann.Events[:0], ann.Succ[:0], 0
	}
	dm, sa := o.caches[:o.dm], o.caches[o.dm:]
	var cold uint64
	// Only the first record of a block is an EvtPost resolution point: a
	// break at the end of the PREVIOUS block may have deferred its update
	// here. Within the block, a break's deferred update resolves inline
	// at the break event itself — the successor's way is the next
	// record's slot, which the oracle always writes (the record after a
	// break is a fresh run leader).
	post := EvtPost
	for i := 0; i < len(recs); {
		// Walk to the block's end, or through the next break succ asks
		// about: its successor probe must see the caches right after the
		// break's access. A break is never a run follower, so the walk
		// stops exactly past it.
		end := len(recs)
		if len(succ) > 0 {
			end = int(succ[0]) + 1
		}
		for i < end {
			r := recs[i]
			want := uint32(r.PC)>>o.shift | tagValid
			flags := post
			post = 0
			if r.IsBreak() {
				flags |= EvtBreak
			}
			idx := uint32(i) << EvtShift
			// hit: some geometry already holds the line, so it is no
			// first touch; among the direct-mapped ones, every larger
			// cache holds it too.
			hit := false
			for k := range dm {
				c := &dm[k]
				set := want & c.geom.setMask
				s, e := AnnHit, flags
				if !hit {
					if c.tags[set] == want {
						hit = true
					} else {
						c.tags[set] = want
						c.misses++
						s, e = 0, e|EvtFill
					}
				}
				c.slots[i] = s
				if e != 0 {
					if e&EvtBreak != 0 {
						e |= set << EvtSetShift
					}
					c.events = append(c.events, idx|e)
				}
			}
			for k := range sa {
				c := &sa[k]
				set := want & c.geom.setMask
				way, whit := c.access(set, want, o.clock+uint64(i)+1)
				s, e := uint8(way), flags
				if whit {
					s |= AnnHit
					hit = true
				} else {
					c.misses++
					e |= EvtFill
				}
				c.slots[i] = s
				if e != 0 {
					if e&EvtBreak != 0 {
						e |= set << EvtSetShift
					}
					c.events = append(c.events, idx|e)
				}
			}
			if !hit && o.seen.add(want&^tagValid) {
				cold++
			}
			i += 1 + int(runs[i])
		}
		if len(succ) > 0 {
			if i != end || !recs[end-1].IsBreak() {
				panic("cache: AnnotateSucc asked about a record that is not a break")
			}
			next := uint32(recs[end-1].Next())>>o.shift | tagValid
			for k := range o.caches {
				c := &o.caches[k]
				c.succ = append(c.succ, uint32(end-1)<<8|uint32(c.probe(next)))
			}
			succ = succ[1:]
		}
	}
	for k := range o.caches {
		c, ann := &o.caches[k], anns[o.caches[k].pos]
		ann.Events, ann.Succ = c.events, c.succ
		ann.Misses, ann.ColdMisses = c.misses, cold
		c.slots, c.events, c.succ = nil, nil, nil
	}
	o.clock += uint64(len(recs))
}

// access looks the line want up in set of a set-associative cache at LRU
// clock now, filling the set's LRU way on a miss, and returns the way the
// line then resides in and whether it hit. A hit on the set's most
// recently used way keeps its stamp: the way stays most recent either way.
func (c *oracleCache) access(set, want uint32, now uint64) (way int, hit bool) {
	base := int(set) * c.geom.assoc
	if w := int(c.mru[set]); c.tags[base+w] == want {
		return w, true
	}
	// Hit check and LRU victim search in one pass, as Cache.Access does:
	// the first empty way, else the least recently used one.
	victim, oldest := 0, ^uint64(0)
	for w := 0; w < c.geom.assoc; w++ {
		s := base + w
		t := c.tags[s]
		if t == want {
			c.stamp[s] = now
			c.mru[set] = uint8(w)
			return w, true
		}
		if t&tagValid == 0 {
			if oldest != 0 {
				victim, oldest = w, 0
			}
			continue
		}
		if c.stamp[s] < oldest {
			victim, oldest = w, c.stamp[s]
		}
	}
	s := base + victim
	c.tags[s] = want
	c.stamp[s] = now
	c.mru[set] = uint8(victim)
	return victim, false
}

// probe returns the annotation slot of the line want without touching any
// state: AnnHit | its way, or 0 when it is not resident.
func (c *oracleCache) probe(want uint32) uint8 {
	base := int(want&c.geom.setMask) * c.geom.assoc
	for w := 0; w < c.geom.assoc; w++ {
		if c.tags[base+w] == want {
			return uint8(w) | AnnHit
		}
	}
	return 0
}

// lineSet is a set of line addresses: a bitmap per page of 1<<12 lines,
// with the page last added to at hand, so most additions look up no map.
type lineSet struct {
	pages map[uint32]*[1 << 6]uint64
	key   uint32
	page  *[1 << 6]uint64
}

// add adds line to the set and reports whether it was absent.
func (s *lineSet) add(line uint32) bool {
	if k := line >> 12; s.page == nil || k != s.key {
		p := s.pages[k]
		if p == nil {
			p = new([1 << 6]uint64)
			s.pages[k] = p
		}
		s.key, s.page = k, p
	}
	w, bit := &s.page[line>>6&(1<<6-1)], uint64(1)<<(line&63)
	if *w&bit != 0 {
		return false
	}
	*w |= bit
	return true
}
