package cache

import (
	"bytes"
	"slices"
	"testing"

	"repro/internal/trace"
	"repro/internal/workload"
)

// oracleGeoms decodes a fuzzed geometry list: one geometry per spec byte
// (at most 8, at least one), all with 4<<line%4-byte lines; the low two
// bits pick the associativity (1, 2, 4 or 8) and the next three the set
// count (1 to 128).
func oracleGeoms(line uint8, spec []byte) []Geometry {
	if len(spec) == 0 {
		spec = []byte{0}
	}
	lb := 4 << (line % 4)
	var gs []Geometry
	for _, b := range spec[:min(len(spec), 8)] {
		assoc, sets := 1<<(b&3), 1<<(b>>2&7)
		gs = append(gs, MustGeometry(lb*assoc*sets, lb, assoc))
	}
	return gs
}

// refAnnotate is the reference for one geometry's annotation of blk: a
// per-record walk of c, a private cache, with Access on every record and
// Probe for the successor of each break in succ. It returns the
// annotation, whose Slots are zero off run leaders and breaks.
func refAnnotate(c *Cache, blk []trace.Record, succ []uint16) AccessAnnotations {
	runs := trace.BlockRuns(nil, blk, c.Geometry().LineBytes())
	ann := AccessAnnotations{Slots: make([]uint8, len(blk))}
	misses, cold := c.Misses(), c.ColdMisses()
	for i, next := 0, 0; i < len(blk); i++ {
		r := blk[i]
		hit, way := c.Access(r.PC)
		if i == next {
			next += 1 + int(runs[i])
			s, flags := uint8(way), uint32(0)
			if hit {
				s |= AnnHit
			} else {
				flags |= EvtFill
			}
			if i == 0 {
				flags |= EvtPost
			}
			ann.Slots[i] = s
			if r.IsBreak() {
				flags |= EvtBreak | uint32(c.Geometry().SetIndex(r.PC))<<EvtSetShift
			}
			if flags != 0 {
				ann.Events = append(ann.Events, uint32(i)<<EvtShift|flags)
			}
		}
		if len(succ) > 0 && int(succ[0]) == i {
			var s uint8
			if w, ok := c.Probe(r.Next()); ok {
				s = uint8(w) | AnnHit
			}
			ann.Succ = append(ann.Succ, uint32(i)<<8|uint32(s))
			succ = succ[1:]
		}
	}
	ann.Misses, ann.ColdMisses = c.Misses()-misses, c.ColdMisses()-cold
	return ann
}

// FuzzOracleMatchesCache decodes the fuzz bytes as an NLST trace and
// annotates it at a fuzzed block size through one oracle over 1 to 8
// geometries of one line size, given in any order, asking for the
// successor slots of a fuzzed subset of the breaks. Every geometry's
// annotation — slots at run leaders and breaks, events, misses, cold
// misses and successor slots — must equal a per-record Access/Probe walk
// of a private cache of that geometry alone. After the trace, a cache the
// oracle mirrors into must hold the reference cache's lines in its LRU
// order: replaying the trace once more, both hit and fill the same ways.
func FuzzOracleMatchesCache(f *testing.F) {
	paper := []byte{0x04 << 2, 0x05 << 2, 0x06<<2 | 2, 0x04<<2 | 2, 0x05<<2 | 2, 0x06 << 2}
	for _, tr := range []*trace.Trace{workload.Li().MustTrace(600), workload.Gcc().MustTrace(600)} {
		var buf bytes.Buffer
		if err := trace.Write(&buf, tr); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes(), uint16(127), uint8(3), paper, uint64(1))
		f.Add(buf.Bytes(), uint16(4095), uint8(1), []byte{0x1b, 0x02, 0x00, 0x1f, 0x0c, 0x01, 0x08, 0x03}, uint64(7))
		f.Add(buf.Bytes(), uint16(6), uint8(2), []byte{0x13}, uint64(0))
	}
	f.Fuzz(func(t *testing.T, data []byte, block uint16, line uint8, spec []byte, seed uint64) {
		tr, err := trace.Read(bytes.NewReader(data))
		if err != nil || len(tr.Records) > 1<<12 {
			return
		}
		geoms := oracleGeoms(line, spec)
		o := NewOracle(geoms...)
		refs := make([]*Cache, len(geoms))
		for k, g := range geoms {
			refs[k] = New(g)
		}
		anns := make([]AccessAnnotations, len(geoms))
		outs := make([]*AccessAnnotations, len(geoms))
		for k := range anns {
			outs[k] = &anns[k]
		}
		chunked := trace.Chunk(tr, 1+int(block)%4096)
		for b := 0; b < chunked.NumChunks(); b++ {
			blk := chunked.Block(b)
			var succ []uint16
			for i, r := range blk {
				if seed = seed*6364136223846793005 + 1442695040888963407; r.IsBreak() && seed>>62 == 0 {
					succ = append(succ, uint16(i))
				}
			}
			o.AnnotateSucc(blk, nil, succ, outs...)
			for k, ref := range refs {
				want, got := refAnnotate(ref, blk, succ), &anns[k]
				for _, ev := range want.Events {
					i := ev >> EvtShift & EvtIdxMask
					if got.Slots[i] != want.Slots[i] {
						t.Fatalf("block %d, %v: slot %d is %#x, want %#x", b, geoms[k], i, got.Slots[i], want.Slots[i])
					}
				}
				for i, s := range want.Slots {
					if s&AnnHit != 0 && got.Slots[i] != s {
						t.Fatalf("block %d, %v: slot %d is %#x, want %#x", b, geoms[k], i, got.Slots[i], s)
					}
				}
				if !slices.Equal(got.Events, want.Events) {
					t.Fatalf("block %d, %v: events\n got %x\nwant %x", b, geoms[k], got.Events, want.Events)
				}
				if !slices.Equal(got.Succ, want.Succ) {
					t.Fatalf("block %d, %v: successor slots %x, want %x", b, geoms[k], got.Succ, want.Succ)
				}
				if got.Misses != want.Misses || got.ColdMisses != want.ColdMisses {
					t.Fatalf("block %d, %v: %d misses (%d cold), want %d (%d)",
						b, geoms[k], got.Misses, got.ColdMisses, want.Misses, want.ColdMisses)
				}
			}
		}
		for k := range anns {
			anns[k].Release()
		}
		for k, ref := range refs {
			m := New(geoms[k])
			o.MirrorInto(m)
			if m.Clock() != ref.Clock() {
				t.Fatalf("%v: mirrored clock %d, want %d", geoms[k], m.Clock(), ref.Clock())
			}
			for i, r := range tr.Records {
				gh, gw := m.Access(r.PC)
				wh, ww := ref.Access(r.PC)
				if gh != wh || gw != ww {
					t.Fatalf("%v: after the mirror, record %d hits %v in way %d, want %v in way %d",
						geoms[k], i, gh, gw, wh, ww)
				}
			}
		}
	})
}
