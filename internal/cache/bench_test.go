package cache

import (
	"sync"
	"testing"

	"repro/internal/isa"
	"repro/internal/trace"
	"repro/internal/workload"
)

func BenchmarkAccessHit(b *testing.B) {
	c := New(MustGeometry(16*1024, 32, 2))
	c.Access(0x1000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Access(0x1000)
	}
}

func BenchmarkAccessStreaming(b *testing.B) {
	c := New(MustGeometry(16*1024, 32, 2))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Access(isa.Addr(uint32(i*4) & 0xfffffc))
	}
}

func BenchmarkProbe(b *testing.B) {
	c := New(MustGeometry(16*1024, 32, 4))
	for a := isa.Addr(0); a < 16*1024; a += 32 {
		c.Access(a)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Probe(isa.Addr(uint32(i*32) & 0x3fff))
	}
}

// benchTrace is the gcc-like 2M-instruction trace BenchmarkOracle
// annotates, in default-size blocks, with its 32-byte-line run annotation.
var benchTrace = sync.OnceValues(func() (*trace.Chunked, [][]uint8) {
	ct := trace.Chunk(workload.Gcc().MustTrace(2_000_000), trace.DefaultChunkRecords)
	return ct, ct.RunLens(32)
})

// paperGeoms are the paper's six caches (§5): 8, 16 and 32 KB,
// direct-mapped and 4-way, with 32-byte lines.
func paperGeoms() []Geometry {
	var gs []Geometry
	for _, kb := range []int{8, 16, 32} {
		for _, assoc := range []int{1, 4} {
			gs = append(gs, MustGeometry(kb*1024, 32, assoc))
		}
	}
	return gs
}

// annotateTrace annotates the whole benchmark trace, cold, once per oracle,
// each oracle with its own annotations.
func annotateTrace(oracles [][]Geometry) {
	ct, runs := benchTrace()
	orcs := make([]*Oracle, len(oracles))
	var outs [][]*AccessAnnotations
	for k, gs := range oracles {
		orcs[k] = NewOracle(gs...)
		out := make([]*AccessAnnotations, len(gs))
		for j := range out {
			out[j] = new(AccessAnnotations)
		}
		outs = append(outs, out)
	}
	for b := 0; b < ct.NumChunks(); b++ {
		for k, o := range orcs {
			o.Annotate(ct.Block(b), runs[b], outs[k]...)
		}
	}
	for _, out := range outs {
		for _, ann := range out {
			ann.Release()
		}
	}
}

// BenchmarkOracle annotates a gcc-like 2M-instruction trace for the paper's
// six caches with one oracle over all six (fused) and with one oracle per
// geometry (separate), and for one 16 KB cache, direct-mapped or 4-way,
// as a lone engine's broadcast does. ns/record is per trace record, for
// all the geometries of a case together.
func BenchmarkOracle(b *testing.B) {
	paper := paperGeoms()
	var separate [][]Geometry
	for _, g := range paper {
		separate = append(separate, []Geometry{g})
	}
	for _, bc := range []struct {
		name    string
		oracles [][]Geometry
	}{
		{"fused6", [][]Geometry{paper}},
		{"separate6", separate},
		{"one16KBdirect", [][]Geometry{{paper[2]}}},
		{"one16KB4way", [][]Geometry{{paper[3]}}},
	} {
		b.Run(bc.name, func(b *testing.B) {
			ct, _ := benchTrace()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				annotateTrace(bc.oracles)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(ct.Len()), "ns/record")
		})
	}
}
