package pht

import (
	"testing"

	"repro/internal/isa"
)

func benchPredictor(b *testing.B, p Predictor) {
	b.Helper()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pc := isa.Addr(uint32(i*4) & 0xffff)
		taken, tok := p.Predict(pc)
		p.Resolve(pc, tok, !taken == (i%3 == 0))
	}
}

func BenchmarkGShare(b *testing.B)  { benchPredictor(b, NewGShare(4096, 6)) }
func BenchmarkGAs(b *testing.B)     { benchPredictor(b, NewGAs(4096)) }
func BenchmarkBimodal(b *testing.B) { benchPredictor(b, NewBimodal(4096)) }
func BenchmarkOneBit(b *testing.B)  { benchPredictor(b, NewOneBit(4096)) }
