package multiissue

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/isa"
	"repro/internal/trace"
)

// randomChained builds a random valid trace for property tests.
func randomChained(seed int64, n int) *trace.Trace {
	rng := rand.New(rand.NewSource(seed))
	t := &trace.Trace{Name: "rnd"}
	pc := isa.Addr(0x1000)
	for i := 0; i < n; i++ {
		r := trace.Record{PC: pc, Kind: isa.NonBranch}
		if rng.Intn(4) == 0 {
			r.Kind = isa.UncondBranch
			r.Taken = true
			r.Target = isa.Addr(0x1000 + uint32(rng.Intn(256))*4)
		}
		t.Append(r)
		pc = r.Next()
	}
	return t
}

// Properties: for any trace and width, ceil(n/width') <= blocks <= n where
// width' accounts for line limits, and blocks at width 1 equals n exactly.
func TestQuickFetchBlockBounds(t *testing.T) {
	f := func(seed int64, widthRaw uint8) bool {
		width := 1 + int(widthRaw%16)
		tr := randomChained(seed, 300)
		blocks, err := countBlocks(tr, Config{Width: width, LineBytes: 32})
		if err != nil {
			return false
		}
		n := uint64(tr.Len())
		if blocks > n {
			return false
		}
		// A block never exceeds min(width, instrs-per-line) useful
		// instructions.
		maxPerBlock := uint64(width)
		if maxPerBlock > 8 {
			maxPerBlock = 8
		}
		if blocks*maxPerBlock < n {
			return false
		}
		one, err := countBlocks(tr, Config{Width: 1})
		return err == nil && one == n
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: blocks are non-increasing in width for any trace.
func TestQuickFetchBlocksMonotone(t *testing.T) {
	f := func(seed int64) bool {
		tr := randomChained(seed, 300)
		prev := uint64(1 << 62)
		for _, w := range []int{1, 2, 3, 4, 6, 8, 12, 16} {
			blocks, err := countBlocks(tr, Config{Width: w, LineBytes: 32})
			if err != nil || blocks > prev {
				return false
			}
			prev = blocks
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
