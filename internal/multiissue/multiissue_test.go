package multiissue

import (
	"testing"

	"repro/internal/isa"
	"repro/internal/metrics"
	"repro/internal/trace"
)

func seqTrace(n int) *trace.Trace {
	t := &trace.Trace{Name: "seq"}
	pc := isa.Addr(0x1000) // line-aligned
	for i := 0; i < n; i++ {
		t.Append(trace.Record{PC: pc, Kind: isa.NonBranch})
		pc = pc.Next()
	}
	return t
}

// countBlocks feeds the whole of tr to a fresh BlockCounter.
func countBlocks(tr *trace.Trace, cfg Config) (uint64, error) {
	bc, err := NewBlockCounter(cfg)
	if err != nil {
		return 0, err
	}
	bc.Add(tr.Records)
	return bc.Blocks(), nil
}

func TestValidate(t *testing.T) {
	if (Config{Width: 0}).Validate() == nil {
		t.Error("width 0 accepted")
	}
	if (Config{Width: 4, LineBytes: 13}).Validate() == nil {
		t.Error("odd line size accepted")
	}
	if (Config{Width: 4, LineBytes: 32}).Validate() != nil {
		t.Error("valid config rejected")
	}
}

func TestFetchBlocksWidth1EqualsInstructions(t *testing.T) {
	tr := seqTrace(100)
	blocks, err := countBlocks(tr, Config{Width: 1})
	if err != nil {
		t.Fatal(err)
	}
	if blocks != 100 {
		t.Errorf("width-1 blocks = %d, want 100", blocks)
	}
}

func TestFetchBlocksStraightLine(t *testing.T) {
	// 64 sequential instructions, width 4, no line constraint: 16 blocks.
	tr := seqTrace(64)
	blocks, err := countBlocks(tr, Config{Width: 4})
	if err != nil {
		t.Fatal(err)
	}
	if blocks != 16 {
		t.Errorf("blocks = %d, want 16", blocks)
	}
}

func TestFetchBlocksLineBoundary(t *testing.T) {
	// Width 8 over line-aligned code with 32-byte lines: each line (8
	// instructions) is one block; 64 instructions -> 8 blocks. Width 16
	// cannot do better: still line-limited.
	tr := seqTrace(64)
	for _, w := range []int{8, 16} {
		blocks, err := countBlocks(tr, Config{Width: w, LineBytes: 32})
		if err != nil {
			t.Fatal(err)
		}
		if blocks != 8 {
			t.Errorf("width %d: blocks = %d, want 8 (line-limited)", w, blocks)
		}
	}
}

func TestFetchBlocksTakenBreakEndsBlock(t *testing.T) {
	// A tight 4-instruction loop (3 plain + taken backedge), width 8:
	// every iteration is its own block.
	tr := &trace.Trace{Name: "loop"}
	for i := 0; i < 10; i++ {
		pc := isa.Addr(0x1000)
		tr.Append(trace.Record{PC: pc, Kind: isa.NonBranch})
		tr.Append(trace.Record{PC: pc + 4, Kind: isa.NonBranch})
		tr.Append(trace.Record{PC: pc + 8, Kind: isa.NonBranch})
		tr.Append(trace.Record{PC: pc + 12, Kind: isa.CondBranch, Taken: true, Target: pc})
	}
	blocks, err := countBlocks(tr, Config{Width: 8})
	if err != nil {
		t.Fatal(err)
	}
	if blocks != 10 {
		t.Errorf("blocks = %d, want 10 (one per iteration)", blocks)
	}
}

func TestNotTakenBreakDoesNotEndBlock(t *testing.T) {
	tr := &trace.Trace{Name: "nt"}
	pc := isa.Addr(0x1000)
	tr.Append(trace.Record{PC: pc, Kind: isa.CondBranch, Taken: false})
	tr.Append(trace.Record{PC: pc + 4, Kind: isa.NonBranch})
	tr.Append(trace.Record{PC: pc + 8, Kind: isa.NonBranch})
	blocks, err := countBlocks(tr, Config{Width: 4})
	if err != nil {
		t.Fatal(err)
	}
	if blocks != 1 {
		t.Errorf("blocks = %d, want 1 (fall-through continues the block)", blocks)
	}
}

func TestBlocksMonotoneInWidth(t *testing.T) {
	// Wider fetch never needs more blocks.
	tr := &trace.Trace{Name: "mixed"}
	pc := isa.Addr(0x1000)
	for i := 0; i < 200; i++ {
		if i%7 == 6 {
			r := trace.Record{PC: pc, Kind: isa.UncondBranch, Taken: true,
				Target: pc + 32}
			tr.Append(r)
			pc = r.Next()
			continue
		}
		tr.Append(trace.Record{PC: pc, Kind: isa.NonBranch})
		pc = pc.Next()
	}
	prev := uint64(1 << 62)
	for _, w := range []int{1, 2, 4, 8, 16} {
		blocks, err := countBlocks(tr, Config{Width: w, LineBytes: 32})
		if err != nil {
			t.Fatal(err)
		}
		if blocks > prev {
			t.Errorf("width %d needs %d blocks, more than narrower %d", w, blocks, prev)
		}
		prev = blocks
	}
}

func TestEvaluate(t *testing.T) {
	tr := seqTrace(100)
	var m metrics.Counters
	m.Instructions = 100
	m.Misfetches = 2
	m.Mispredicts = 3
	m.ICacheMisses = 1
	cfg := Config{Width: 4}
	blocks, err := countBlocks(tr, cfg)
	if err != nil {
		t.Fatal(err)
	}
	res := EvaluateBlocks(blocks, &m, cfg, metrics.Default())
	// blocks = 25; penalty = 2 + 12 + 5 = 19; cycles = 44.
	if res.FetchBlocks != 25 {
		t.Errorf("blocks = %d", res.FetchBlocks)
	}
	if res.Cycles != 44 {
		t.Errorf("cycles = %v", res.Cycles)
	}
	if got := res.IPC; got < 2.27 || got > 2.28 {
		t.Errorf("IPC = %v, want ~2.273", got)
	}
	if got := res.PenaltyShare; got < 0.43 || got > 0.44 {
		t.Errorf("penalty share = %v", got)
	}
}

func TestPenaltyShareGrowsWithWidth(t *testing.T) {
	tr := seqTrace(1000)
	var m metrics.Counters
	m.Instructions = 1000
	m.Mispredicts = 20
	var prev float64 = -1
	for _, w := range []int{1, 2, 4, 8} {
		cfg := Config{Width: w, LineBytes: 32}
		blocks, err := countBlocks(tr, cfg)
		if err != nil {
			t.Fatal(err)
		}
		res := EvaluateBlocks(blocks, &m, cfg, metrics.Default())
		if res.PenaltyShare <= prev {
			t.Errorf("width %d: penalty share %v did not grow", w, res.PenaltyShare)
		}
		prev = res.PenaltyShare
	}
}
