package trace

import (
	"testing"

	"repro/internal/isa"
)

// syntheticTrace builds an n-record trace with varied kinds and addresses
// (chaining is irrelevant to the chunked representation).
func syntheticTrace(n int) *Trace {
	tr := &Trace{Name: "synthetic", StaticCondSites: 7}
	for i := 0; i < n; i++ {
		kind := isa.NonBranch
		taken := false
		if i%5 == 1 {
			kind, taken = isa.CondBranch, i%2 == 0
		}
		tr.Append(Record{
			PC:     isa.Addr(0x1000 + 4*i),
			Target: isa.Addr(0x9000 + 4*(i%13)),
			Kind:   kind,
			Taken:  taken,
		})
	}
	return tr
}

func TestChunkShapes(t *testing.T) {
	cases := []struct {
		n, size    int
		wantChunks int
	}{
		{0, 4, 0},
		{3, 4, 1},   // shorter than one chunk
		{8, 4, 2},   // exact multiple
		{9, 4, 3},   // one-record tail
		{10, 0, 1},  // size <= 0 falls back to the default
		{10, -1, 1}, // size <= 0 falls back to the default
	}
	for _, c := range cases {
		tr := syntheticTrace(c.n)
		ch := Chunk(tr, c.size)
		if ch.Len() != c.n || ch.NumChunks() != c.wantChunks {
			t.Errorf("Chunk(%d recs, size %d): Len=%d NumChunks=%d, want %d/%d",
				c.n, c.size, ch.Len(), ch.NumChunks(), c.n, c.wantChunks)
		}
		if ch.Name != tr.Name || ch.StaticCondSites != tr.StaticCondSites {
			t.Errorf("metadata lost: %q/%d", ch.Name, ch.StaticCondSites)
		}
		total := 0
		for i := 0; i < ch.NumChunks(); i++ {
			blk := ch.Block(i)
			if i < ch.NumChunks()-1 && c.size > 0 && len(blk) != c.size {
				t.Errorf("non-final block %d has %d records, want %d", i, len(blk), c.size)
			}
			for j, r := range blk {
				if r != tr.Records[total+j] {
					t.Fatalf("block %d record %d differs", i, j)
				}
			}
			total += len(blk)
		}
		if total != c.n {
			t.Errorf("blocks hold %d records, want %d", total, c.n)
		}
	}
}

func TestChunkFlattenRoundTrip(t *testing.T) {
	tr := syntheticTrace(101)
	flat := Chunk(tr, 16).Flatten()
	if flat.Name != tr.Name || flat.StaticCondSites != tr.StaticCondSites {
		t.Fatal("metadata lost in round trip")
	}
	if len(flat.Records) != len(tr.Records) {
		t.Fatalf("round trip has %d records, want %d", len(flat.Records), len(tr.Records))
	}
	for i := range tr.Records {
		if flat.Records[i] != tr.Records[i] {
			t.Fatalf("record %d changed in round trip", i)
		}
	}
}

func TestChunkIterAsSource(t *testing.T) {
	tr := syntheticTrace(50)
	it := Chunk(tr, 8).Chunks()
	// Drain through the Source view in awkward strides so the cursor
	// crosses chunk boundaries mid-Run.
	var got []Record
	for _, stride := range []int{5, 11, 1, 40} {
		it.Run(stride, func(r Record) { got = append(got, r) })
	}
	if len(got) != 50 {
		t.Fatalf("drained %d records, want 50", len(got))
	}
	for i := range got {
		if got[i] != tr.Records[i] {
			t.Fatalf("record %d differs", i)
		}
	}
	if it.Run(1, func(Record) {}) != 0 || len(it.NextChunk()) != 0 {
		t.Fatal("exhausted iterator yielded more records")
	}

	// A partially Run iterator hands the remainder of its current block
	// to NextChunk before resuming whole blocks.
	it.Reset()
	it.Run(3, func(Record) {})
	blk := it.NextChunk()
	if len(blk) != 5 || blk[0] != tr.Records[3] {
		t.Fatalf("partial block: len=%d first=%v", len(blk), blk[0])
	}
	if blk2 := it.NextChunk(); len(blk2) != 8 || blk2[0] != tr.Records[8] {
		t.Fatalf("next block misaligned: len=%d", len(blk2))
	}
}

// checkRunLens verifies the RunLens contract for every block against a
// brute-force per-record scan: runs[i] records after i are non-branches in
// record i's lineBytes-aligned line, runs[i] is 0 for breaks, and the run
// stops at the first violating record (or the 255 cap, or block end).
func checkRunLens(t *testing.T, c *Chunked, lineBytes int) {
	t.Helper()
	mask := ^isa.Addr(lineBytes - 1)
	runs := c.RunLens(lineBytes)
	if len(runs) != c.NumChunks() {
		t.Fatalf("RunLens has %d blocks, want %d", len(runs), c.NumChunks())
	}
	for bi := 0; bi < c.NumChunks(); bi++ {
		blk, rn := c.Block(bi), runs[bi]
		if len(rn) != len(blk) {
			t.Fatalf("block %d annotation has %d entries, want %d", bi, len(rn), len(blk))
		}
		for i, r := range blk {
			want := 0
			if !r.IsBreak() {
				for j := i + 1; j < len(blk) && want < 255; j++ {
					if blk[j].Kind != isa.NonBranch || blk[j].PC&mask != r.PC&mask {
						break
					}
					want++
				}
			}
			if int(rn[i]) != want {
				t.Fatalf("block %d record %d (line %dB): run %d, want %d",
					bi, i, lineBytes, rn[i], want)
			}
		}
	}
}

func TestRunLens(t *testing.T) {
	tr := syntheticTrace(203) // 4-byte strided PCs, a cond branch every 5th
	for _, lineBytes := range []int{16, 32, 64} {
		checkRunLens(t, Chunk(tr, 17), lineBytes)
	}

	// Memoized: same line size returns the identical slice.
	c := Chunk(tr, 17)
	r1, r2 := c.RunLens(32), c.RunLens(32)
	if &r1[0] != &r2[0] {
		t.Fatal("RunLens recomputed instead of memoizing")
	}

	// BlockRuns overwrites every entry of a recycled buffer, and grows one
	// too short for the block.
	dirty := make([]uint8, 4, 17)
	for bi := 0; bi < c.NumChunks(); bi++ {
		for i := range dirty[:cap(dirty)] {
			dirty[:cap(dirty)][i] = 0xA5
		}
		dirty = BlockRuns(dirty, c.Block(bi), 32)
		if string(dirty) != string(r1[bi]) {
			t.Fatalf("block %d: BlockRuns over a recycled buffer differs from RunLens", bi)
		}
	}
	if got := BlockRuns(make([]uint8, 0, 3), c.Block(0), 32); string(got) != string(r1[0]) {
		t.Fatal("BlockRuns into a short buffer differs from RunLens")
	}
}

func TestSourceChunksMatchesSource(t *testing.T) {
	tr := syntheticTrace(100)
	for _, total := range []int{0, 1, 7, 99, 100, 250} {
		src := NewSourceChunks(&SliceSource{Records: tr.Records}, total, 8)
		var got []Record
		for blk := src.NextChunk(); len(blk) > 0; blk = src.NextChunk() {
			got = append(got, blk...)
		}
		want := total
		if want > len(tr.Records) {
			want = len(tr.Records) // underlying source exhausts early
		}
		if len(got) != want {
			t.Fatalf("total=%d: drained %d records, want %d", total, len(got), want)
		}
		for i := range got {
			if got[i] != tr.Records[i] {
				t.Fatalf("total=%d: record %d differs", total, i)
			}
		}
	}
}
