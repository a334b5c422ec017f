package trace

import (
	"bytes"
	"testing"

	"repro/internal/isa"
)

// FuzzRead exercises the binary trace parser with arbitrary bytes: it must
// never panic, and anything it accepts must re-serialize to a byte stream
// that parses back to the same trace.
func FuzzRead(f *testing.F) {
	// Seed with valid encodings.
	var buf bytes.Buffer
	if err := Write(&buf, statTrace()); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	buf.Reset()
	if err := Write(&buf, &Trace{Name: "empty"}); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Add([]byte("NLST"))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		tr, err := Read(bytes.NewReader(data))
		if err != nil {
			return // rejection is fine; panics are not
		}
		var out bytes.Buffer
		if err := Write(&out, tr); err != nil {
			t.Fatalf("accepted trace failed to re-serialize: %v", err)
		}
		tr2, err := Read(&out)
		if err != nil {
			t.Fatalf("re-serialized trace failed to parse: %v", err)
		}
		if tr2.Name != tr.Name || len(tr2.Records) != len(tr.Records) {
			t.Fatal("roundtrip changed the trace")
		}
		for i := range tr.Records {
			if tr.Records[i] != tr2.Records[i] {
				t.Fatalf("record %d changed in roundtrip", i)
			}
		}
	})
}

// FuzzChunked round-trips arbitrary parsed traces through the chunked
// representation at arbitrary chunk sizes: chunked↔flat conversion and the
// chunk iterator (in both its ChunkSource and Source views) must reproduce
// the records exactly, including records straddling chunk boundaries.
func FuzzChunked(f *testing.F) {
	var buf bytes.Buffer
	if err := Write(&buf, statTrace()); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes(), uint16(1))
	f.Add(buf.Bytes(), uint16(3)) // 10 records: boundary mid-trace + short tail
	f.Add(buf.Bytes(), uint16(5)) // exact multiple of the record count
	f.Add(buf.Bytes(), uint16(0)) // default chunk size
	f.Add([]byte{}, uint16(7))

	f.Fuzz(func(t *testing.T, data []byte, chunkSize uint16) {
		tr, err := Read(bytes.NewReader(data))
		if err != nil {
			return
		}
		c := Chunk(tr, int(chunkSize))
		if c.Len() != len(tr.Records) {
			t.Fatalf("Chunk dropped records: %d != %d", c.Len(), len(tr.Records))
		}

		// Flat view.
		flat := c.Flatten()
		if flat.Name != tr.Name || len(flat.Records) != len(tr.Records) {
			t.Fatal("Flatten changed the trace")
		}
		for i := range tr.Records {
			if flat.Records[i] != tr.Records[i] {
				t.Fatalf("Flatten changed record %d", i)
			}
		}

		// ChunkSource view: concatenated blocks are the trace, and
		// every block except the last is exactly chunkSize long.
		it := c.Chunks()
		i := 0
		for blk := it.NextChunk(); len(blk) > 0; blk = it.NextChunk() {
			for _, r := range blk {
				if r != tr.Records[i] {
					t.Fatalf("chunk iterator changed record %d", i)
				}
				i++
			}
			if i < len(tr.Records) && chunkSize > 0 && len(blk) != int(chunkSize) {
				t.Fatalf("non-final block has %d records, want %d", len(blk), chunkSize)
			}
		}
		if i != len(tr.Records) {
			t.Fatalf("chunk iterator yielded %d records, want %d", i, len(tr.Records))
		}

		// Source view through the same iterator type.
		i = 0
		c.Chunks().Run(len(tr.Records)+1, func(r Record) {
			if r != tr.Records[i] {
				t.Fatalf("Run view changed record %d", i)
			}
			i++
		})
		if i != len(tr.Records) {
			t.Fatalf("Run view yielded %d records, want %d", i, len(tr.Records))
		}

		// Run annotations: every entry must satisfy the BlockRuns contract
		// (breaks annotate 0; otherwise the count of following same-line
		// non-branches, capped at 255 and stopping at the block edge),
		// written over one buffer recycled from block to block.
		const lineBytes = 32
		mask := ^isa.Addr(lineBytes - 1)
		var rn []uint8
		for bi := 0; bi < c.NumChunks(); bi++ {
			blk := c.Block(bi)
			for i := range rn {
				rn[i] = 0xA5
			}
			rn = BlockRuns(rn, blk, lineBytes)
			if len(rn) != len(blk) {
				t.Fatalf("block %d annotation length %d, want %d", bi, len(rn), len(blk))
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
					t.Fatalf("block %d record %d: run %d, want %d", bi, i, rn[i], want)
				}
			}
		}
	})
}

// FuzzRecordValidate: Validate never panics on arbitrary records.
func FuzzRecordValidate(f *testing.F) {
	f.Add(uint32(0x1000), uint32(0x2000), uint8(1), true)
	f.Fuzz(func(t *testing.T, pc, target uint32, kind uint8, taken bool) {
		r := Record{PC: isa.Addr(pc), Target: isa.Addr(target), Kind: isa.Kind(kind), Taken: taken}
		_ = r.Validate()
		if r.Validate() == nil {
			// Valid records have computable successors.
			_ = r.Next()
		}
	})
}
