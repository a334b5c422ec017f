package trace

import (
	"bufio"
	"bytes"
	"io"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/isa"
)

func roundtrip(t *testing.T, tr *Trace) *Trace {
	t.Helper()
	var buf bytes.Buffer
	if err := Write(&buf, tr); err != nil {
		t.Fatalf("Write: %v", err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatalf("Read: %v", err)
	}
	return got
}

func TestRoundtripBasic(t *testing.T) {
	tr := statTrace()
	tr.StaticCondSites = 1234
	got := roundtrip(t, tr)
	if got.Name != tr.Name || got.StaticCondSites != 1234 {
		t.Errorf("metadata lost: %q %d", got.Name, got.StaticCondSites)
	}
	if len(got.Records) != len(tr.Records) {
		t.Fatalf("record count %d != %d", len(got.Records), len(tr.Records))
	}
	for i := range tr.Records {
		if got.Records[i] != tr.Records[i] {
			t.Errorf("record %d: got %+v want %+v", i, got.Records[i], tr.Records[i])
		}
	}
}

func TestRoundtripEmpty(t *testing.T) {
	got := roundtrip(t, &Trace{Name: ""})
	if got.Len() != 0 {
		t.Errorf("empty trace read back %d records", got.Len())
	}
}

// TestRoundtripRandomChains is a property test: random well-formed chained
// traces survive the delta encoding exactly.
func TestRoundtripRandomChains(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 50; trial++ {
		tr := &Trace{Name: "prop"}
		pc := isa.Addr(0x1000)
		for i := 0; i < 200; i++ {
			kind := isa.Kind(rng.Intn(int(isa.NumKinds)))
			r := Record{PC: pc, Kind: kind}
			switch {
			case kind == isa.NonBranch:
			case kind == isa.CondBranch && rng.Intn(2) == 0:
				// not taken
			default:
				r.Taken = true
				r.Target = isa.Addr(uint32(0x1000+4*rng.Intn(1<<16)) &^ 3)
			}
			tr.Append(r)
			pc = r.Next()
		}
		if err := tr.Validate(); err != nil {
			t.Fatalf("generator made invalid trace: %v", err)
		}
		got := roundtrip(t, tr)
		if err := got.Validate(); err != nil {
			t.Fatalf("roundtripped trace invalid: %v", err)
		}
		for i := range tr.Records {
			if got.Records[i] != tr.Records[i] {
				t.Fatalf("trial %d record %d mismatch", trial, i)
			}
		}
	}
}

func TestReadRejectsBadMagic(t *testing.T) {
	if _, err := Read(strings.NewReader("XXXXjunkjunk")); err == nil {
		t.Error("bad magic accepted")
	}
}

func TestReadRejectsBadVersion(t *testing.T) {
	var buf bytes.Buffer
	if err := Write(&buf, &Trace{Name: "v"}); err != nil {
		t.Fatal(err)
	}
	b := buf.Bytes()
	b[4] = 99 // version byte
	if _, err := Read(bytes.NewReader(b)); err == nil {
		t.Error("bad version accepted")
	}
}

func TestReadRejectsTruncation(t *testing.T) {
	var buf bytes.Buffer
	if err := Write(&buf, statTrace()); err != nil {
		t.Fatal(err)
	}
	b := buf.Bytes()
	for _, cut := range []int{3, 5, len(b) / 2, len(b) - 1} {
		if _, err := Read(bytes.NewReader(b[:cut])); err == nil {
			t.Errorf("truncation at %d accepted", cut)
		}
	}
}

func TestCompression(t *testing.T) {
	// A mostly sequential trace should encode in much less than the
	// 12+ bytes per in-memory record.
	tr := &Trace{Name: "seq"}
	pc := isa.Addr(0x1000)
	for i := 0; i < 10000; i++ {
		tr.Append(Record{PC: pc, Kind: isa.NonBranch})
		pc = pc.Next()
	}
	var buf bytes.Buffer
	if err := Write(&buf, tr); err != nil {
		t.Fatal(err)
	}
	if perRec := float64(buf.Len()) / 10000; perRec > 1.5 {
		t.Errorf("sequential trace encodes at %.2f bytes/record, want ~1", perRec)
	}
}

// TestEncoderBlockSizeInvariant: encoding a trace block by block gives
// exactly Write's bytes whatever the block size, including a short final
// block — the delta state carries across blocks.
func TestEncoderBlockSizeInvariant(t *testing.T) {
	tr := corpusTrace("blocks", 10_000, 21) // a multiple of none of the sizes
	var want bytes.Buffer
	if err := Write(&want, tr); err != nil {
		t.Fatal(err)
	}
	for _, k := range []int{1, 7, DefaultChunkRecords} {
		var got bytes.Buffer
		e, err := newEncoder(bufio.NewWriter(&got), tr.Name, tr.StaticCondSites, tr.Len())
		if err != nil {
			t.Fatal(err)
		}
		for recs := tr.Records; len(recs) > 0; {
			n := min(len(recs), k)
			if err := e.write(recs[:n]); err != nil {
				t.Fatal(err)
			}
			recs = recs[n:]
		}
		if err := e.close(); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Errorf("block size %d: encoding differs from Write", k)
		}
	}
}

// TestEncoderEnforcesCount: the header declares the record count, so
// writing fewer or more records than declared is an error.
func TestEncoderEnforcesCount(t *testing.T) {
	recs := corpusTrace("n", 10, 22).Records
	e, err := newEncoder(bufio.NewWriter(io.Discard), "n", 0, 11)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.write(recs); err != nil {
		t.Fatal(err)
	}
	if e.close() == nil {
		t.Error("close accepted 10 of 11 declared records")
	}
	e, err = newEncoder(bufio.NewWriter(io.Discard), "n", 0, 9)
	if err != nil {
		t.Fatal(err)
	}
	if e.write(recs) == nil {
		t.Error("write accepted 10 records against a declared 9")
	}
}

// TestWriteAllocs pins the varint writers to the bufio buffer: encoding a
// 100k-record trace allocates only the writer and encoder themselves, not
// one buffer per varint.
func TestWriteAllocs(t *testing.T) {
	tr := corpusTrace("allocs", 100_000, 23)
	allocs := testing.AllocsPerRun(5, func() {
		if err := Write(io.Discard, tr); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 4 {
		t.Errorf("Write of 100k records made %.0f allocations, want at most 4", allocs)
	}
}
