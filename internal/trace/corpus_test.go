package trace

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"testing"

	"repro/internal/isa"
)

// corpusTrace builds a random well-formed chained trace for corpus tests.
func corpusTrace(name string, n int, seed int64) *Trace {
	rng := rand.New(rand.NewSource(seed))
	tr := &Trace{Name: name, StaticCondSites: n / 10}
	pc := isa.Addr(0x1000)
	for i := 0; i < n; i++ {
		kind := isa.Kind(rng.Intn(int(isa.NumKinds)))
		r := Record{PC: pc, Kind: kind}
		switch {
		case kind == isa.NonBranch:
		case kind == isa.CondBranch && rng.Intn(2) == 0:
		default:
			r.Taken = true
			r.Target = isa.Addr(uint32(0x1000+4*rng.Intn(1<<16)) &^ 3)
		}
		tr.Append(r)
		pc = r.Next()
	}
	return tr
}

func writeTestCorpus(t *testing.T, path string, traces []*Trace) {
	t.Helper()
	w, err := CreateCorpus(path)
	if err != nil {
		t.Fatalf("CreateCorpus: %v", err)
	}
	for _, tr := range traces {
		if err := w.Add(tr); err != nil {
			t.Fatalf("Add(%s): %v", tr.Name, err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
}

func TestCorpusRoundTrip(t *testing.T) {
	traces := []*Trace{
		corpusTrace("alpha", 500, 1),
		corpusTrace("beta", 3000, 2),
		{Name: "empty"},
	}
	path := filepath.Join(t.TempDir(), "test.nlsc")
	writeTestCorpus(t, path, traces)

	c, err := OpenCorpus(path)
	if err != nil {
		t.Fatalf("OpenCorpus: %v", err)
	}
	defer c.Close()

	progs := c.Programs()
	if len(progs) != len(traces) {
		t.Fatalf("Programs: %d entries, want %d", len(progs), len(traces))
	}
	for i, tr := range traces {
		if progs[i].Name != tr.Name || progs[i].Records != len(tr.Records) {
			t.Errorf("index entry %d: %q/%d, want %q/%d",
				i, progs[i].Name, progs[i].Records, tr.Name, len(tr.Records))
		}
		got, err := c.Trace(tr.Name)
		if err != nil {
			t.Fatalf("Trace(%s): %v", tr.Name, err)
		}
		if got.Name != tr.Name || got.StaticCondSites != tr.StaticCondSites {
			t.Errorf("%s: metadata lost: %q %d", tr.Name, got.Name, got.StaticCondSites)
		}
		if len(got.Records) != len(tr.Records) {
			t.Fatalf("%s: %d records, want %d", tr.Name, len(got.Records), len(tr.Records))
		}
		for j := range tr.Records {
			if got.Records[j] != tr.Records[j] {
				t.Fatalf("%s: record %d changed in corpus roundtrip", tr.Name, j)
			}
		}
	}

	if _, err := c.Trace("nonexistent"); err == nil {
		t.Error("Trace on a missing program succeeded")
	}
}

// TestCorpusChunkSource drains the streaming decoder at several chunk
// sizes and checks the concatenated chunks reproduce the trace exactly,
// including chunks straddling every internal decoder-state boundary.
func TestCorpusChunkSource(t *testing.T) {
	tr := corpusTrace("stream", 2500, 3)
	path := filepath.Join(t.TempDir(), "stream.nlsc")
	writeTestCorpus(t, path, []*Trace{tr})

	c, err := OpenCorpus(path)
	if err != nil {
		t.Fatalf("OpenCorpus: %v", err)
	}
	defer c.Close()

	for _, chunk := range []int{1, 7, 1024, 2500, 4096, 0} {
		src, err := c.ChunkSource("stream", chunk)
		if err != nil {
			t.Fatalf("ChunkSource(chunk=%d): %v", chunk, err)
		}
		p := src
		if p.Name != tr.Name || p.StaticCondSites != tr.StaticCondSites || p.Len() != len(tr.Records) {
			t.Errorf("chunk=%d: header %q/%d/%d, want %q/%d/%d", chunk,
				p.Name, p.StaticCondSites, p.Len(),
				tr.Name, tr.StaticCondSites, len(tr.Records))
		}
		// Hold every chunk: the contract says chunks stay valid across
		// further NextChunk calls.
		var held [][]Record
		for blk := src.NextChunk(); len(blk) > 0; blk = src.NextChunk() {
			held = append(held, blk)
		}
		if err := p.Err(); err != nil {
			t.Fatalf("chunk=%d: decode error: %v", chunk, err)
		}
		i := 0
		for _, blk := range held {
			for _, r := range blk {
				if r != tr.Records[i] {
					t.Fatalf("chunk=%d: record %d changed in streaming decode", chunk, i)
				}
				i++
			}
		}
		if i != len(tr.Records) {
			t.Fatalf("chunk=%d: decoded %d records, want %d", chunk, i, len(tr.Records))
		}
	}
}

// TestCorpusDetectsCorruption flips every byte of a small corpus in turn:
// each corrupted image must either fail to open, fail to decode, or decode
// to the identical records — silent corruption is the only failure.
func TestCorpusDetectsCorruption(t *testing.T) {
	tr := corpusTrace("c", 64, 4)
	path := filepath.Join(t.TempDir(), "c.nlsc")
	writeTestCorpus(t, path, []*Trace{tr})
	orig, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	for off := range orig {
		data := bytes.Clone(orig)
		data[off] ^= 0xFF
		c, err := OpenCorpusBytes(data)
		if err != nil {
			continue
		}
		got, err := c.Trace("c")
		if err != nil {
			continue
		}
		if got.Name != tr.Name || len(got.Records) != len(tr.Records) {
			t.Fatalf("byte %d corrupted silently (metadata)", off)
		}
		for i := range tr.Records {
			if got.Records[i] != tr.Records[i] {
				t.Fatalf("byte %d corrupted record %d silently", off, i)
			}
		}
	}
}

func TestCorpusTruncationRejected(t *testing.T) {
	tr := corpusTrace("t", 128, 5)
	path := filepath.Join(t.TempDir(), "t.nlsc")
	writeTestCorpus(t, path, []*Trace{tr})
	orig, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, cut := range []int{0, 3, len(corpusMagic), len(orig) / 2, len(orig) - 1} {
		if _, err := OpenCorpusBytes(orig[:cut]); err == nil {
			t.Errorf("truncation at %d accepted", cut)
		}
	}
}

// TestCorpusWriterAtomic: an aborted or failed write never leaves a file
// at the final path, and a Close makes the file appear complete.
func TestCorpusWriterAtomic(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "a.nlsc")
	w, err := CreateCorpus(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Add(corpusTrace("x", 32, 6)); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatalf("corpus visible at final path before Close (stat err %v)", err)
	}
	w.Abort()
	if left := dirNames(t, dir); len(left) != 0 {
		t.Fatalf("Abort left %v", left)
	}

	writeTestCorpus(t, path, []*Trace{corpusTrace("x", 32, 6)})
	if left := dirNames(t, dir); len(left) != 1 || left[0] != "a.nlsc" {
		t.Fatalf("Close left %v, want only the corpus", left)
	}
	c, err := OpenCorpus(path)
	if err != nil {
		t.Fatalf("reopen after Close: %v", err)
	}
	c.Close()
}

// dirNames lists the file names in dir.
func dirNames(t *testing.T, dir string) []string {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range ents {
		names = append(names, e.Name())
	}
	return names
}

// TestCorpusSectionsStreamed: sections written block by block, from
// concurrent goroutines, lay out byte-identically to Add of the same
// traces in section order.
func TestCorpusSectionsStreamed(t *testing.T) {
	traces := []*Trace{corpusTrace("a", 10_000, 11), corpusTrace("b", 4097, 12), {Name: "empty"}}
	dir := t.TempDir()
	want := filepath.Join(dir, "add.nlsc")
	writeTestCorpus(t, want, traces)

	got := filepath.Join(dir, "sections.nlsc")
	w, err := CreateCorpus(got)
	if err != nil {
		t.Fatal(err)
	}
	secs := make([]*CorpusSection, len(traces))
	for i, tr := range traces {
		if secs[i], err = w.Section(tr.Name, tr.StaticCondSites, tr.Len()); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	errs := make([]error, len(traces))
	for i, tr := range traces {
		wg.Add(1)
		go func(i int, recs []Record) {
			defer wg.Done()
			for len(recs) > 0 {
				k := min(len(recs), 7)
				if errs[i] = secs[i].Write(recs[:k]); errs[i] != nil {
					return
				}
				recs = recs[k:]
			}
			errs[i] = secs[i].Close()
		}(i, tr.Records)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	a, _ := os.ReadFile(want)
	b, _ := os.ReadFile(got)
	if !bytes.Equal(a, b) {
		t.Fatal("streamed sections differ from Add")
	}
	if left := dirNames(t, dir); len(left) != 2 {
		t.Fatalf("sections left spool files behind: %v", left)
	}
}

// TestCorpusSectionShortFails: a section given fewer records than it
// declared fails, the writer refuses to close, and nothing is left in the
// directory.
func TestCorpusSectionShortFails(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "short.nlsc")
	w, err := CreateCorpus(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Add(corpusTrace("ok", 100, 13)); err != nil {
		t.Fatal(err)
	}
	s, err := w.Section("short", 0, 100)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Write(corpusTrace("short", 99, 14).Records); err != nil {
		t.Fatal(err)
	}
	if s.Close() == nil {
		t.Error("section closed 1 record short of its declared count")
	}
	if w.Close() == nil {
		t.Error("writer closed over a failed section")
	}
	if left := dirNames(t, dir); len(left) != 0 {
		t.Fatalf("failed write left %v", left)
	}
}

// TestCorpusConcurrentWriters: writers racing to build one path each
// spool to their own temp files, so every Close succeeds and the file
// left behind is a valid corpus.
func TestCorpusConcurrentWriters(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "race.nlsc")
	tr := corpusTrace("x", 5000, 15)
	var wg sync.WaitGroup
	errs := make([]error, 8)
	for i := range errs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			w, err := CreateCorpus(path)
			if err == nil {
				if err = w.Add(tr); err == nil {
					err = w.Close()
				}
			}
			errs[i] = err
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Errorf("writer %d: %v", i, err)
		}
	}
	c, err := OpenCorpus(path)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	got, err := c.Trace("x")
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(got.Records, tr.Records) {
		t.Error("racing writers left a corpus with different records")
	}
}

// FuzzCorpusRead exercises the corpus header/index parser and both decode
// paths with arbitrary bytes: no input may panic or demand an allocation
// not bounded by the input size. Every program of an input that opens is
// also drained through ChunkSource at a fuzzed chunk size and a window of
// a few bytes (so varints straddle refills and the checksum is folded in
// over many reads): the stream must fail, or agree record for record with
// Corpus.Trace.
func FuzzCorpusRead(f *testing.F) {
	seedCorpus := func(traces []*Trace) []byte {
		dir := f.TempDir()
		path := filepath.Join(dir, "seed.nlsc")
		w, err := CreateCorpus(path)
		if err != nil {
			f.Fatal(err)
		}
		for _, tr := range traces {
			if err := w.Add(tr); err != nil {
				f.Fatal(err)
			}
		}
		if err := w.Close(); err != nil {
			f.Fatal(err)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		return data
	}
	f.Add(seedCorpus([]*Trace{corpusTrace("a", 100, 7), corpusTrace("b", 40, 8)}), uint16(64), uint8(0))
	f.Add(seedCorpus([]*Trace{corpusTrace("c", 300, 9)}), uint16(7), uint8(5))
	f.Add(seedCorpus(nil), uint16(1), uint8(0))
	f.Add([]byte(corpusMagic), uint16(0), uint8(0))
	f.Add([]byte(corpusTail), uint16(0), uint8(0))
	f.Add([]byte{}, uint16(0), uint8(0))

	f.Fuzz(func(t *testing.T, data []byte, chunk uint16, window uint8) {
		c, err := OpenCorpusBytes(data)
		if err != nil {
			return // rejection is fine; panics and OOM are not
		}
		for _, p := range c.Programs() {
			c.window = corpusWindowBytes
			tr, terr := c.Trace(p.Name)
			c.window = maxRecordBytes + int(window%8)
			src, err := c.ChunkSource(p.Name, int(chunk%1024))
			if err != nil {
				if terr == nil {
					t.Fatalf("Trace accepted %q but ChunkSource rejected it: %v", p.Name, err)
				}
				continue
			}
			var got []Record
			for blk := src.NextChunk(); len(blk) > 0; blk = src.NextChunk() {
				got = append(got, blk...)
				src.Release(blk)
			}
			switch {
			case src.Err() != nil:
				if terr == nil {
					t.Fatalf("Trace accepted %q but streaming decode failed: %v", p.Name, src.Err())
				}
			case terr != nil:
				// A clean stream leaves Trace only its index check to
				// fail.
				if src.Name == p.Name && src.Len() == p.Records {
					t.Fatalf("program %q streams cleanly but Trace failed: %v", p.Name, terr)
				}
			case !slices.Equal(got, tr.Records):
				t.Fatalf("program %q: streaming decode (%d records) diverges from Trace (%d)", p.Name, len(got), len(tr.Records))
			}
		}
	})
}

// countingReaderAt counts the bytes it serves and the furthest offset
// read.
type countingReaderAt struct {
	r        io.ReaderAt
	read, hw int64
}

func (c *countingReaderAt) ReadAt(p []byte, off int64) (int, error) {
	n, err := c.r.ReadAt(p, off)
	c.read += int64(n)
	c.hw = max(c.hw, off+int64(n))
	return n, err
}

// TestPayloadChunksReadWindow: a payload decoder reads its section exactly
// once, front to back, and never more than one window past the bytes of
// the records it has decoded; the encoder, run record by record, gives
// those byte positions independently of the decoder.
func TestPayloadChunksReadWindow(t *testing.T) {
	tr := corpusTrace("window", 3000, 10)
	path := filepath.Join(t.TempDir(), "window.nlsc")
	writeTestCorpus(t, path, []*Trace{tr})
	c, err := OpenCorpus(path)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	cr := &countingReaderAt{r: c.r}
	c.r = cr
	e := c.progs[0]

	var enc bytes.Buffer
	bw := bufio.NewWriter(&enc)
	w, err := newEncoder(bw, tr.Name, tr.StaticCondSites, tr.Len())
	if err != nil {
		t.Fatal(err)
	}
	ends := make([]int64, tr.Len()) // ends[i]: payload bytes through record i
	for i := range tr.Records {
		if err := w.write(tr.Records[i : i+1]); err != nil {
			t.Fatal(err)
		}
		bw.Flush()
		ends[i] = int64(enc.Len())
	}
	if ends[len(ends)-1] != e.length {
		t.Fatalf("encoder gives %d payload bytes, corpus index %d", ends[len(ends)-1], e.length)
	}

	for _, window := range []int{maxRecordBytes, 64, 1000, corpusWindowBytes} {
		c.window = window
		limit := int64(window)
		cr.read, cr.hw = 0, 0
		d, err := c.ChunkSource(tr.Name, 1)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; ; i++ {
			blk := d.NextChunk()
			if len(blk) == 0 {
				break
			}
			if blk[0] != tr.Records[i] {
				t.Fatalf("window %d: record %d differs", window, i)
			}
			if ahead := cr.hw - e.off - ends[i]; ahead > limit {
				t.Fatalf("window %d: after record %d the decoder has read %d bytes past it", window, i, ahead)
			}
			d.Release(blk)
		}
		if d.Err() != nil {
			t.Fatalf("window %d: %v", window, d.Err())
		}
		if cr.read != e.length || cr.hw != e.off+e.length {
			t.Errorf("window %d: read %d bytes up to offset %d; want the %d-byte payload once, up to %d",
				window, cr.read, cr.hw, e.length, e.off+e.length)
		}
	}
}

// TestCorpusConcurrentDecoders: decoders over one open corpus file share
// only its ReaderAt, so goroutines draining the same and different
// programs at once, through small windows that refill often, each get
// exactly their program's records (run under -race in CI's race smoke).
func TestCorpusConcurrentDecoders(t *testing.T) {
	traces := []*Trace{corpusTrace("p", 4000, 12), corpusTrace("q", 3000, 13)}
	path := filepath.Join(t.TempDir(), "conc.nlsc")
	writeTestCorpus(t, path, traces)
	c, err := OpenCorpus(path)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.window = 100
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		tr := traces[g%len(traces)]
		wg.Add(1)
		go func() {
			defer wg.Done()
			d, err := c.ChunkSource(tr.Name, 97)
			if err != nil {
				t.Error(err)
				return
			}
			var got []Record
			for blk := d.NextChunk(); len(blk) > 0; blk = d.NextChunk() {
				got = append(got, blk...)
				d.Release(blk)
			}
			if d.Err() != nil || !slices.Equal(got, tr.Records) {
				t.Errorf("program %s: %d records, err %v; want its %d records", tr.Name, len(got), d.Err(), tr.Len())
			}
		}()
	}
	wg.Wait()
}

// TestZigzagMatchesVarint: the decoder's inlined varint reader agrees with
// binary.Varint, value, length and rejection, on short byte strings mixing
// continuation bytes, terminators and arbitrary bytes, overlong and
// ten-byte overflowing varints included.
func TestZigzagMatchesVarint(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	for i := 0; i < 200_000; i++ {
		b := make([]byte, rng.Intn(14))
		for j := range b {
			switch rng.Intn(3) {
			case 0:
				b[j] = byte(rng.Intn(256))
			case 1:
				b[j] = 0x80 | byte(rng.Intn(128))
			default:
				b[j] = byte(rng.Intn(3))
			}
		}
		want, n := binary.Varint(b)
		got, next, ok := zigzag(b, 0)
		if ok != (n > 0) || ok && (got != want || next != n) {
			t.Fatalf("% x: binary.Varint %d, %d; zigzag %d, %d, %v", b, want, n, got, next, ok)
		}
	}
}

// TestPayloadChecksumAfterDrain: a payload whose records decode but whose
// bytes, trailing bytes included, disagree with the expected CRC is
// handed out and yields every record; Err reports the mismatch once the
// payload is drained, and Corpus.Trace fails.
func TestPayloadChecksumAfterDrain(t *testing.T) {
	tr := corpusTrace("crc", 2000, 11)
	var buf bytes.Buffer
	if err := Write(&buf, tr); err != nil {
		t.Fatal(err)
	}
	// Trailing bytes longer than the decoder's 32-byte window.
	payload := append(buf.Bytes(), bytes.Repeat([]byte("trailing"), 40)...)
	drain := func(payload []byte, crc uint32) (n int, err error) {
		e := CorpusProgram{length: int64(len(payload)), crc: crc}
		d, err := newPayloadDecoder(bytes.NewReader(payload), e, 32, 100)
		if err != nil {
			t.Fatalf("header rejected: %v", err)
		}
		for blk := d.NextChunk(); len(blk) > 0; blk = d.NextChunk() {
			if d.remaining > 0 && d.Err() != nil {
				t.Fatal("Err set before the payload was drained")
			}
			n += len(blk)
		}
		return n, d.Err()
	}
	if n, err := drain(payload, crc32.ChecksumIEEE(payload)); err != nil || n != tr.Len() {
		t.Fatalf("intact payload with trailing bytes: %d records, err %v", n, err)
	}
	bad := bytes.Clone(payload)
	bad[len(bad)-1] ^= 1
	if n, err := drain(bad, crc32.ChecksumIEEE(payload)); err == nil || n != tr.Len() {
		t.Fatalf("payload with a changed trailing byte: %d of %d records, err %v; want every record and a mismatch", n, tr.Len(), err)
	}

	// The same through a corpus whose index carries a wrong payload CRC
	// (and a recomputed index CRC).
	path := filepath.Join(t.TempDir(), "crc.nlsc")
	writeTestCorpus(t, path, []*Trace{tr})
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	footer := data[len(data)-corpusFooterLen:]
	idx := data[binary.LittleEndian.Uint64(footer[4:12]) : len(data)-corpusFooterLen]
	idx[len(idx)-1] ^= 0x80 // the last entry's payload CRC ends the index
	binary.LittleEndian.PutUint32(footer[0:4], crc32.ChecksumIEEE(idx))
	c, err := OpenCorpusBytes(data)
	if err != nil {
		t.Fatal(err)
	}
	d, err := c.ChunkSource(tr.Name, 0)
	if err != nil {
		t.Fatalf("ChunkSource rejected the payload before decoding: %v", err)
	}
	n := 0
	for blk := d.NextChunk(); len(blk) > 0; blk = d.NextChunk() {
		n += len(blk)
	}
	if n != tr.Len() || d.Err() == nil || !errors.Is(d.Err(), errBadCorpus) {
		t.Fatalf("decoded %d of %d records, err %v; want every record and a checksum mismatch", n, tr.Len(), d.Err())
	}
	if _, err := c.Trace(tr.Name); err == nil {
		t.Fatal("Trace accepted a payload failing its checksum")
	}
}

// TestPayloadChunksLenAfterError: Len reports the header's declared record
// count before decoding, and still after a mid-stream decode error.
func TestPayloadChunksLenAfterError(t *testing.T) {
	tr := corpusTrace("broken", 3000, 5)
	var buf bytes.Buffer
	if err := Write(&buf, tr); err != nil {
		t.Fatal(err)
	}
	payload := buf.Bytes()
	// 0xFF is never a valid record head (kind 7) and never ends a varint,
	// so decoding fails wherever it enters this tail.
	for i := len(payload) / 2; i < len(payload); i++ {
		payload[i] = 0xFF
	}
	d, err := newPayloadDecoder(bytes.NewReader(payload), CorpusProgram{length: int64(len(payload))}, corpusWindowBytes, 256)
	if err != nil {
		t.Fatal(err)
	}
	if d.Len() != len(tr.Records) {
		t.Fatalf("Len before decoding = %d, want %d", d.Len(), len(tr.Records))
	}
	n := 0
	for blk := d.NextChunk(); len(blk) > 0; blk = d.NextChunk() {
		n += len(blk)
	}
	if d.Err() == nil || n == 0 || n >= len(tr.Records) {
		t.Fatalf("decoded %d of %d records, err %v; want a mid-stream error", n, len(tr.Records), d.Err())
	}
	if d.Len() != len(tr.Records) {
		t.Fatalf("Len after a decode error = %d, want the declared %d", d.Len(), len(tr.Records))
	}
}

// TestChunkSourcesRecycleReleased: the streamed sources decode and draw
// into the storage of released blocks, and a recycled block carries exactly
// its own records.
func TestChunkSourcesRecycleReleased(t *testing.T) {
	const chunk = 256
	tr := corpusTrace("recycle", 3000, 6)
	path := filepath.Join(t.TempDir(), "recycle.nlsc")
	writeTestCorpus(t, path, []*Trace{tr})
	c, err := OpenCorpus(path)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	want := Chunk(tr, chunk)

	sources := map[string]func() ChunkSource{
		"payload": func() ChunkSource {
			d, err := c.ChunkSource("recycle", chunk)
			if err != nil {
				t.Fatal(err)
			}
			return d
		},
		"source": func() ChunkSource {
			return NewSourceChunks(&SliceSource{Records: tr.Records}, len(tr.Records), chunk)
		},
	}
	for name, mk := range sources {
		src := mk()
		// Hold two blocks at a time, so a block is reused only once
		// released and never while the next one is still held.
		var held [][]Record
		seen := map[*Record]bool{}
		bi := 0
		for recs := src.NextChunk(); len(recs) > 0; recs = src.NextChunk() {
			for _, h := range held {
				if &h[0] == &recs[0] {
					t.Fatalf("%s block %d: storage of a held block reused", name, bi)
				}
			}
			for i, r := range recs {
				if r != want.Block(bi)[i] {
					t.Fatalf("%s block %d: record %d differs", name, bi, i)
				}
			}
			seen[&recs[0]] = true
			held = append(held, recs)
			if len(held) == 2 {
				src.Release(held[0])
				held = held[1:]
			}
			bi++
		}
		if bi != want.NumChunks() {
			t.Fatalf("%s: %d blocks, want %d", name, bi, want.NumChunks())
		}
		if len(seen) > 3 {
			t.Errorf("%s: %d distinct block buffers for 2 held at a time; released storage is not reused", name, len(seen))
		}
	}
}
