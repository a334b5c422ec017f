package trace

import (
	"bytes"
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
// not bounded by the input size, and anything accepted must decode
// consistently between the materializing and streaming readers.
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
	f.Add(seedCorpus([]*Trace{corpusTrace("a", 100, 7), corpusTrace("b", 40, 8)}))
	f.Add(seedCorpus(nil))
	f.Add([]byte(corpusMagic))
	f.Add([]byte(corpusTail))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		c, err := OpenCorpusBytes(data)
		if err != nil {
			return // rejection is fine; panics and OOM are not
		}
		for _, p := range c.Programs() {
			tr, err := c.Trace(p.Name)
			if err != nil {
				continue
			}
			src, err := c.ChunkSource(p.Name, 64)
			if err != nil {
				t.Fatalf("Trace accepted %q but ChunkSource rejected it: %v", p.Name, err)
			}
			i := 0
			for blk := src.NextChunk(); len(blk) > 0; blk = src.NextChunk() {
				for _, r := range blk {
					if i >= len(tr.Records) || r != tr.Records[i] {
						t.Fatalf("program %q: streaming decode diverges at record %d", p.Name, i)
					}
					i++
				}
			}
			if err := src.Err(); err != nil {
				t.Fatalf("Trace accepted %q but streaming decode failed: %v", p.Name, err)
			}
			if i != len(tr.Records) {
				t.Fatalf("program %q: streaming decode yielded %d records, want %d", p.Name, i, len(tr.Records))
			}
		}
	})
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
	d, err := newPayloadDecoder(payload, 256)
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

// TestChunkSourcesRecycleReleased: the streamed sources decode, draw and
// annotate into the storage of released blocks, and a recycled block
// carries exactly its own records and run annotation.
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
	runsWant := want.RunLens(32)

	sources := map[string]func() RunChunkSource{
		"payload": func() RunChunkSource {
			d, err := c.ChunkSource("recycle", chunk)
			if err != nil {
				t.Fatal(err)
			}
			return AnnotateRuns(d, 32)
		},
		"source": func() RunChunkSource {
			return AnnotateRuns(NewSourceChunks(&SliceSource{Records: tr.Records}, len(tr.Records), chunk), 32)
		},
	}
	for name, mk := range sources {
		src := mk()
		// Hold two blocks at a time, so a block is reused only once
		// released and never while the next one is still held.
		var held [][]Record
		seen := map[*Record]bool{}
		bi := 0
		for recs, runs := src.NextChunkRuns(); len(recs) > 0; recs, runs = src.NextChunkRuns() {
			for _, h := range held {
				if &h[0] == &recs[0] {
					t.Fatalf("%s block %d: storage of a held block reused", name, bi)
				}
			}
			if string(runs) != string(runsWant[bi]) {
				t.Fatalf("%s block %d: annotation differs from RunLens", name, bi)
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
