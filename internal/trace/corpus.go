package trace

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sync"
)

// Disk-backed trace corpus: generate once, replay many.
//
// A corpus is a single versioned container holding the binary payloads of
// many program traces, so a sweep can pay trace generation one time and
// every later run decodes instead of regenerating. The layout
// (nls-corpus/v1) is:
//
//	magic    "nls-corpus/v1\n"
//	payloads one per program, back to back, each in the existing "NLST"
//	         chunked varint trace format (Write/Read in format.go)
//	index    uvarint program count, then per program:
//	           uvarint name length + name bytes
//	           uvarint record count
//	           uvarint payload offset (from file start)
//	           uvarint payload length
//	           uint32  payload CRC32 (IEEE), little endian
//	footer   uint32 index CRC32 (IEEE, over the index bytes), little endian
//	         uint64 index offset (from file start), little endian
//	         tail magic "nlsCORP1"
//
// The index lives at the end so the writer streams payloads without
// knowing their sizes up front; the reader finds it through the fixed-size
// footer. Every structure an attacker could inflate (name lengths, counts,
// offsets) is bounds-checked against the file size before any allocation,
// and both the index and each payload are checksummed.

const (
	corpusMagic = "nls-corpus/v1\n"
	corpusTail  = "nlsCORP1"
	// corpusFooterLen is the fixed footer: index CRC32 + index offset +
	// tail magic.
	corpusFooterLen = 4 + 8 + len(corpusTail)
	// corpusMaxNameLen bounds a program name read from an untrusted
	// index.
	corpusMaxNameLen = 1 << 12
)

// errBadCorpus reports a malformed or corrupt corpus file.
var errBadCorpus = errors.New("trace: malformed corpus file")

// CorpusProgram is one program's entry in a corpus index.
type CorpusProgram struct {
	// Name is the workload name, duplicated from the payload's own
	// header so listing a corpus needs no payload decode.
	Name string
	// Records is the payload's record count.
	Records int

	off, length int64
	crc         uint32
}

// CorpusWriter streams program traces into a corpus file. The index and
// footer are written by Close; until then the corpus is a temp file, so a
// crashed or abandoned write never leaves a half-valid corpus behind.
type CorpusWriter struct {
	f    *os.File
	path string
	tmp  string // f's name: unique per writer, so racing builders never collide
	off  int64

	mu       sync.Mutex
	sections []*CorpusSection // in layout order
}

// CreateCorpus starts a new corpus at path (via a uniquely named temp file
// in the same directory, renamed into place on Close).
func CreateCorpus(path string) (*CorpusWriter, error) {
	f, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".*.tmp")
	if err != nil {
		return nil, err
	}
	w := &CorpusWriter{f: f, path: path, tmp: f.Name()}
	if _, err := f.WriteString(corpusMagic); err != nil {
		w.Abort()
		return nil, err
	}
	w.off = int64(len(corpusMagic))
	return w, nil
}

// Add appends one program trace as a payload section.
func (w *CorpusWriter) Add(t *Trace) error {
	s, err := w.Section(t.Name, t.StaticCondSites, len(t.Records))
	if err != nil {
		return err
	}
	if err := s.Write(t.Records); err != nil {
		return err
	}
	return s.Close()
}

// A CorpusSection streams one program's payload into its corpus block by
// block, as the records are generated: each block is encoded and spooled
// to a temp file beside the corpus, with the payload's length and CRC32
// kept running, so a section holds O(buffer) memory however long the
// trace. CorpusWriter.Close lays the spooled payloads out in the order
// their sections were opened. Distinct sections may be written from
// concurrent goroutines.
type CorpusSection struct {
	f     *os.File
	sum   payloadSum
	enc   *encoder
	entry CorpusProgram
	err   error
	done  bool
}

// payloadSum forwards payload bytes to the spool file, tracking their
// length and CRC32.
type payloadSum struct {
	f   *os.File
	n   int64
	crc uint32
}

func (p *payloadSum) Write(b []byte) (int, error) {
	p.crc = crc32.Update(p.crc, crc32.IEEETable, b)
	n, err := p.f.Write(b)
	p.n += int64(n)
	return n, err
}

// sectionBufBytes is the encode buffer between a section and its spool
// file: large enough that spooling costs few write calls.
const sectionBufBytes = 64 << 10

// Section opens the next payload section, for a program named name with
// the given static conditional-site count and exactly records records
// (the payload header declares the count up front).
func (w *CorpusWriter) Section(name string, staticCondSites, records int) (*CorpusSection, error) {
	f, err := os.CreateTemp(filepath.Dir(w.path), filepath.Base(w.path)+".*.part")
	if err != nil {
		return nil, err
	}
	s := &CorpusSection{f: f, entry: CorpusProgram{Name: name, Records: records}}
	s.sum.f = f
	w.mu.Lock()
	w.sections = append(w.sections, s)
	w.mu.Unlock()
	if s.enc, err = newEncoder(bufio.NewWriterSize(&s.sum, sectionBufBytes), name, staticCondSites, records); err != nil {
		s.err = err
		return nil, err
	}
	return s, nil
}

// Write encodes one block of the section's records. The block is not
// retained, so the caller may reuse its storage at once.
func (s *CorpusSection) Write(recs []Record) error {
	if s.err == nil {
		s.err = s.enc.write(recs)
	}
	return s.err
}

// Close finishes the section. It fails if fewer records were written than
// the section declared; the writer then fails too.
func (s *CorpusSection) Close() error {
	if s.err == nil {
		s.err = s.enc.close()
	}
	s.done = true
	s.entry.length, s.entry.crc = s.sum.n, s.sum.crc
	return s.err
}

// Close lays out every section's payload, writes the index and footer,
// syncs, and renames the temp file into place. Every section must have
// been closed without error. The writer is unusable afterwards.
func (w *CorpusWriter) Close() error {
	defer w.Abort()
	entries := make([]CorpusProgram, 0, len(w.sections))
	for _, s := range w.sections {
		if s.err != nil {
			return s.err
		}
		if !s.done {
			return fmt.Errorf("trace: corpus section %q not closed", s.entry.Name)
		}
		if _, err := s.f.Seek(0, io.SeekStart); err != nil {
			return err
		}
		if _, err := io.Copy(w.f, s.f); err != nil {
			return err
		}
		e := s.entry
		e.off = w.off
		w.off += e.length
		entries = append(entries, e)
	}
	var idx bytes.Buffer
	putUvarint(&idx, uint64(len(entries)))
	for _, e := range entries {
		putUvarint(&idx, uint64(len(e.Name)))
		idx.WriteString(e.Name)
		putUvarint(&idx, uint64(e.Records))
		putUvarint(&idx, uint64(e.off))
		putUvarint(&idx, uint64(e.length))
		var crc [4]byte
		binary.LittleEndian.PutUint32(crc[:], e.crc)
		idx.Write(crc[:])
	}
	var footer [corpusFooterLen]byte
	binary.LittleEndian.PutUint32(footer[0:4], crc32.ChecksumIEEE(idx.Bytes()))
	binary.LittleEndian.PutUint64(footer[4:12], uint64(w.off))
	copy(footer[12:], corpusTail)
	if _, err := w.f.Write(idx.Bytes()); err != nil {
		return err
	}
	if _, err := w.f.Write(footer[:]); err != nil {
		return err
	}
	if err := w.f.Sync(); err != nil {
		return err
	}
	err := w.f.Close()
	w.f = nil
	if err == nil {
		err = os.Rename(w.tmp, w.path)
	}
	return err
}

// Abort discards the partial corpus and every section's spool file. It is
// a no-op after Close.
func (w *CorpusWriter) Abort() {
	for _, s := range w.sections {
		if s.f != nil {
			s.f.Close()
			os.Remove(s.f.Name())
			s.f = nil
		}
	}
	if w.f != nil {
		w.f.Close()
		w.f = nil
	}
	os.Remove(w.tmp)
}

// Corpus is a read-only open corpus: a reader over the open file or an
// in-memory image, plus the decoded index. It holds no payload: each
// decoder reads its own through a bounded window (PayloadChunks).
type Corpus struct {
	r      io.ReaderAt
	file   *os.File // nil for an in-memory image
	window int      // the decoders' read window; tests shrink it
	progs  []CorpusProgram
	byName map[string]int
}

// OpenCorpus opens and validates a corpus file: magic, footer, index
// checksum, and every index bound. A payload's checksum is verified as it
// is decoded (PayloadChunks). The file stays open until Close.
func OpenCorpus(path string) (*Corpus, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	fi, err := f.Stat()
	if err == nil {
		c := &Corpus{r: f, file: f, window: corpusWindowBytes}
		if err = c.parseIndex(fi.Size()); err == nil {
			return c, nil
		}
	}
	f.Close()
	return nil, err
}

// OpenCorpusBytes opens a corpus from an in-memory image (the fuzz
// harness's entry point; OpenCorpus validates through the same path).
func OpenCorpusBytes(data []byte) (*Corpus, error) {
	c := &Corpus{r: bytes.NewReader(data), window: corpusWindowBytes}
	if err := c.parseIndex(int64(len(data))); err != nil {
		return nil, err
	}
	return c, nil
}

// readFull reads exactly len(p) bytes at off (a short ReadAt returns an
// error).
func readFull(r io.ReaderAt, p []byte, off int64) error {
	if n, err := r.ReadAt(p, off); n < len(p) {
		return err
	}
	return nil
}

func (c *Corpus) parseIndex(size int64) error {
	if size < int64(len(corpusMagic)+corpusFooterLen) {
		return fmt.Errorf("%w: truncated (%d bytes)", errBadCorpus, size)
	}
	var magic [len(corpusMagic)]byte
	var footer [corpusFooterLen]byte
	if err := readFull(c.r, magic[:], 0); err != nil {
		return err
	}
	if err := readFull(c.r, footer[:], size-int64(corpusFooterLen)); err != nil {
		return err
	}
	if string(magic[:]) != corpusMagic {
		return fmt.Errorf("%w: bad magic", errBadCorpus)
	}
	if string(footer[12:]) != corpusTail {
		return fmt.Errorf("%w: bad tail magic", errBadCorpus)
	}
	idxOff := binary.LittleEndian.Uint64(footer[4:12])
	idxEnd := uint64(size) - uint64(corpusFooterLen)
	if idxOff < uint64(len(corpusMagic)) || idxOff > idxEnd {
		return fmt.Errorf("%w: index offset %d out of range", errBadCorpus, idxOff)
	}
	idx := make([]byte, idxEnd-idxOff)
	if err := readFull(c.r, idx, int64(idxOff)); err != nil {
		return err
	}
	if crc32.ChecksumIEEE(idx) != binary.LittleEndian.Uint32(footer[0:4]) {
		return fmt.Errorf("%w: index checksum mismatch", errBadCorpus)
	}
	r := bytes.NewReader(idx)
	count, err := binary.ReadUvarint(r)
	if err != nil {
		return fmt.Errorf("%w: index count: %v", errBadCorpus, err)
	}
	// A lying count must not demand a huge allocation: every entry takes
	// at least 8 index bytes (4 varints + CRC), so the index length
	// itself bounds the plausible count.
	if count > uint64(len(idx)) {
		return fmt.Errorf("%w: index count %d exceeds index size", errBadCorpus, count)
	}
	c.progs = make([]CorpusProgram, 0, count)
	c.byName = make(map[string]int, count)
	for i := uint64(0); i < count; i++ {
		nameLen, err := binary.ReadUvarint(r)
		if err != nil {
			return fmt.Errorf("%w: entry %d name length: %v", errBadCorpus, i, err)
		}
		if nameLen > corpusMaxNameLen {
			return fmt.Errorf("%w: entry %d name too long", errBadCorpus, i)
		}
		name := make([]byte, nameLen)
		if _, err := io.ReadFull(r, name); err != nil {
			return fmt.Errorf("%w: entry %d name: %v", errBadCorpus, i, err)
		}
		records, err := binary.ReadUvarint(r)
		if err != nil {
			return fmt.Errorf("%w: entry %d records: %v", errBadCorpus, i, err)
		}
		off, err := binary.ReadUvarint(r)
		if err != nil {
			return fmt.Errorf("%w: entry %d offset: %v", errBadCorpus, i, err)
		}
		length, err := binary.ReadUvarint(r)
		if err != nil {
			return fmt.Errorf("%w: entry %d length: %v", errBadCorpus, i, err)
		}
		var crcBuf [4]byte
		if _, err := io.ReadFull(r, crcBuf[:]); err != nil {
			return fmt.Errorf("%w: entry %d checksum: %v", errBadCorpus, i, err)
		}
		if off < uint64(len(corpusMagic)) || length > idxOff || off > idxOff-length {
			return fmt.Errorf("%w: entry %d payload [%d,+%d) out of range", errBadCorpus, i, off, length)
		}
		// records is untrusted but only ever used as a size hint capped
		// by the payload length (a record takes at least one payload
		// byte, see Read).
		if records > length {
			return fmt.Errorf("%w: entry %d record count %d exceeds payload", errBadCorpus, i, records)
		}
		c.byName[string(name)] = len(c.progs)
		c.progs = append(c.progs, CorpusProgram{
			Name:    string(name),
			Records: int(records),
			off:     int64(off),
			length:  int64(length),
			crc:     binary.LittleEndian.Uint32(crcBuf[:]),
		})
	}
	return nil
}

// Programs lists the corpus's index entries.
func (c *Corpus) Programs() []CorpusProgram { return c.progs }

// Trace decodes the named program's whole payload into a record slice
// pre-sized from the index's record count (which parseIndex bounded by the
// payload length), failing if the payload's checksum, verified as it
// drains, does not match. It is for callers that need the materialized
// trace; a replay streams through ChunkSource instead.
func (c *Corpus) Trace(name string) (*Trace, error) {
	d, err := c.ChunkSource(name, DefaultChunkRecords)
	if err != nil {
		return nil, err
	}
	e := c.progs[c.byName[name]]
	if d.Name != e.Name || d.Len() != e.Records {
		return nil, fmt.Errorf("%w: program %q payload disagrees with index", errBadCorpus, name)
	}
	t, err := d.materialize(e.Records)
	if err != nil {
		return nil, fmt.Errorf("trace: corpus program %q: %w", name, err)
	}
	return t, nil
}

// ChunkSource returns a sequential decoder over the named program's
// payload, yielding chunks of at most chunkSize records read through a
// bounded window. A returned chunk stays valid across further NextChunk
// calls (the broadcast fan-out requires it) until the caller releases it,
// after which its storage may carry a later chunk. The decoder's Name and
// Len come from the payload's own header, checked here; a caller that
// needs them to agree with the index or a budget checks them before
// replay. The payload checksum is checked only once the payload drains,
// so a caller checks Err after replay and discards what it replayed if
// Err is set.
func (c *Corpus) ChunkSource(name string, chunkSize int) (*PayloadChunks, error) {
	i, ok := c.byName[name]
	if !ok {
		return nil, fmt.Errorf("trace: corpus has no program %q", name)
	}
	d, err := newPayloadDecoder(c.r, c.progs[i], c.window, chunkSize)
	if err != nil {
		return nil, fmt.Errorf("trace: corpus program %q: %w", name, err)
	}
	return d, nil
}

// Close closes the corpus file; a decoder still reading it fails. Close
// between replays only.
func (c *Corpus) Close() error {
	if c.file == nil {
		return nil
	}
	err := c.file.Close()
	c.file = nil
	return err
}

func putUvarint(b *bytes.Buffer, v uint64) {
	var buf [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(buf[:], v)
	b.Write(buf[:n])
}
