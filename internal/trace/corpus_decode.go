package trace

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"

	"repro/internal/isa"
)

const (
	// corpusWindowBytes is a payload decoder's read window.
	corpusWindowBytes = 32 << 10
	// maxRecordBytes is the longest encoded record: a head byte and two
	// varints. The decoder refills its window whenever fewer bytes than
	// this remain, so a record is parsed from one contiguous slice.
	maxRecordBytes = 1 + 2*binary.MaxVarintLen64
)

// windows recycles read windows across decoders and corpora.
var windows bufPool[byte]

// PayloadChunks is a streaming decoder over one corpus program's payload:
// it reads the payload's section through a fixed window, refilled with
// ReadAt (safe for concurrent decoders), and decodes the NLST varint
// stream chunk by chunk, holding one window and the unreleased chunks
// however long the payload. Every byte read is folded into the payload
// CRC32, checked, and reported by Err on mismatch, once the last record
// is decoded and the trailing bytes read. It implements ChunkSource,
// decoding into released chunks when it can.
type PayloadChunks struct {
	// Name and StaticCondSites mirror the payload's trace header.
	Name            string
	StaticCondSites int

	src       io.ReaderAt
	off, end  int64  // the section's unread bytes [off, end)
	win       []byte // the read window, nil once the decoder is done
	buf       []byte // the bytes read into the window
	pos       int    // the next undecoded byte of buf
	crc, want uint32 // the running and the expected payload CRC32
	count     uint64 // records the header declares
	remaining uint64
	chunkSize int
	free      freeList[Record]
	// Delta-decoder state carried across chunks.
	prevPCWord, prevNextWord uint32
	err                      error
}

// newPayloadDecoder reads and validates the NLST header of e's payload
// section of src and returns a decoder positioned at the first record,
// reading through a window of the given size (at least maxRecordBytes).
func newPayloadDecoder(src io.ReaderAt, e CorpusProgram, window, chunkSize int) (*PayloadChunks, error) {
	if chunkSize <= 0 {
		chunkSize = DefaultChunkRecords
	}
	p := &PayloadChunks{src: src, off: e.off, end: e.off + e.length, want: e.crc, chunkSize: chunkSize,
		win: windows.get(max(window, maxRecordBytes), 0)}
	h := headerReader{p}
	magic, err := h.bytes(len(formatMagic) + 1) // and the version byte
	if err != nil {
		return nil, fmt.Errorf("reading magic: %w", err)
	}
	if string(magic[:4]) != formatMagic {
		return nil, fmt.Errorf("%w: bad magic %q", errBadFormat, magic[:4])
	}
	if magic[4] != formatVersion {
		return nil, fmt.Errorf("%w: unsupported version %d", errBadFormat, magic[4])
	}
	nameLen, err := binary.ReadUvarint(h)
	if err != nil {
		return nil, err
	}
	if nameLen > 1<<16 {
		return nil, fmt.Errorf("%w: name too long", errBadFormat)
	}
	name, err := h.bytes(int(nameLen))
	if err != nil {
		return nil, err
	}
	static, err := binary.ReadUvarint(h)
	if err != nil {
		return nil, err
	}
	// count is untrusted, but it is never pre-allocated here: each chunk
	// allocates at most chunkSize records and a lying count fails with
	// EOF mid-decode.
	if p.count, err = binary.ReadUvarint(h); err != nil {
		return nil, err
	}
	p.Name, p.StaticCondSites, p.remaining = string(name), int(static), p.count
	if p.remaining == 0 {
		p.finish()
	}
	return p, nil
}

// headerReader reads a payload header byte by byte through the decoder's
// window, refilling it as it empties.
type headerReader struct{ p *PayloadChunks }

func (h headerReader) ReadByte() (byte, error) {
	p := h.p
	if p.pos == len(p.buf) {
		if p.off == p.end {
			return 0, io.ErrUnexpectedEOF
		}
		if err := p.refill(); err != nil {
			return 0, err
		}
	}
	p.pos++
	return p.buf[p.pos-1], nil
}

// bytes reads the next n header bytes.
func (h headerReader) bytes(n int) (b []byte, err error) {
	b = make([]byte, n)
	for i := 0; i < n && err == nil; i++ {
		b[i], err = h.ReadByte()
	}
	return b, err
}

// refill moves the window's undecoded bytes to its front and fills the
// rest from the section, folding the bytes read into the running CRC.
func (p *PayloadChunks) refill() error {
	n := copy(p.win, p.buf[p.pos:])
	m := n + int(min(int64(len(p.win)-n), p.end-p.off))
	if err := readFull(p.src, p.win[n:m], p.off); err != nil {
		return err
	}
	p.crc = crc32.Update(p.crc, crc32.IEEETable, p.win[n:m])
	p.off += int64(m - n)
	p.buf, p.pos = p.win[:m], 0
	return nil
}

// Len returns the number of records the payload header declares, before
// and after any decode error.
func (p *PayloadChunks) Len() int { return int(p.count) }

// Err reports the first decode or read error, or a payload checksum
// mismatch once the payload is drained; NextChunk returns nil both at
// clean exhaustion and on error.
func (p *PayloadChunks) Err() error { return p.err }

// NextChunk implements ChunkSource. Each chunk is decoded into a released
// chunk's storage when one is free, else into a fresh one, and stays
// valid until it is released.
func (p *PayloadChunks) NextChunk() []Record {
	if p.err != nil || p.remaining == 0 {
		return nil
	}
	return p.decode(p.free.get(p.chunkSize), min(uint64(p.chunkSize), p.remaining))
}

// Release implements ChunkSource: the chunk's storage is decoded into again.
func (p *PayloadChunks) Release(recs []Record) { p.free.put(recs) }

// materialize decodes every remaining record into a whole trace, its
// record slice pre-sized for n records (the whole-trace form of NextChunk,
// used by Corpus.Trace and Read so one loop serves every read shape).
func (p *PayloadChunks) materialize(n int) (*Trace, error) {
	t := &Trace{Name: p.Name, StaticCondSites: p.StaticCondSites, Records: make([]Record, 0, n)}
	if p.err == nil && p.remaining > 0 {
		t.Records = p.decode(t.Records, p.remaining)
	}
	if p.err != nil {
		return nil, p.err
	}
	return t, nil
}

// decode appends the next k records to recs, parsing each straight from
// the window with no call per record; on an error it records it and
// returns nil. Decoding the last record finishes the payload (finish): a
// checksum mismatch sets Err, and the final records are still returned.
func (p *PayloadChunks) decode(recs []Record, k uint64) []Record {
	buf, pos := p.buf, p.pos
	prevPC, prevNext := p.prevPCWord, p.prevNextWord
	rec0 := p.count - p.remaining // records decoded before this call
	for i := uint64(0); i < k; i++ {
		if len(buf)-pos < maxRecordBytes {
			if p.off < p.end {
				p.pos = pos
				if err := p.refill(); err != nil {
					p.fail(fmt.Errorf("trace: record %d: %w", rec0+i, err))
					return nil
				}
				buf, pos = p.buf, 0
			}
			if pos == len(buf) {
				p.fail(fmt.Errorf("trace: record %d: %w", rec0+i, io.EOF))
				return nil
			}
		}
		head := buf[pos]
		pos++
		kind := isa.Kind(head & 0x7)
		if !kind.Valid() {
			p.fail(fmt.Errorf("%w: record %d kind %d", errBadFormat, rec0+i, kind))
			return nil
		}
		taken := head&(1<<3) != 0
		pcWord := prevNext
		if head&(1<<4) == 0 {
			d, next, ok := zigzag(buf, pos)
			if !ok {
				p.fail(fmt.Errorf("%w: record %d pc delta: bad varint", errBadFormat, rec0+i))
				return nil
			}
			pos = next
			pcWord = uint32(int64(prevPC) + d)
		}
		rec := Record{PC: isa.Addr(pcWord * isa.InstrBytes), Kind: kind, Taken: taken}
		if taken {
			d, next, ok := zigzag(buf, pos)
			if !ok {
				p.fail(fmt.Errorf("%w: record %d target delta: bad varint", errBadFormat, rec0+i))
				return nil
			}
			pos = next
			rec.Target = isa.Addr(uint32(int64(pcWord)+d) * isa.InstrBytes)
		}
		recs = append(recs, rec)
		prevPC = pcWord
		prevNext = rec.Next().Word()
	}
	p.pos = pos
	p.prevPCWord, p.prevNextWord = prevPC, prevNext
	p.remaining -= k
	if p.remaining == 0 {
		p.finish()
	}
	return recs
}

// zigzag is binary.Varint of buf[pos:], returning the position after the
// varint. Unlike binary.Varint it inlines, so decode makes no call.
func zigzag(buf []byte, pos int) (d int64, next int, ok bool) {
	var u uint64
	for s := uint(0); s < 64 && pos < len(buf); s += 7 {
		b := buf[pos]
		pos++
		u |= uint64(b&0x7f) << s
		if b < 0x80 {
			return int64(u>>1) ^ -int64(u&1), pos, s < 63 || b < 2
		}
	}
	return 0, pos, false
}

// finish reads the section's bytes past the last record, checks the
// payload CRC and returns the window to the pool.
func (p *PayloadChunks) finish() {
	for p.off < p.end {
		p.pos = len(p.buf)
		if err := p.refill(); err != nil {
			p.fail(fmt.Errorf("trace: payload tail: %w", err))
			return
		}
	}
	if p.crc != p.want {
		p.err = fmt.Errorf("%w: payload checksum mismatch", errBadCorpus)
	}
	p.putWindow()
}

func (p *PayloadChunks) fail(err error) {
	p.err = err
	p.remaining = 0
	p.putWindow()
}

func (p *PayloadChunks) putWindow() {
	if p.win != nil {
		windows.put(p.win)
		p.win, p.buf = nil, nil
	}
}
