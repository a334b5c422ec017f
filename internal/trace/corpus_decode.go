package trace

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"

	"repro/internal/isa"
)

// PayloadChunks is a streaming decoder over one corpus program's payload
// bytes: it decodes the NLST varint stream chunk by chunk instead of
// materializing the whole record slice, so a corpus-driven sweep touches
// the mapped file sequentially and keeps O(chunk) decoded state live.
// It implements ChunkSource, decoding into released chunks when it can.
type PayloadChunks struct {
	// Name and StaticCondSites mirror the payload's trace header.
	Name            string
	StaticCondSites int

	r         *bytes.Reader
	count     uint64 // records the header declares
	remaining uint64
	chunkSize int
	free      freeList[Record]
	// Delta-decoder state carried across chunks.
	prevPCWord, prevNextWord uint32
	err                      error
	rec                      uint64 // records decoded, for error positions
}

// newPayloadDecoder validates the payload's NLST header and returns a
// decoder positioned at the first record.
func newPayloadDecoder(payload []byte, chunkSize int) (*PayloadChunks, error) {
	if chunkSize <= 0 {
		chunkSize = DefaultChunkRecords
	}
	r := bytes.NewReader(payload)
	var magic [4]byte
	if _, err := io.ReadFull(r, magic[:]); err != nil {
		return nil, fmt.Errorf("reading magic: %w", err)
	}
	if string(magic[:]) != formatMagic {
		return nil, fmt.Errorf("%w: bad magic %q", errBadFormat, magic)
	}
	ver, err := r.ReadByte()
	if err != nil {
		return nil, err
	}
	if ver != formatVersion {
		return nil, fmt.Errorf("%w: unsupported version %d", errBadFormat, ver)
	}
	nameLen, err := binary.ReadUvarint(r)
	if err != nil {
		return nil, err
	}
	if nameLen > 1<<16 {
		return nil, fmt.Errorf("%w: name too long", errBadFormat)
	}
	name := make([]byte, nameLen)
	if _, err := io.ReadFull(r, name); err != nil {
		return nil, err
	}
	static, err := binary.ReadUvarint(r)
	if err != nil {
		return nil, err
	}
	count, err := binary.ReadUvarint(r)
	if err != nil {
		return nil, err
	}
	// count is untrusted, but it is never pre-allocated here: each chunk
	// allocates at most chunkSize records and a lying count fails with
	// EOF mid-decode.
	return &PayloadChunks{
		Name:            string(name),
		StaticCondSites: int(static),
		r:               r,
		count:           count,
		remaining:       count,
		chunkSize:       chunkSize,
	}, nil
}

// Len returns the number of records the payload header declares, before
// and after any decode error.
func (p *PayloadChunks) Len() int { return int(p.count) }

// Err reports the first decode error, if any; NextChunk returns nil both
// at clean exhaustion and on error.
func (p *PayloadChunks) Err() error { return p.err }

// NextChunk implements ChunkSource. Each chunk is decoded into a released
// chunk's storage when one is free, else into a fresh one, and stays
// valid until it is released.
func (p *PayloadChunks) NextChunk() []Record {
	if p.err != nil || p.remaining == 0 {
		return nil
	}
	k := uint64(p.chunkSize)
	if k > p.remaining {
		k = p.remaining
	}
	return p.decode(p.free.get(p.chunkSize), k)
}

// Release implements ChunkSource: the chunk's storage is decoded into again.
func (p *PayloadChunks) Release(recs []Record) { p.free.put(recs) }

// drain decodes every remaining record onto recs (the whole-trace form of
// NextChunk, used by Corpus.Trace so one loop serves both read shapes).
func (p *PayloadChunks) drain(recs []Record) []Record {
	if p.err == nil && p.remaining > 0 {
		recs = p.decode(recs, p.remaining)
	}
	return recs
}

// decode appends the next k records to recs. On a decode error it
// records the error and returns nil.
func (p *PayloadChunks) decode(recs []Record, k uint64) []Record {
	for i := uint64(0); i < k; i++ {
		head, err := p.r.ReadByte()
		if err != nil {
			p.fail(fmt.Errorf("trace: record %d: %w", p.rec, err))
			return nil
		}
		kind := isa.Kind(head & 0x7)
		if !kind.Valid() {
			p.fail(fmt.Errorf("%w: record %d kind %d", errBadFormat, p.rec, kind))
			return nil
		}
		taken := head&(1<<3) != 0
		var pcWord uint32
		if head&(1<<4) != 0 {
			pcWord = p.prevNextWord
		} else {
			d, err := binary.ReadVarint(p.r)
			if err != nil {
				p.fail(fmt.Errorf("trace: record %d pc delta: %w", p.rec, err))
				return nil
			}
			pcWord = uint32(int64(p.prevPCWord) + d)
		}
		rec := Record{PC: isa.Addr(pcWord * isa.InstrBytes), Kind: kind, Taken: taken}
		if taken {
			d, err := binary.ReadVarint(p.r)
			if err != nil {
				p.fail(fmt.Errorf("trace: record %d target delta: %w", p.rec, err))
				return nil
			}
			rec.Target = isa.Addr(uint32(int64(pcWord)+d) * isa.InstrBytes)
		}
		recs = append(recs, rec)
		p.prevPCWord = pcWord
		p.prevNextWord = rec.Next().Word()
		p.rec++
	}
	p.remaining -= k
	return recs
}

func (p *PayloadChunks) fail(err error) {
	p.err = err
	p.remaining = 0
}
