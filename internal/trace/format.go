package trace

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
)

// Binary trace file format.
//
// Traces compress extremely well with delta encoding because instruction
// streams are mostly sequential. The format is:
//
//	magic   [4]byte  "NLST"
//	version uint8    (1)
//	name    uvarint length + bytes
//	static  uvarint  (static conditional sites, 0 if unknown)
//	count   uvarint  (number of records)
//	records:
//	  head byte: kind (3 bits) | taken (1 bit, bit 3) | seq (1 bit, bit 4)
//	    seq=1 means PC == previous record's successor (the common case);
//	    otherwise a signed varint word delta from the previous PC follows.
//	  if taken: signed varint word delta of Target from PC.
//
// Word deltas (address/4) keep varints short.

const (
	formatMagic   = "NLST"
	formatVersion = 1
)

// errBadFormat reports a malformed trace file.
var errBadFormat = errors.New("trace: malformed trace file")

// Write serializes the trace to w in the binary format: a thin wrapper
// over the streaming encoder, handing it the whole record slice as one
// block.
func Write(w io.Writer, t *Trace) error {
	e, err := newEncoder(bufio.NewWriter(w), t.Name, t.StaticCondSites, len(t.Records))
	if err != nil {
		return err
	}
	if err := e.write(t.Records); err != nil {
		return err
	}
	return e.close()
}

// encoder is the one NLST encoder: it writes the header up front (the
// record count is declared there, so it must be known in advance) and
// then records block by block, carrying the delta state across blocks,
// so a trace can be serialized as it is generated without ever being
// materialized. The bytes do not depend on how the records are split
// into blocks.
type encoder struct {
	bw        *bufio.Writer
	remaining int // records the header declared and write has not yet seen
	first     bool
	// Delta-encoder state carried across blocks.
	prevPCWord, prevNextWord uint32
}

// newEncoder writes the header for a trace of count records to bw.
func newEncoder(bw *bufio.Writer, name string, staticCondSites, count int) (*encoder, error) {
	if _, err := bw.WriteString(formatMagic); err != nil {
		return nil, err
	}
	if err := bw.WriteByte(formatVersion); err != nil {
		return nil, err
	}
	writeUvarint(bw, uint64(len(name)))
	if _, err := bw.WriteString(name); err != nil {
		return nil, err
	}
	writeUvarint(bw, uint64(staticCondSites))
	writeUvarint(bw, uint64(count))
	return &encoder{bw: bw, remaining: count, first: true}, nil
}

// write appends a block of records. Writing more records than the header
// declared is an error.
func (e *encoder) write(recs []Record) error {
	if len(recs) > e.remaining {
		return fmt.Errorf("trace: encoder given %d records past the declared count", len(recs)-e.remaining)
	}
	e.remaining -= len(recs)
	bw := e.bw
	for _, r := range recs {
		head := byte(r.Kind) & 0x7
		if r.Taken {
			head |= 1 << 3
		}
		seq := !e.first && r.PC.Word() == e.prevNextWord
		if seq {
			head |= 1 << 4
		}
		if err := bw.WriteByte(head); err != nil {
			return err
		}
		if !seq {
			writeVarint(bw, int64(r.PC.Word())-int64(e.prevPCWord))
		}
		if r.Taken {
			writeVarint(bw, int64(r.Target.Word())-int64(r.PC.Word()))
		}
		e.first = false
		e.prevPCWord = r.PC.Word()
		e.prevNextWord = r.Next().Word()
	}
	return nil
}

// close flushes the encoded bytes. It fails if fewer records were written
// than the header declared, since the payload would then be truncated.
func (e *encoder) close() error {
	if e.remaining != 0 {
		return fmt.Errorf("trace: encoder closed %d records short of the declared count", e.remaining)
	}
	return e.bw.Flush()
}

// Read deserializes a trace written by Write: it reads the whole stream
// and decodes it as a corpus payload (PayloadChunks), checked against its
// own CRC, since a lone trace carries none. A lying record count fails
// with EOF; the records are pre-sized by the bytes read, not the count.
func Read(r io.Reader) (*Trace, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, err
	}
	e := CorpusProgram{length: int64(len(data)), crc: crc32.ChecksumIEEE(data)}
	d, err := newPayloadDecoder(bytes.NewReader(data), e, corpusWindowBytes, 0)
	if err != nil {
		return nil, fmt.Errorf("trace: %w", err)
	}
	return d.materialize(int(min(d.count, uint64(len(data)))))
}

// writeUvarint and writeVarint append straight into the writer's buffer
// (flushing first when it cannot hold a maximal varint), so encoding a
// record allocates nothing.
func writeUvarint(w *bufio.Writer, v uint64) {
	if w.Available() < binary.MaxVarintLen64 {
		w.Flush()
	}
	w.Write(binary.AppendUvarint(w.AvailableBuffer(), v))
}

func writeVarint(w *bufio.Writer, v int64) {
	if w.Available() < binary.MaxVarintLen64 {
		w.Flush()
	}
	w.Write(binary.AppendVarint(w.AvailableBuffer(), v))
}
