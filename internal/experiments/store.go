package experiments

import (
	"bytes"
	"crypto/sha256"
	"encoding"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"hash"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"unsafe"

	"repro/internal/metrics"
	"repro/internal/workload"
)

// The content-addressed results store. Every simulated grid cell is
// persisted as one file named by the SHA-256 of everything its counters
// depend on — the workload spec (name, seed, generator parameters), the
// instruction budget and the complete arch.Spec (predictor sizing, cache
// geometry, PHT, RAS depth, pollution flag, prefetcher) — and of nothing
// else. A later run whose inputs are unchanged loads the cell instead of
// re-simulating it; any change to any input changes the key, so stale
// results can never be served (invalidation is structural, not tracked).
// The penalty assumptions are deliberately not an input: counters are raw
// event counts, and BEP and CPI are derived from them under whatever
// penalties the reader renders with, so every point of a penalty sweep is
// served by the same cells (TestCountersIndependentOfPenalties).
// Keys use the canonical-JSON convention of arch.Spec.Hash: encoding/json
// marshals struct fields in declaration order with deterministic
// formatting, and a deliberate schema change must not silently alias old
// cells — hence the version tag in each key document.
//
// A cell's value is its metrics.Counters alone, in a fixed binary
// encoding behind a magic and a value-schema version (encodeCell). The
// program, arm label and spec are not stored: the key already covers
// them, and ResultSet.Rows re-attaches them from the requesting grid on
// every read. A file decodes only when the magic, the version and the
// exact length all match; anything else — a v1 cell (an indented JSON
// Row), a torn or truncated write, another version's layout — is a miss,
// re-simulated and overwritten. Decoded counters are kept in a bounded
// in-process memo (memoCells), so a long-lived store (nlsserve) serves a
// repeat hit without touching the file system; keys are content hashes,
// so a memoized value cannot go stale.
//
// A cell's key document is
//
//	{"schema":"nls-cell/v2","workload":W,"insns":N,"spec":S}
//
// and it is never marshaled whole: W and S are marshaled on their own and
// concatenated (cellKeyer), so a grid marshals each program and arm point
// once instead of once per cell (Grid.Keyed). The
// concatenation is byte-identical to marshaling the document as one struct
// because encoding/json writes a struct's fields in declaration order, in
// compact form, each field's value exactly as it marshals alone. That holds
// only while no type inside a key document gains a pointer-receiver
// MarshalJSON (a value held in a struct field is not addressable, so such a
// method would apply to a standalone marshal of a pointer but not to the
// embedded field) and while key documents are not indented.
// TestKeyedCellsMatchStructMarshal holds the derivation to a
// whole-document marshal, and TestCellKeyGolden pins a stored key.

// cellSchema versions the cell key derivation. Bump it when the meaning of
// a stored cell changes without any key field changing (e.g. an engine
// recalibration), so every old cell misses and is recomputed. A change to
// how the counters are encoded bumps cellValueVersion instead, which
// leaves every key where it is. Version 1 also hashed the penalties.
const cellSchema = "nls-cell/v2"

// A cell value is
//
//	cellMagic | uint32 cellValueVersion | metrics.Counters
//
// all little-endian, the counters in binary.Write's layout (every field in
// declaration order, arrays element by element). Version 1 was the JSON
// Row document. TestCellValueGolden pins the bytes of one Counters value:
// adding, removing or reordering a Counters field breaks it, and the fix
// is a version bump here, never a new golden alone.
const (
	cellMagic               = "NLSC"
	cellValueVersion uint32 = 2
)

// cellValueLen is the exact length of a current-version cell file. Every
// Counters field is a uint64 or an array of them, so the in-memory size
// has no padding and equals binary.Size (TestCellValueGolden checks the
// encoded length), and the length is a constant that sizes a read buffer.
const cellValueLen = len(cellMagic) + 4 + int(unsafe.Sizeof(metrics.Counters{}))

// encodeCell returns m's cell value.
func encodeCell(m *metrics.Counters) []byte {
	buf := bytes.NewBuffer(make([]byte, 0, cellValueLen))
	buf.WriteString(cellMagic)
	for _, v := range []any{cellValueVersion, m} {
		if err := binary.Write(buf, binary.LittleEndian, v); err != nil {
			panic(err) // only a variable-size Counters field fails
		}
	}
	return buf.Bytes()
}

// decodeCell decodes a cell value into m. It reports false, leaving m
// untouched, unless buf is exactly a current-version value. The counters
// decode word by word into m's memory, which holds binary.Write's layout
// because every field is a uint64 or an array of them (TestCellValueGolden
// round-trips distinct values through every field), so decoding allocates
// nothing.
func decodeCell(buf []byte, m *metrics.Counters) bool {
	head := len(cellMagic) + 4
	if len(buf) != cellValueLen || string(buf[:len(cellMagic)]) != cellMagic ||
		binary.LittleEndian.Uint32(buf[len(cellMagic):head]) != cellValueVersion {
		return false
	}
	words := unsafe.Slice((*uint64)(unsafe.Pointer(m)), (cellValueLen-head)/8)
	for i := range words {
		words[i] = binary.LittleEndian.Uint64(buf[head+8*i:])
	}
	return true
}

// infoSchema versions the per-program replay-derived info (Table-1 stats
// and fetch-block counts).
const infoSchema = "nls-info/v1"

// cellDocHead opens every cell key document, up to the workload value.
var cellDocHead = []byte(`{"schema":` + string(mustMarshal(cellSchema)) + `,"workload":`)

// cellDocTail closes every cell key document after the spec value.
var cellDocTail = []byte{'}'}

// cellKeyer derives cell keys from pre-marshaled fragments: the workload
// spec and budget once per program, and each cell's spec. The SHA-256
// state after the program's prefix is saved, so a cell hashes only its
// spec and the closing brace.
type cellKeyer struct {
	h      hash.Hash
	prefix []byte // h's state after the current program's prefix
	sum    [sha256.Size]byte
}

func newCellKeyer() *cellKeyer { return &cellKeyer{h: sha256.New()} }

// program starts the current program's key documents: w is its marshaled
// workload.Spec, insns the budget.
func (k *cellKeyer) program(w []byte, insns int) {
	k.h.Reset()
	k.h.Write(cellDocHead)
	k.h.Write(w)
	mid := strconv.AppendInt([]byte(`,"insns":`), int64(insns), 10)
	k.h.Write(append(mid, `,"spec":`...))
	var err error
	if k.prefix, err = k.h.(encoding.BinaryMarshaler).MarshalBinary(); err != nil {
		panic(err) // sha256 state always marshals
	}
}

// key returns the store key of the current program's cell whose marshaled
// arch.Spec is s.
func (k *cellKeyer) key(s []byte) string {
	if err := k.h.(encoding.BinaryUnmarshaler).UnmarshalBinary(k.prefix); err != nil {
		panic(err) // the state came from AppendBinary
	}
	k.h.Write(s)
	k.h.Write(cellDocTail)
	return hex.EncodeToString(k.h.Sum(k.sum[:0]))
}

// infoKey derives the store key of a program's replay-derived info.
func infoKey(w workload.Spec, insns int) string {
	return hashDoc(struct {
		Schema    string        `json:"schema"`
		Workload  workload.Spec `json:"workload"`
		Insns     int           `json:"insns"`
		LineBytes int           `json:"line_bytes"`
		Widths    []int         `json:"widths"`
	}{infoSchema, w, insns, LineBytes, FetchWidths()})
}

// hashDoc returns the lowercase-hex SHA-256 of the document's canonical
// JSON encoding.
func hashDoc(doc any) string {
	sum := sha256.Sum256(mustMarshal(doc))
	return hex.EncodeToString(sum[:])
}

// mustMarshal returns v's JSON encoding. Key documents contain only
// marshalable fields; a failure is a programming error.
func mustMarshal(v any) []byte {
	buf, err := json.Marshal(v)
	if err != nil {
		panic(err)
	}
	return buf
}

// DefaultStoreDir is where the CLIs keep the results store, relative to
// the working directory.
func DefaultStoreDir() string { return filepath.Join("results", "cells") }

// memoCells bounds a Store's memo of decoded cell counters. A full memo is
// cleared rather than evicted entry by entry: content keys never go stale,
// so the only cost of clearing is one disk decode per cell on its next hit,
// and at ~300 bytes an entry the bound caps the memo near 5MB.
const memoCells = 1 << 14

// Store is a content-addressed directory of cell values and JSON
// documents keyed by hex hashes. Concurrent writers of distinct keys are
// safe (each key is its own file, written via rename); two writers of the
// same key write the same content by construction. Cell counters read or
// written through LoadCounters and SaveCounters are memoized in process.
type Store struct {
	dir string

	mu   sync.Mutex // guards memo
	memo map[string]metrics.Counters
}

// OpenStore opens (creating if needed) a store rooted at dir, with an
// empty memo.
func OpenStore(dir string) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	return &Store{dir: dir, memo: make(map[string]metrics.Counters)}, nil
}

// Dir returns the store's root directory.
func (s *Store) Dir() string { return s.dir }

// path shards keys by their first byte to keep directories small. Cell
// files keep the .json name of the v1 schema, so a v2 save overwrites the
// v1 file of the same key in place.
func (s *Store) path(key string) string {
	return filepath.Join(s.dir, key[:2], key+".json")
}

// LoadCounters reads the counters of the cell stored under key into m. A
// missing cell, or a file that is not exactly a current-version cell value
// (decodeCell), reports (false, nil) and leaves m untouched: the store is
// a cache, so corruption and old schemas degrade to recomputation, never
// to an error. Any other read error — permissions, I/O — is returned. A
// hit is served from the memo when the key was decoded or saved before.
func (s *Store) LoadCounters(key string, m *metrics.Counters) (bool, error) {
	s.mu.Lock()
	c, ok := s.memo[key]
	s.mu.Unlock()
	if ok {
		*m = c
		return true, nil
	}
	var buf [cellValueLen + 1]byte
	n, err := s.readCell(key, buf[:])
	if err != nil || !decodeCell(buf[:n], &c) {
		return false, err // missing, corrupt or old-schema cell: a miss, overwritten later
	}
	s.remember(key, c)
	*m = c
	return true, nil
}

// readCell reads the cell file under key into buf, the caller's buffer of
// cellValueLen+1 bytes, and returns the byte count, 0 when there is no
// file. It costs an open, one read and a close: the read asks for one byte
// more than a current-version value, so a file of any other length reads
// at its own length (or cut to cellValueLen+1) and fails decodeCell.
func (s *Store) readCell(key string, buf []byte) (int, error) {
	f, err := os.Open(s.path(key))
	if err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			return 0, nil
		}
		return 0, err
	}
	defer f.Close()
	n, err := f.Read(buf)
	if err != nil && err != io.EOF {
		return 0, err
	}
	return n, nil
}

// SaveCounters writes m as the cell value under key, atomically replacing
// any previous file, and memoizes it.
func (s *Store) SaveCounters(key string, m *metrics.Counters) error {
	if err := s.write(key, encodeCell(m)); err != nil {
		return err
	}
	s.remember(key, *m)
	return nil
}

// remember memoizes a cell's counters, clearing the memo first when it
// holds memoCells cells.
func (s *Store) remember(key string, c metrics.Counters) {
	s.mu.Lock()
	if len(s.memo) >= memoCells {
		clear(s.memo)
	}
	s.memo[key] = c
	s.mu.Unlock()
}

// Load reads the JSON document stored under key into v. A missing or
// corrupt (undecodable) document reports (false, nil): the store is a
// cache, so corruption degrades to recomputation, never to an error. Any
// other read error — permissions, I/O — is returned. Cells go through
// LoadCounters instead; Load serves documents such as ProgramInfo.
func (s *Store) Load(key string, v any) (bool, error) {
	buf, err := os.ReadFile(s.path(key))
	if err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			return false, nil
		}
		return false, err
	}
	if err := json.Unmarshal(buf, v); err != nil {
		return false, nil // corrupt document: treat as a miss and overwrite
	}
	return true, nil
}

// Save writes v as a compact JSON document under key, atomically
// replacing any previous document.
func (s *Store) Save(key string, v any) error {
	buf, err := json.Marshal(v)
	if err != nil {
		return err
	}
	return s.write(key, append(buf, '\n'))
}

// write stores buf under key via a temporary file and a rename, so a
// reader sees the old file or the new one, never a partial write.
func (s *Store) write(key string, buf []byte) error {
	path := s.path(key)
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	tmp, err := os.CreateTemp(filepath.Dir(path), ".tmp-*")
	if err != nil {
		return err
	}
	if _, err := tmp.Write(buf); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	return os.Rename(tmp.Name(), path)
}
