package experiments

import (
	"crypto/sha256"
	"encoding"
	"encoding/hex"
	"encoding/json"
	"errors"
	"hash"
	"io/fs"
	"os"
	"path/filepath"
	"strconv"

	"repro/internal/metrics"
	"repro/internal/workload"
)

// The content-addressed results store. Every simulated grid cell is
// persisted as one JSON file named by the SHA-256 of everything its
// counters depend on — the workload spec (name, seed, generator
// parameters), the instruction budget, the complete arch.Spec (predictor
// sizing, cache geometry, PHT, RAS depth, pollution flag), and the penalty
// assumptions. A later run whose inputs are unchanged loads the cell
// instead of re-simulating it; any change to any input changes the key, so
// stale results can never be served (invalidation is structural, not
// tracked). Keys use the canonical-JSON convention of arch.Spec.Hash:
// encoding/json marshals struct fields in declaration order with
// deterministic formatting, and a deliberate schema change must not
// silently alias old cells — hence the version tag in each key document.
//
// A cell's key document is
//
//	{"schema":"nls-cell/v1","workload":W,"insns":N,"spec":S,"penalties":P}
//
// and it is never marshaled whole: W, S and P are marshaled on their own
// and concatenated (cellKeyer), so a grid marshals each program, arm point
// and penalty set once instead of once per cell (Grid.Keyed). The
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
// recalibration), so every old cell misses and is recomputed.
const cellSchema = "nls-cell/v1"

// infoSchema versions the per-program replay-derived info (Table-1 stats
// and fetch-block counts).
const infoSchema = "nls-info/v1"

// cellDocHead opens every cell key document, up to the workload value.
var cellDocHead = []byte(`{"schema":` + string(mustMarshal(cellSchema)) + `,"workload":`)

// cellKeyer derives cell keys from pre-marshaled fragments: the penalties
// once per keyer, the workload spec and budget once per program, and each
// cell's spec. The SHA-256 state after the program's prefix is saved, so a
// cell hashes only its spec and the penalties.
type cellKeyer struct {
	tail   []byte // `,"penalties":P}`
	h      hash.Hash
	prefix []byte // h's state after the current program's prefix
	sum    [sha256.Size]byte
}

func newCellKeyer(p metrics.Penalties) *cellKeyer {
	tail := append([]byte(`,"penalties":`), mustMarshal(p)...)
	return &cellKeyer{tail: append(tail, '}'), h: sha256.New()}
}

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
	k.h.Write(k.tail)
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

// Store is a content-addressed directory of JSON documents keyed by hex
// hashes. Concurrent writers of distinct keys are safe (each key is its
// own file, written via rename); two writers of the same key write the
// same content by construction.
type Store struct {
	dir string
}

// OpenStore opens (creating if needed) a store rooted at dir.
func OpenStore(dir string) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	return &Store{dir: dir}, nil
}

// Dir returns the store's root directory.
func (s *Store) Dir() string { return s.dir }

// path shards keys by their first byte to keep directories small.
func (s *Store) path(key string) string {
	return filepath.Join(s.dir, key[:2], key+".json")
}

// Load reads the document stored under key into v. A missing or corrupt
// (undecodable) document reports (false, nil): the store is a cache, so
// corruption degrades to recomputation, never to an error. Any other read
// error — permissions, I/O — is returned.
func (s *Store) Load(key string, v any) (bool, error) {
	buf, err := os.ReadFile(s.path(key))
	if err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			return false, nil
		}
		return false, err
	}
	if err := json.Unmarshal(buf, v); err != nil {
		return false, nil // corrupt cell: treat as a miss and overwrite
	}
	return true, nil
}

// staleCell reports that a loaded cell predates the icache_cold_misses
// schema extension. The first demand miss of any run is by definition
// compulsory, so ICacheMisses > 0 forces ICacheColdMisses >= 1 in every
// freshly simulated cell; a zero cold count next to a nonzero miss count
// can only mean the cell was serialized before the field existed. Detecting
// staleness from the invariant keeps the cell key schema — and with it
// every already-valid stored hash — unchanged.
func staleCell(m *metrics.Counters) bool {
	return m.ICacheMisses > 0 && m.ICacheColdMisses == 0
}

// Save writes v under key, atomically replacing any previous document.
func (s *Store) Save(key string, v any) error {
	path := s.path(key)
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	buf, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	tmp, err := os.CreateTemp(filepath.Dir(path), ".tmp-*")
	if err != nil {
		return err
	}
	if _, err := tmp.Write(append(buf, '\n')); err != nil {
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
