package serve

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"

	"repro/internal/experiments"
	"repro/internal/metrics"
	"repro/internal/workload"
)

// Wire-format schemas. JobSchema tags a request document (optional on the
// wire but rejected when it names anything else); ResultSchema tags the
// response; flightSchema versions the single-flight key derivation, so a
// change to what a flight covers can never alias an old key.
const (
	JobSchema    = "nls-job/v1"
	ResultSchema = "nls-result/v1"
	flightSchema = "nls-flight/v1"
)

// Job is the request document of POST /v1/jobs: an experiments.Grid (the
// same declarative form the figure pipeline runs, reusing the arch.Spec
// and cache.Geometry JSON), the built-in programs to sweep it over, the
// per-program instruction budget, and optionally non-default penalties.
// Everything in a Job is untrusted: DecodeJob validates it completely
// before anything is allocated or scheduled from it.
type Job struct {
	Schema string `json:"schema,omitempty"`
	// Insns is the per-program instruction budget (bounded by Limits).
	Insns int `json:"insns"`
	// Programs names built-in workload analogues ("li", "gcc-like", ...);
	// empty means all six of Table 1.
	Programs []string `json:"programs,omitempty"`
	// Penalties overrides the paper's penalty assumptions (part of every
	// cell's content key); nil means metrics.Default().
	Penalties *metrics.Penalties `json:"penalties,omitempty"`
	// Grid declares the architecture arms × cache geometries to simulate.
	Grid experiments.Grid `json:"grid"`
}

// Limits bounds what an untrusted job may ask for.
type Limits struct {
	// MaxBodyBytes bounds the request document size.
	MaxBodyBytes int64
	// MaxInsns bounds the per-program instruction budget.
	MaxInsns int
	// MaxCells bounds the cell count of one job (programs × arm points).
	MaxCells int
}

// DefaultLimits returns the service defaults: 1MB bodies, 20M instructions
// per program, 4096 cells per job.
func DefaultLimits() Limits {
	return Limits{MaxBodyBytes: 1 << 20, MaxInsns: 20_000_000, MaxCells: 4096}
}

// withDefaults fills zero fields.
func (l Limits) withDefaults() Limits {
	d := DefaultLimits()
	if l.MaxBodyBytes <= 0 {
		l.MaxBodyBytes = d.MaxBodyBytes
	}
	if l.MaxInsns <= 0 {
		l.MaxInsns = d.MaxInsns
	}
	if l.MaxCells <= 0 {
		l.MaxCells = d.MaxCells
	}
	return l
}

// CompiledJob is a fully validated job, ready to schedule: the executor
// configuration and grid, plus the flight key identifying the job's exact
// content (see jobKey).
type CompiledJob struct {
	Cfg  experiments.Config
	Grid experiments.Grid
	// Key is the single-flight key: a hash over the content-addressed
	// store keys of every cell the job resolves to, plus the presentation
	// labels the response carries. Two requests with equal keys produce
	// byte-identical response bodies by construction.
	Key string
	// Cells is the number of grid cells the job resolves to.
	Cells int
	// keyed is the grid's cells with the store keys the flight key was
	// derived from; the run gathers from them instead of keying again.
	keyed experiments.KeyedGrid
}

// Result is the response document of POST /v1/jobs. It is deliberately a
// pure function of the job's content — no timestamps, no store accounting
// (that varies between a cold and a warm run and lives in response headers
// and /statsz instead) — so a warm re-request is byte-identical to the
// cold response it deduplicates.
type Result struct {
	Schema string            `json:"schema"`
	Key    string            `json:"key"`
	Insns  int               `json:"insns"`
	Rows   []experiments.Row `json:"rows"`
}

// DecodeJob reads, decodes, and validates one job document from r under
// the given limits. The reader is hard-capped at MaxBodyBytes, unknown
// fields are rejected, and every geometry and spec is validated before
// return — a CompiledJob can always be built and run without panicking,
// and nothing is allocated whose size an unvalidated field chose.
func DecodeJob(r io.Reader, lim Limits) (*CompiledJob, error) {
	lim = lim.withDefaults()
	// Read one byte past the cap so an oversized body is distinguishable
	// from one that exactly fits; an outer http.MaxBytesReader (if any)
	// fires first and its error propagates for the 413 mapping.
	body, err := io.ReadAll(io.LimitReader(r, lim.MaxBodyBytes+1))
	if err != nil {
		return nil, fmt.Errorf("serve: bad job document: %w", err)
	}
	if int64(len(body)) > lim.MaxBodyBytes {
		return nil, fmt.Errorf("serve: job document exceeds the %d-byte cap", lim.MaxBodyBytes)
	}
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	var j Job
	if err := dec.Decode(&j); err != nil {
		return nil, fmt.Errorf("serve: bad job document: %w", err)
	}
	// Only whitespace may follow the document. dec.More would miss a stray
	// closing bracket, which it treats as the end of an enclosing value.
	if _, err := dec.Token(); err != io.EOF {
		return nil, fmt.Errorf("serve: trailing data after the job document")
	}
	return CompileJob(j, lim)
}

// CompileJob validates a decoded job and resolves it to an executor
// configuration, grid, and flight key.
func CompileJob(j Job, lim Limits) (*CompiledJob, error) {
	lim = lim.withDefaults()
	if j.Schema != "" && j.Schema != JobSchema {
		return nil, fmt.Errorf("serve: job schema %q, want %q", j.Schema, JobSchema)
	}
	if j.Insns <= 0 || j.Insns > lim.MaxInsns {
		return nil, fmt.Errorf("serve: insns %d out of range [1, %d]", j.Insns, lim.MaxInsns)
	}

	programs, err := resolvePrograms(j.Programs)
	if err != nil {
		return nil, err
	}

	pen := metrics.Default()
	if j.Penalties != nil {
		pen = *j.Penalties
		if pen.Misfetch < 0 || pen.Mispredict < 0 || pen.CacheMiss < 0 {
			return nil, fmt.Errorf("serve: penalties must be non-negative: %+v", pen)
		}
	}

	if len(j.Grid.Arms) == 0 {
		return nil, fmt.Errorf("serve: job grid has no arms")
	}
	// Bound the cell count arithmetically BEFORE expanding the cell list,
	// so an adversarial arms×caches product never sizes an allocation.
	perProgram := 0
	for i, a := range j.Grid.Arms {
		if a.Name == "" {
			return nil, fmt.Errorf("serve: grid arm %d has no name", i)
		}
		points := len(a.Caches)
		if points == 0 {
			points = 1
		}
		perProgram += points
		if perProgram > lim.MaxCells {
			return nil, fmt.Errorf("serve: job exceeds the %d-cell cap", lim.MaxCells)
		}
		// Validate the spec on every geometry it will be instantiated on;
		// the geometries themselves were validated by cache.Geometry's
		// UnmarshalJSON at decode time.
		if len(a.Caches) == 0 {
			if err := a.Spec.Validate(); err != nil {
				return nil, fmt.Errorf("serve: arm %q: %w", a.Name, err)
			}
		}
		for _, g := range a.Caches {
			if err := a.Spec.WithGeometry(g).Validate(); err != nil {
				return nil, fmt.Errorf("serve: arm %q on %s: %w", a.Name, g, err)
			}
		}
	}
	total := perProgram * len(programs)
	if total > lim.MaxCells {
		return nil, fmt.Errorf("serve: job resolves to %d cells, cap is %d", total, lim.MaxCells)
	}

	cfg := experiments.Config{Insns: j.Insns, Programs: programs, Penalties: pen}
	kg := j.Grid.Keyed(cfg)
	return &CompiledJob{
		Cfg:   cfg,
		Grid:  j.Grid,
		Key:   jobKey(cfg.Insns, kg),
		Cells: len(kg.Cells),
		keyed: kg,
	}, nil
}

// resolvePrograms maps workload names to built-in specs; empty means all
// six analogues. Unknown names and duplicates are rejected (a duplicate
// would double-count rows while simulating once — surprising, so illegal).
func resolvePrograms(names []string) ([]workload.Spec, error) {
	if len(names) == 0 {
		return workload.All(), nil
	}
	out := make([]workload.Spec, 0, len(names))
	seen := make(map[string]bool, len(names))
	for _, n := range names {
		s, ok := workload.ByName(n)
		if !ok {
			return nil, fmt.Errorf("serve: unknown program %q", n)
		}
		if seen[s.Name] {
			return nil, fmt.Errorf("serve: duplicate program %q", n)
		}
		seen[s.Name] = true
		out = append(out, s)
	}
	return out, nil
}

// jobKey derives the single-flight key of a compiled job from the content
// keys of its cells (Grid.Keyed). Each cell key is the content-addressed
// store key — the SHA-256 over workload, budget, complete spec, and
// penalties — so the flight key covers exactly what the response body
// depends on: the cell contents plus the (program, arm) labels the rows are
// presented under, in grid order. A one-cell job's flight key is therefore a pure function of
// that cell's content hash and its labels.
func jobKey(insns int, kg experiments.KeyedGrid) string {
	type cellDoc struct {
		Program string `json:"program"`
		Arm     string `json:"arm"`
		Key     string `json:"key"`
	}
	docs := make([]cellDoc, len(kg.Cells))
	for i, c := range kg.Cells {
		docs[i] = cellDoc{Program: c.Prog.Name, Arm: c.Arm, Key: kg.Keys[i]}
	}
	doc := struct {
		Schema string    `json:"schema"`
		Insns  int       `json:"insns"`
		Cells  []cellDoc `json:"cells"`
	}{flightSchema, insns, docs}
	buf, err := json.Marshal(doc)
	if err != nil {
		// The document contains only strings and ints; reaching this is a
		// programming error.
		panic(err)
	}
	sum := sha256.Sum256(buf)
	return hex.EncodeToString(sum[:])
}
