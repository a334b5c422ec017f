// Package experiments reproduces every table and figure of the paper's
// evaluation — Table 1, Figures 3–8, and the repo's ablations — as one
// declarative pipeline: each experiment is a Grid (architecture arms ×
// cache geometries; the program axis comes from Config) plus a pure
// renderer over result Rows, a single Executor partitions every requested
// cell by program and replays each program's trace ONCE for all of them
// via fetch.Broadcast, and a content-addressed Store persists cells so
// unchanged ones are loaded instead of re-simulated across invocations.
// See DESIGN.md §9 for the layering and EXPERIMENTS.md for paper-vs-
// measured results.
package experiments

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/arch"
	"repro/internal/btb"
	"repro/internal/cache"
	"repro/internal/metrics"
	"repro/internal/ras"
	"repro/internal/trace"
	"repro/internal/workload"
)

// Paper-fixed parameters (§5.1): 32-byte lines, a 4096-entry gshare PHT and
// a 32-entry return stack for every architecture, 2 NLS predictors per line
// for the NLS-cache, and the three NLS-table sizes. The values live in
// package arch (the single source the named-spec registry is built from);
// the aliases keep this package's sweep matrix from drifting away from the
// registry. See arch.PHTHistoryBits for the gshare history calibration
// note.
const (
	LineBytes      = arch.LineBytes
	PHTEntries     = arch.PHTEntries
	RASDepth       = ras.DefaultDepth
	NLSPerLine     = arch.NLSPerLine
	PHTHistoryBits = arch.PHTHistoryBits
)

// NLSTableSizes are the NLS-table sizes the paper evaluates.
var NLSTableSizes = []int{512, 1024, 2048}

// CacheSizesKB are the instruction cache sizes the paper simulates.
var CacheSizesKB = []int{8, 16, 32}

// FetchWidths returns the fetch widths of the §8 multi-issue extension.
// The executor pre-counts fetch blocks for exactly these widths during the
// per-program replay, so the width renderer is pure arithmetic.
func FetchWidths() []int { return []int{1, 2, 4, 8} }

// PaperCaches returns the cache geometries of the paper's BEP figures:
// 8K/16K/32K, direct-mapped and 4-way.
func PaperCaches() []cache.Geometry {
	var gs []cache.Geometry
	for _, kb := range CacheSizesKB {
		for _, assoc := range []int{1, 4} {
			gs = append(gs, cache.MustGeometry(kb*1024, LineBytes, assoc))
		}
	}
	return gs
}

// BTBConfigs returns the paper's BTB organizations for the BEP figures
// (128 and 256 entries, direct-mapped and 4-way).
func BTBConfigs() []btb.Config {
	return []btb.Config{
		{Entries: 128, Assoc: 1},
		{Entries: 128, Assoc: 4},
		{Entries: 256, Assoc: 1},
		{Entries: 256, Assoc: 4},
	}
}

// Config drives a run: which programs, how many instructions each, and the
// penalty assumptions. The programs and the budget are part of every cell's
// store key; the penalties are not, since no engine reads them. They price
// the raw counters only when a figure or an attribution report is rendered.
type Config struct {
	Insns     int
	Programs  []workload.Spec
	Penalties metrics.Penalties
}

// DefaultConfig returns the paper's setup over all six analogues.
func DefaultConfig(insns int) Config {
	return Config{
		Insns:     insns,
		Programs:  workload.All(),
		Penalties: metrics.Default(),
	}
}

// Runner acquires the per-program traces for replay, lazily and
// independently per program: a warm-store run that needs no cell of some
// program never touches that program's trace. It never holds a whole
// trace: every replay streams its program chunk by chunk, from the
// attached corpus or from the workload's generator (Runner.source). It
// keeps no per-run state — a run's accounting lives in its ResultSet — so
// concurrent runs may share one Runner.
type Runner struct {
	Cfg Config

	// corpus, when attached by UseCorpus, serves program traces by
	// decoding instead of generating (corpus.go).
	corpusMu sync.Mutex
	corpus   *trace.Corpus
	// regenerated marks, per program, that its corpus entry failed
	// validation or broke mid-replay, so the program was generated
	// instead and later replays skip the entry.
	regenerated []atomic.Bool
}

// NewRunner builds a runner.
func NewRunner(cfg Config) *Runner {
	return &Runner{Cfg: cfg, regenerated: make([]atomic.Bool, len(cfg.Programs))}
}

// replaySource is one program's replay input, as acquired by
// Runner.source.
type replaySource struct {
	// Chunks yields the blocks.
	Chunks trace.ChunkSource
	// Name and StaticCondSites describe the program's trace (its
	// Table-1 header).
	Name            string
	StaticCondSites int
	// stream is the corpus decoder behind a corpus source, nil when the
	// source draws from the generator.
	stream *trace.PayloadChunks
}

// source is the runner's single trace-acquisition function for replay:
// the executor draws every program, for counter and probed cells alike,
// through replayProgram, which calls it. Either way the program arrives in
// DefaultChunkRecords blocks, recycled once released, so replay holds
// O(chunk) records however long the trace. With a corpus attached (a hit,
// or the one UseCorpus just built) it streams the program's payload,
// decoding each block as it is drawn; before handing the stream out it
// checks the payload checksum and that the payload header names the
// program at Cfg.Insns records. Without a corpus, or when the entry fails
// those checks or broke in an earlier replay, it streams the program from
// its generator (workload.Spec.Stream).
func (r *Runner) source(i int) (replaySource, error) {
	var src replaySource
	if c := r.attachedCorpus(); c != nil && !r.regenerated[i].Load() {
		name := r.Cfg.Programs[i].Name
		d, err := c.ChunkSource(name, trace.DefaultChunkRecords)
		if err == nil && d.Name == name && d.Len() == r.Cfg.Insns {
			src = replaySource{Chunks: d, Name: d.Name,
				StaticCondSites: d.StaticCondSites, stream: d}
		} else {
			r.regenerated[i].Store(true)
		}
	}
	if src.Chunks == nil {
		s, err := r.Cfg.Programs[i].Stream(r.Cfg.Insns)
		if err != nil {
			return replaySource{}, err
		}
		src = replaySource{Chunks: s, Name: s.Name, StaticCondSites: s.StaticCondSites}
	}
	return src, nil
}

// replayProgram acquires program i's trace through source and calls
// replay over it; replay builds its consumers (engines, probes,
// collectors) afresh on every call and returns how many records it drew.
// A corpus source is confirmed after replay: the decoder must report no
// error and replay must have drawn exactly Cfg.Insns records. If not, the
// first replay's results are discarded — replay is called again over a
// generator stream — so a bad corpus degrades to recomputation, never to
// an error or a wrong row. The returned duration is the time spent
// acquiring (the "trace-gen" stage): opening and validating a corpus
// stream, or building the program a generator stream walks; drawing the
// blocks — decoding or generating them — happens inside replay.
func (r *Runner) replayProgram(i int, replay func(src replaySource) (int64, error)) (time.Duration, error) {
	start := time.Now()
	src, err := r.source(i)
	acquire := time.Since(start)
	if err != nil {
		return acquire, err
	}
	n, err := replay(src)
	if err != nil || src.stream == nil || (src.stream.Err() == nil && n == int64(r.Cfg.Insns)) {
		return acquire, err
	}
	r.regenerated[i].Store(true)
	start = time.Now()
	src, err = r.source(i)
	acquire += time.Since(start)
	if err != nil {
		return acquire, err
	}
	_, err = replay(src)
	return acquire, err
}

// Row is the single result type of the pipeline: the outcome of one
// (program, architecture, cache) cell, carrying the complete declarative
// spec it was simulated under and the raw counters. It is what the store
// persists and what every renderer consumes; derived metrics (BEP, CPI,
// rates) are computed at render time from M and the penalties.
type Row struct {
	Program string           `json:"program"`
	Arch    string           `json:"arch"`
	Spec    arch.Spec        `json:"spec"`
	M       metrics.Counters `json:"counters"`
}

// Cache returns the row's cache geometry (from its spec).
func (r Row) Cache() cache.Geometry {
	return cache.MustGeometry(r.Spec.Cache.SizeBytes, r.Spec.Cache.LineBytes, r.Spec.Cache.Assoc)
}

func maxParallel() int {
	n := runtime.NumCPU()
	if n < 2 {
		n = 2
	}
	return n
}

// Average aggregates rows over programs: for each (arch, cache) pair the
// arithmetic means of the per-program BEP components and CPI inputs. Order
// follows first appearance.
type Average struct {
	Arch  string
	Cache cache.Geometry
	// Mean penalty components and rates over programs.
	MfBEP, MpBEP, CPI, MissRate float64
}

// BEP returns the average's total branch execution penalty.
func (a Average) BEP() float64 { return a.MfBEP + a.MpBEP }

// Averages computes per-(arch, cache) means over programs. Accumulation
// follows row order, so program-major rows reproduce the program-order
// float summation of the pre-grid drivers exactly.
func Averages(rows []Row, p metrics.Penalties) []Average {
	type key struct {
		arch  string
		cache arch.CacheSpec
	}
	order := []key{}
	sums := map[key]*Average{}
	counts := map[key]int{}
	for _, res := range rows {
		k := key{res.Arch, res.Spec.Cache}
		a, ok := sums[k]
		if !ok {
			a = &Average{Arch: res.Arch, Cache: res.Cache()}
			sums[k] = a
			order = append(order, k)
		}
		a.MfBEP += res.M.MisfetchBEP(p)
		a.MpBEP += res.M.MispredictBEP(p)
		a.CPI += res.M.CPI(p)
		a.MissRate += res.M.ICacheMissRate()
		counts[k]++
	}
	out := make([]Average, 0, len(order))
	for _, k := range order {
		a := sums[k]
		c := float64(counts[k])
		out = append(out, Average{
			Arch: a.Arch, Cache: a.Cache,
			MfBEP: a.MfBEP / c, MpBEP: a.MpBEP / c,
			CPI: a.CPI / c, MissRate: a.MissRate / c,
		})
	}
	return out
}
