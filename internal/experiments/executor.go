package experiments

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/cache"
	"repro/internal/fetch"
	"repro/internal/multiissue"
	"repro/internal/trace"
)

// Executor turns grids into results. It is the only code in the pipeline
// that simulates: it gathers every requested cell across all grids of a
// run, serves unchanged cells from the Store, partitions the rest by
// program, and replays each program's trace exactly once through
// fetch.Broadcast for all of that program's pending cells — so a full
// `nlstables` regeneration reads each trace one time no matter how many
// figures request overlapping cells.
type Executor struct {
	// R supplies the configuration and the lazily generated traces.
	R *Runner
	// Store, when non-nil, serves unchanged cells and persists new ones.
	Store *Store
	// Force re-simulates (and overwrites) stored cells.
	Force bool
	// CorpusDir, when non-empty, enables the disk-backed trace corpus: a
	// run needing any trace attaches the content-keyed corpus under this
	// directory (CorpusPath), building it once if absent, so later runs
	// decode traces instead of regenerating them (corpus.go).
	CorpusDir string
	// Observer, when non-nil, receives one StageSpan per executor stage at
	// the end of each run — the seam the serve layer hangs its stage
	// histograms on. It is called from the goroutine that ran RunGrids,
	// after the replay pool has drained.
	Observer func(StageSpan)
}

// StageSpan is the wall time one executor stage consumed across a run,
// summed over the per-program goroutines where the stage is parallel. The
// spans feed both the run manifest (Stages) and, through
// Executor.Observer, the serve layer's metrics registry — the same
// measurement in both places, so they cannot disagree.
type StageSpan struct {
	// Stage is one of "gather" (cell enumeration and store probing),
	// "gen-corpus" (trace corpus build or open, 0 when no CorpusDir is
	// set or no trace was needed), "trace-gen" (trace acquisition:
	// workload generation and chunking, or — on a program streamed from
	// the corpus — opening and validating the stream), "replay" (the
	// broadcast replay itself, including a streamed program's decode),
	// "store-save" (persisting rows).
	Stage   string  `json:"stage"`
	Seconds float64 `json:"seconds"`
}

// NewExecutor builds an executor without a store.
func NewExecutor(cfg Config) *Executor { return &Executor{R: NewRunner(cfg)} }

// ProgramInfo is the per-program data derived from the replay pass itself
// rather than from any engine: the Table-1 trace statistics and the §8
// fetch-block counts for FetchWidths at LineBytes-sized lines. It is
// collected by teeing the broadcast's single trace read (trace.TeeChunks),
// so statistics cost no extra replay, and is stored content-addressed like
// cells.
type ProgramInfo struct {
	Program string `json:"program"`
	Insns   int    `json:"insns"`
	// Stats is the program's Table-1 row.
	Stats *trace.Stats `json:"stats"`
	// FetchBlocks maps fetch width to the W-wide fetch-cycle count of the
	// trace (multiissue.FetchBlocks at LineBytes lines).
	FetchBlocks map[int]uint64 `json:"fetch_blocks"`
}

// ResultSet holds a run's outcome: every unique cell's Row (by store key)
// and every program's ProgramInfo, plus accounting for the tests and the
// CLIs.
type ResultSet struct {
	cfg   Config
	rows  map[string]Row
	infos map[string]*ProgramInfo

	// Loaded counts cells served from the store, Simulated cells computed
	// this run, Replays program traces actually replayed (0 on a fully
	// warm run), and Deduped cell requests that were satisfied by another
	// grid's identical cell (same content key) within the same run.
	Loaded, Simulated, Replays, Deduped int

	// Timings holds the engine wall time of every simulated cell (empty
	// for store-served cells), in completion order; it feeds the run
	// manifest.
	Timings []CellTiming

	// Stages holds the run's per-stage wall time (see StageSpan), in fixed
	// stage order.
	Stages []StageSpan
}

// CellTiming is the wall time one cell's engine spent replaying its
// program, measured inside the broadcast worker that owned the engine.
type CellTiming struct {
	Program string  `json:"program"`
	Arch    string  `json:"arch"`
	Cache   string  `json:"cache"`
	Seconds float64 `json:"seconds"`
}

// Rows resolves a grid against the result set: one Row per grid cell, in
// cell order (program-major, arm-major, cache-minor), each labeled with
// the grid's own program and arm names. Two grids sharing a cell each see
// it under their own labels.
func (rs *ResultSet) Rows(g Grid) []Row {
	cells := g.cells(rs.cfg.Programs)
	rows := make([]Row, len(cells))
	for i, c := range cells {
		row := rs.rows[c.Key(rs.cfg)]
		row.Program, row.Arch, row.Spec = c.Prog.Name, c.Arm, c.Spec
		rows[i] = row
	}
	return rows
}

// Info returns a program's replay-derived info, or nil when the run did
// not collect it.
func (rs *ResultSet) Info(program string) *ProgramInfo { return rs.infos[program] }

// Context resolves a figure against the result set, producing everything
// its renderer needs.
func (rs *ResultSet) Context(f Figure) RenderContext {
	ctx := RenderContext{Cfg: rs.cfg, Grid: f.Grid, Rows: rs.Rows(f.Grid)}
	if f.NeedsInfo {
		ctx.Infos = make([]*ProgramInfo, len(rs.cfg.Programs))
		for i, p := range rs.cfg.Programs {
			ctx.Infos[i] = rs.infos[p.Name]
		}
	}
	return ctx
}

// Run executes the grids of the given figures in one pass (shared cells
// simulated once) and returns the result set; render each figure with
// Figure.Render(rs.Context(f)).
func (x *Executor) Run(figs ...Figure) (*ResultSet, error) {
	grids := make([]Grid, len(figs))
	needInfo := false
	for i, f := range figs {
		grids[i] = f.Grid
		needInfo = needInfo || f.NeedsInfo
	}
	return x.RunGrids(needInfo, grids...)
}

// progWork is one program's share of a run: the cells not served by the
// store, and whether the replay must also collect ProgramInfo.
type progWork struct {
	cells    []Cell
	keys     []string
	needInfo bool
}

// RunGrids executes grids directly (Run without Figure metadata); needInfo
// requests per-program replay statistics.
func (x *Executor) RunGrids(needInfo bool, grids ...Grid) (*ResultSet, error) {
	r := x.R
	cfg := r.Cfg
	rs := &ResultSet{
		cfg:   cfg,
		rows:  make(map[string]Row),
		infos: make(map[string]*ProgramInfo),
	}

	progIdx := make(map[string]int, len(cfg.Programs))
	for i, p := range cfg.Programs {
		progIdx[p.Name] = i
	}

	// Per-stage wall-time accumulators. gather is single-threaded; the
	// other three sum across the per-program goroutines under mu.
	gatherStart := time.Now()
	var traceGenDur, replayDur, saveDur time.Duration

	// Gather the unique cells of the whole run, probing the store first.
	work := make([]progWork, len(cfg.Programs))
	seen := make(map[string]bool)
	total := 0
	for _, g := range grids {
		for _, c := range g.cells(cfg.Programs) {
			k := c.Key(cfg)
			if seen[k] {
				rs.Deduped++
				continue
			}
			seen[k] = true
			total++
			if x.Store != nil && !x.Force {
				var row Row
				ok, err := x.Store.Load(k, &row)
				if err != nil {
					return nil, err
				}
				if ok && staleCell(&row.M) {
					// A cell written before icache_cold_misses existed
					// decodes the field as 0, which the invariant below
					// rules out for any run that missed at all. Age it
					// like a corrupt cell: recompute and overwrite.
					ok = false
				}
				if ok {
					rs.rows[k] = row
					rs.Loaded++
					continue
				}
			}
			i := progIdx[c.Prog.Name]
			work[i].cells = append(work[i].cells, c)
			work[i].keys = append(work[i].keys, k)
		}
	}
	if needInfo {
		for i, p := range cfg.Programs {
			if x.Store != nil && !x.Force {
				var info ProgramInfo
				ok, err := x.Store.Load(infoKey(p, cfg.Insns), &info)
				if err != nil {
					return nil, err
				}
				if ok {
					rs.infos[p.Name] = &info
					continue
				}
			}
			work[i].needInfo = true
		}
	}

	gatherDur := time.Since(gatherStart)

	start := time.Now()
	r.statsMu.Lock()
	r.stats = SweepStats{TotalCells: total, Cells: rs.Loaded, Loaded: rs.Loaded}
	r.statsMu.Unlock()

	var active []int
	for i := range work {
		if len(work[i].cells) > 0 || work[i].needInfo {
			active = append(active, i)
		}
	}

	// Traces are about to be needed: attach (building if absent) the
	// content-keyed corpus, so replay streams instead of generating. A
	// fully store-served run skips this — it needs no trace, so it should
	// not build a corpus either.
	var corpusDur time.Duration
	if x.CorpusDir != "" && len(active) > 0 {
		d, err := r.UseCorpus(CorpusPath(x.CorpusDir, cfg))
		if err != nil {
			return nil, err
		}
		corpusDur = d
	}

	// Same bounded-pool shape as the PR1 scheduler: at most progPar
	// program goroutines, the leftover parallelism budget going to each
	// broadcast's worker pool.
	budget := maxParallel()
	progPar := len(active)
	if progPar > budget {
		progPar = budget
	}
	if progPar < 1 {
		progPar = 1
	}
	perProg := budget / progPar
	if perProg < 1 {
		perProg = 1
	}

	var (
		wg       sync.WaitGroup
		sem      = make(chan struct{}, progPar)
		mu       sync.Mutex
		firstErr error
	)
	fail := func(err error) {
		mu.Lock()
		if firstErr == nil {
			firstErr = err
		}
		mu.Unlock()
	}
	for _, i := range active {
		wg.Add(1)
		sem <- struct{}{} // bound concurrency before spawning
		go func(i int) {
			defer wg.Done()
			defer func() { <-sem }()
			w := work[i]
			var (
				engines []fetch.Engine
				durs    []*time.Duration
				sc      *trace.StatsCollector
				bcs     []*multiissue.BlockCounter
				name    string
				n       int64
			)
			acquire, err := r.replayProgram(i, runLineBytes(w.cells), func(src replaySource) (int64, error) {
				name = src.Name
				engines = make([]fetch.Engine, len(w.cells))
				durs = make([]*time.Duration, len(w.cells))
				for j, c := range w.cells {
					e, err := c.Spec.Build()
					if err != nil {
						return 0, fmt.Errorf("cell %s/%s: %w", c.Prog.Name, c.Arm, err)
					}
					engines[j], durs[j] = timeEngine(e)
				}

				// Tee the single replay read into the statistics collectors.
				in := src.Chunks
				sc, bcs = nil, nil
				if w.needInfo {
					sc = trace.NewStatsCollector(src.Name, src.StaticCondSites)
					for _, width := range FetchWidths() {
						bc, err := multiissue.NewBlockCounter(multiissue.Config{
							Width: width, LineBytes: LineBytes,
						})
						if err != nil {
							return 0, err
						}
						bcs = append(bcs, bc)
					}
					in = trace.TeeChunks(in, func(recs []trace.Record) {
						sc.Add(recs)
						for _, bc := range bcs {
							bc.Add(recs)
						}
					})
				}

				replayStart := time.Now()
				n = 0
				if len(engines) > 0 {
					n = fetch.BroadcastWorkers(in, perProg, engines...)
				} else {
					// Info-only replay: every cell was served by the store
					// but the statistics were not; drain the trace through
					// the tee.
					for blk := in.NextChunk(); len(blk) > 0; blk = in.NextChunk() {
						n += int64(len(blk))
						in.Release(blk)
					}
				}
				mu.Lock()
				replayDur += time.Since(replayStart)
				mu.Unlock()
				return n, nil
			})
			mu.Lock()
			traceGenDur += acquire
			mu.Unlock()
			if err != nil {
				fail(err)
				return
			}

			rows := make([]Row, len(w.cells))
			timings := make([]CellTiming, len(w.cells))
			for j, c := range w.cells {
				rows[j] = Row{Program: c.Prog.Name, Arch: c.Arm, Spec: c.Spec,
					M: *engines[j].Counters()}
				timings[j] = CellTiming{Program: c.Prog.Name, Arch: c.Arm,
					Cache: rows[j].Cache().String(), Seconds: durs[j].Seconds()}
			}
			var info *ProgramInfo
			if w.needInfo {
				blocks := make(map[int]uint64, len(bcs))
				for _, bc := range bcs {
					blocks[bc.Width()] = bc.Blocks()
				}
				info = &ProgramInfo{Program: name, Insns: cfg.Insns,
					Stats: sc.Stats(), FetchBlocks: blocks}
			}

			mu.Lock()
			for j := range rows {
				rs.rows[w.keys[j]] = rows[j]
			}
			rs.Timings = append(rs.Timings, timings...)
			rs.Simulated += len(rows)
			if info != nil {
				rs.infos[name] = info
			}
			rs.Replays++
			mu.Unlock()

			if x.Store != nil {
				saveStart := time.Now()
				for j := range rows {
					if err := x.Store.Save(w.keys[j], rows[j]); err != nil {
						fail(err)
						return
					}
				}
				if info != nil {
					if err := x.Store.Save(infoKey(cfg.Programs[i], cfg.Insns), info); err != nil {
						fail(err)
						return
					}
				}
				mu.Lock()
				saveDur += time.Since(saveStart)
				mu.Unlock()
			}

			r.statsMu.Lock()
			r.stats.Cells += len(w.cells)
			r.stats.Records += n
			r.stats.Replays++
			r.stats.Elapsed = time.Since(start)
			if r.Progress != nil {
				r.Progress(r.stats) // statsMu held: calls are serialized
			}
			r.statsMu.Unlock()
		}(i)
	}
	wg.Wait()
	r.statsMu.Lock()
	r.stats.Elapsed = time.Since(start)
	r.statsMu.Unlock()
	if firstErr != nil {
		return nil, firstErr
	}
	rs.Stages = []StageSpan{
		{Stage: "gather", Seconds: gatherDur.Seconds()},
		{Stage: "gen-corpus", Seconds: corpusDur.Seconds()},
		{Stage: "trace-gen", Seconds: traceGenDur.Seconds()},
		{Stage: "replay", Seconds: replayDur.Seconds()},
		{Stage: "store-save", Seconds: saveDur.Seconds()},
	}
	if x.Observer != nil {
		for _, sp := range rs.Stages {
			x.Observer(sp)
		}
	}
	return rs, nil
}

// timedEngine wraps a cell's engine to meter the wall time spent stepping
// it. An engine is owned by exactly one worker for a whole replay
// (fetch.BroadcastWorkers), so dur needs no locking; time.Now is taken once
// per block (tens of thousands of records), so the meter is invisible next
// to the replay itself.
type timedEngine struct {
	fetch.Engine
	dur time.Duration
}

func (t *timedEngine) StepBlock(recs []trace.Record) {
	start := time.Now()
	t.Engine.StepBlock(recs)
	t.dur += time.Since(start)
}

// runFastPath mirrors the broadcaster's optional shared-run-annotation
// interface; the timing wrapper must forward it, or wrapping would silently
// demote every engine to the per-engine boundary-scan path.
type runFastPath interface {
	StepBlockRuns(recs []trace.Record, runs []uint8)
	ICache() *cache.Cache
}

// oracleFastPath mirrors the broadcaster's shared-fetch-oracle interface
// (DESIGN.md §11); like runFastPath, the timing wrapper must forward it or
// wrapped engines would silently lose oracle grouping and re-simulate
// their i-caches privately.
type oracleFastPath interface {
	StepBlockEvents(recs []trace.Record, ann *cache.AccessAnnotations)
	OracleGroup() (cache.Geometry, bool)
}

// timedRunEngine is timedEngine for engines that consume shared run
// annotations (all the built-in engines).
type timedRunEngine struct {
	timedEngine
	fast runFastPath
	orc  oracleFastPath // nil when the engine has no annotated path
}

func (t *timedRunEngine) StepBlockRuns(recs []trace.Record, runs []uint8) {
	start := time.Now()
	t.fast.StepBlockRuns(recs, runs)
	t.dur += time.Since(start)
}

func (t *timedRunEngine) ICache() *cache.Cache { return t.fast.ICache() }

func (t *timedRunEngine) StepBlockEvents(recs []trace.Record, ann *cache.AccessAnnotations) {
	start := time.Now()
	t.orc.StepBlockEvents(recs, ann)
	t.dur += time.Since(start)
}

// EchoFrontend forwards the broadcaster's echo-dedup hook (like
// runFastPath/oracleFastPath, the wrapper must forward it or wrapped
// engines would silently lose cross-geometry echoing); nil means the
// wrapped engine has no Frontend to echo.
func (t *timedRunEngine) EchoFrontend() *fetch.Frontend {
	if es, ok := t.Engine.(interface{ EchoFrontend() *fetch.Frontend }); ok {
		return es.EchoFrontend()
	}
	return nil
}

// OracleGroup forwards the wrapped engine's grouping key; an engine with
// no annotated path is simply never eligible. The meter only times the
// member-side annotated replay — the shared oracle's own simulation is
// broadcast overhead, attributed to no single cell.
func (t *timedRunEngine) OracleGroup() (cache.Geometry, bool) {
	if t.orc == nil {
		return cache.Geometry{}, false
	}
	return t.orc.OracleGroup()
}

// timeEngine wraps e with the timing meter matching its capabilities and
// returns the wrapped engine plus a pointer to its accumulated duration
// (valid to read once the replay's broadcast has returned).
func timeEngine(e fetch.Engine) (fetch.Engine, *time.Duration) {
	if f, ok := e.(runFastPath); ok {
		te := &timedRunEngine{timedEngine: timedEngine{Engine: e}, fast: f}
		te.orc, _ = e.(oracleFastPath)
		return te, &te.dur
	}
	te := &timedEngine{Engine: e}
	return te, &te.dur
}

// runLineBytes picks the run annotation for one program's broadcast
// (Runner.source): when every pending cell shares one line size (always
// true for the paper's 32-byte-line matrix), the blocks carry their
// same-line run annotations for it, so the run-boundary scan happens once
// per chunk instead of once per engine. Mixed line sizes fall back to
// plain blocks and per-engine scanning (0), as does an info-only replay
// (no engine consumes annotations).
func runLineBytes(cells []Cell) int {
	if len(cells) == 0 {
		return 0
	}
	lb := cells[0].Spec.Cache.LineBytes
	for _, c := range cells[1:] {
		if c.Spec.Cache.LineBytes != lb {
			return 0
		}
	}
	return lb
}

// RenderContext is everything a figure renderer may consume: the resolved
// rows of the figure's grid (program-major, arm-major, cache-minor), the
// run configuration, and — for NeedsInfo figures — the per-program replay
// statistics, parallel to Cfg.Programs.
type RenderContext struct {
	Cfg   Config
	Grid  Grid
	Rows  []Row
	Infos []*ProgramInfo
}

// ProgramRows returns the rows of program p (all arms, arm-major).
func (c RenderContext) ProgramRows(p int) []Row {
	cpp := c.Grid.cellsPerProgram()
	return c.Rows[p*cpp : (p+1)*cpp]
}

// ArmRows returns the rows of one arm across all programs, program-major
// (cache-minor within a program).
func (c RenderContext) ArmRows(arm int) []Row {
	cpp := c.Grid.cellsPerProgram()
	off, width := 0, 0
	for i, a := range c.Grid.Arms {
		w := len(a.Caches)
		if w == 0 {
			w = 1
		}
		if i < arm {
			off += w
		}
		if i == arm {
			width = w
		}
	}
	out := make([]Row, 0, len(c.Cfg.Programs)*width)
	for p := 0; p < len(c.Cfg.Programs); p++ {
		out = append(out, c.Rows[p*cpp+off:p*cpp+off+width]...)
	}
	return out
}
