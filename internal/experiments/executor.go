package experiments

import (
	"fmt"
	"reflect"
	"sync"
	"time"

	"repro/internal/fetch"
	"repro/internal/metrics"
	"repro/internal/multiissue"
	"repro/internal/obs"
	"repro/internal/trace"
)

// Executor turns grids into results. It is the only code in the pipeline
// that simulates: it gathers every requested cell across all grids of a
// run, serves unchanged counter cells from the Store, partitions the rest
// and every probed cell by program, and replays each program's trace
// exactly once through fetch.Broadcast for all of that program's pending
// cells — so a full `nlstables` regeneration reads each trace one time no
// matter how many figures request overlapping cells.
type Executor struct {
	// R supplies the configuration and the per-program trace streams.
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
	// Progress, when non-nil, is called after each program of a run
	// finishes replaying, with a copy of the run's accounting so far.
	// Calls are serialized; the callback must not invoke the Executor.
	Progress func(RunStats)
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
	// opening and validating a corpus stream, or building the program a
	// generator stream walks), "replay" (the broadcast replay itself,
	// including drawing the blocks: a corpus stream's decode or a
	// generator stream's generation), "store-save" (persisting rows).
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
	// trace (a multiissue.BlockCounter at LineBytes lines).
	FetchBlocks map[int]uint64 `json:"fetch_blocks"`
}

// ResultSet holds a run's outcome: every unique cell's counters (by store
// key), every probed cell's attribution counts (by store key) and every
// program's ProgramInfo, plus the run's accounting (RunStats), which the
// run manifest, the progress callback and the CLIs' reports all view.
type ResultSet struct {
	cfg    Config
	cells  map[string]metrics.Counters
	probes map[string]obs.Table
	infos  map[string]*ProgramInfo
	// keyed and probed hold the run's counter and probed grids with the
	// cell keys derived at gather, which Rows and Context read back
	// instead of deriving them again.
	keyed, probed []KeyedGrid

	RunStats

	// Timings holds the engine wall time of every simulated cell (empty
	// for store-served cells), in completion order; it feeds the run
	// manifest.
	Timings []CellTiming

	// Stages holds the run's per-stage wall time (see StageSpan), in fixed
	// stage order.
	Stages []StageSpan
}

// CellTiming is the wall time one cell's engine spent replaying its
// program, as the broadcaster measured it (fetch.ReplayTime): 0 for a cell
// whose break metrics the broadcast echoed from an equal-invariant cell,
// and the time spent reading its table annotation for an NLS-table cell
// that read one.
type CellTiming struct {
	Program string  `json:"program"`
	Arch    string  `json:"arch"`
	Cache   string  `json:"cache"`
	Seconds float64 `json:"seconds"`
}

// Rows resolves a grid against the result set: one Row per grid cell, in
// cell order (program-major, arm-major, cache-minor), each labeled with
// the grid's own program and arm names. Two grids sharing a cell each see
// it under their own labels. A grid the run gathered reuses the keys
// derived then; any other grid is keyed afresh.
func (rs *ResultSet) Rows(g Grid) []Row {
	kg := rs.keyedFrom(rs.keyed, g)
	rows := make([]Row, len(kg.Cells))
	for i, c := range kg.Cells {
		rows[i] = Row{Program: c.Prog.Name, Arch: c.Arm, Spec: c.Spec, M: rs.cells[kg.Keys[i]]}
	}
	return rows
}

// probedCell is one cell of a probed grid and the counts its probe
// collected.
type probedCell struct {
	Cell
	tab obs.Table
}

// probedCells pairs every cell of g with its counts in the run, empty for
// a cell the run did not probe.
func (rs *ResultSet) probedCells(g Grid) []probedCell {
	kg := rs.keyedFrom(rs.probed, g)
	out := make([]probedCell, len(kg.Cells))
	for i, c := range kg.Cells {
		out[i] = probedCell{Cell: c, tab: rs.probes[kg.Keys[i]]}
	}
	return out
}

// keyedFrom returns the keyed form of g the run derived at gather, if g is
// one of grids (the run's counter or probed grids), and keys g afresh
// otherwise.
func (rs *ResultSet) keyedFrom(grids []KeyedGrid, g Grid) KeyedGrid {
	for _, kg := range grids {
		if reflect.DeepEqual(kg.Grid, g) {
			return kg
		}
	}
	return g.Keyed(rs.cfg)
}

// Info returns a program's replay-derived info, or nil when the run did
// not collect it.
func (rs *ResultSet) Info(program string) *ProgramInfo { return rs.infos[program] }

// Context resolves a figure against the result set, producing everything
// its renderer needs.
func (rs *ResultSet) Context(f Figure) RenderContext {
	ctx := RenderContext{Cfg: rs.cfg, Grid: f.Grid, Rows: rs.Rows(f.Grid)}
	if f.Probed != nil {
		ctx.probes = rs.probedCells(*f.Probed)
	}
	if f.NeedsInfo {
		ctx.Infos = make([]*ProgramInfo, len(rs.cfg.Programs))
		for i, p := range rs.cfg.Programs {
			ctx.Infos[i] = rs.infos[p.Name]
		}
	}
	return ctx
}

// Run executes the counter and probed grids of the given figures in one
// pass (shared cells simulated once, each program's trace read at most
// once) and returns the result set; render each figure with
// Executor.RenderFigure.
func (x *Executor) Run(figs ...Figure) (*ResultSet, error) {
	start := time.Now() // keying is part of the gather stage
	var grids, probed []KeyedGrid
	needInfo := false
	for _, f := range figs {
		grids = append(grids, f.Grid.Keyed(x.R.Cfg))
		if f.Probed != nil {
			probed = append(probed, f.Probed.Keyed(x.R.Cfg))
		}
		needInfo = needInfo || f.NeedsInfo
	}
	return x.run(start, needInfo, grids, probed)
}

// progWork is one program's share of a run: the counter cells not served
// by the store, the probed cells, and whether to collect ProgramInfo.
type progWork struct {
	cells, probed []Cell
	keys, pkeys   []string
	needInfo      bool
}

// RunGrids executes grids directly (Run without Figure metadata); needInfo
// requests per-program replay statistics.
func (x *Executor) RunGrids(needInfo bool, grids ...Grid) (*ResultSet, error) {
	start := time.Now() // keying is part of the gather stage
	keyed := make([]KeyedGrid, len(grids))
	for i, g := range grids {
		keyed[i] = g.Keyed(x.R.Cfg)
	}
	return x.run(start, needInfo, keyed, nil)
}

// RunKeyed is RunGrids over grids already keyed under the executor's
// Config (Grid.Keyed), for callers that derived the keys for their own use
// first.
func (x *Executor) RunKeyed(needInfo bool, grids ...KeyedGrid) (*ResultSet, error) {
	return x.run(time.Now(), needInfo, grids, nil)
}

// run executes keyed counter grids and probed grids (never stored);
// gatherStart opens the gather stage span.
func (x *Executor) run(gatherStart time.Time, needInfo bool, grids, probed []KeyedGrid) (*ResultSet, error) {
	r := x.R
	cfg := r.Cfg
	rs := &ResultSet{
		cfg:    cfg,
		cells:  make(map[string]metrics.Counters),
		probes: make(map[string]obs.Table),
		infos:  make(map[string]*ProgramInfo),
		keyed:  grids,
		probed: probed,
	}

	progIdx := make(map[string]int, len(cfg.Programs))
	for i, p := range cfg.Programs {
		progIdx[p.Name] = i
	}

	// Per-stage wall-time accumulators. gather is single-threaded; the
	// other three sum across the per-program goroutines under mu.
	var traceGenDur, replayDur, saveDur time.Duration

	// Gather the unique cells of the whole run, probing the store first.
	work := make([]progWork, len(cfg.Programs))
	seen := make(map[string]bool)
	for _, g := range grids {
		for ci, c := range g.Cells {
			k := g.Keys[ci]
			if seen[k] {
				rs.Deduped++
				continue
			}
			seen[k] = true
			rs.TotalCells++
			if x.Store != nil && !x.Force {
				var m metrics.Counters
				ok, err := x.Store.LoadCounters(k, &m)
				if err != nil {
					return nil, err
				}
				if ok {
					rs.cells[k] = m
					rs.Loaded++
					continue
				}
			}
			i := progIdx[c.Prog.Name]
			work[i].cells = append(work[i].cells, c)
			work[i].keys = append(work[i].keys, k)
		}
	}
	probedSeen := make(map[string]bool)
	for _, g := range probed {
		for ci, c := range g.Cells {
			if k := g.Keys[ci]; !probedSeen[k] {
				probedSeen[k] = true
				i := progIdx[c.Prog.Name]
				work[i].probed = append(work[i].probed, c)
				work[i].pkeys = append(work[i].pkeys, k)
			}
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
	var active []int
	for i := range work {
		if len(work[i].cells) > 0 || len(work[i].probed) > 0 || work[i].needInfo {
			active = append(active, i)
		}
	}

	// Traces are about to be needed: attach the corpus. A fully
	// store-served run skips this — it needs no trace, so it should not
	// build a corpus either.
	var corpusDur time.Duration
	if len(active) > 0 {
		d, err := x.attachCorpus()
		if err != nil {
			return nil, err
		}
		corpusDur = d
	}

	var mu sync.Mutex // guards rs and the stage accumulators
	err := forPrograms(active, func(i, perProg int) error {
		w := work[i]
		var (
			engines []*fetch.Frontend
			atts    []*obs.Attribution
			sc      *trace.StatsCollector
			bcs     []*multiissue.BlockCounter
			name    string
			n       int64
		)
		acquire, err := r.replayProgram(i, func(src replaySource) (int64, error) {
			name = src.Name
			// Counter engines first, then the probed ones: engines[j] is
			// w.cells[j] for j < len(w.cells).
			engines = make([]*fetch.Frontend, 0, len(w.cells)+len(w.probed))
			atts = make([]*obs.Attribution, len(w.probed))
			for j, c := range append(w.cells[:len(w.cells):len(w.cells)], w.probed...) {
				e, err := c.Spec.Build()
				if err != nil {
					return 0, fmt.Errorf("cell %s/%s: %w", c.Prog.Name, c.Arm, err)
				}
				if k := j - len(w.cells); k >= 0 {
					atts[k] = obs.NewAttribution()
					e.AttachProbe(atts[k])
				}
				engines = append(engines, e)
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
			return err
		}

		rows := make([]Row, len(w.cells))
		timings := make([]CellTiming, len(w.cells))
		for j, c := range w.cells {
			rows[j] = Row{Program: c.Prog.Name, Arch: c.Arm, Spec: c.Spec,
				M: *engines[j].Counters()}
			timings[j] = CellTiming{Program: c.Prog.Name, Arch: c.Arm,
				Cache: rows[j].Cache().String(), Seconds: fetch.ReplayTime(engines[j]).Seconds()}
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

		var save time.Duration
		if x.Store != nil {
			saveStart := time.Now()
			for j := range rows {
				if err := x.Store.SaveCounters(w.keys[j], &rows[j].M); err != nil {
					return err
				}
			}
			if info != nil {
				if err := x.Store.Save(infoKey(cfg.Programs[i], cfg.Insns), info); err != nil {
					return err
				}
			}
			save = time.Since(saveStart)
		}

		mu.Lock()
		defer mu.Unlock()
		saveDur += save
		for j := range rows {
			rs.cells[w.keys[j]] = rows[j].M
		}
		for j, att := range atts {
			rs.probes[w.pkeys[j]] = att.Table()
		}
		rs.Timings = append(rs.Timings, timings...)
		if info != nil {
			rs.infos[name] = info
		}
		rs.Simulated += len(rows)
		rs.Replays++
		rs.Records += n
		rs.Elapsed = time.Since(start)
		if x.Progress != nil {
			x.Progress(rs.RunStats) // mu held: calls are serialized
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	rs.Elapsed = time.Since(start)
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

// attachCorpus attaches (building if absent) the content-keyed corpus
// under CorpusDir, so replay decodes traces instead of generating them.
// It returns the "gen-corpus" stage's time, and does nothing without a
// CorpusDir.
func (x *Executor) attachCorpus() (time.Duration, error) {
	if x.CorpusDir == "" {
		return 0, nil
	}
	return x.R.UseCorpus(CorpusPath(x.CorpusDir, x.R.Cfg))
}

// forPrograms runs f for every program index in idx on the executor's
// bounded program pool: at most min(len(idx), maxParallel()) programs at a
// time, each handed the leftover parallelism budget as perProg — the
// worker bound for its broadcast. It returns the first error any call
// returned, once every call has finished.
func forPrograms(idx []int, f func(i, perProg int) error) error {
	budget := maxParallel()
	progPar := max(min(len(idx), budget), 1)
	perProg := max(budget/progPar, 1)
	var (
		wg       sync.WaitGroup
		sem      = make(chan struct{}, progPar)
		mu       sync.Mutex
		firstErr error
	)
	for _, i := range idx {
		wg.Add(1)
		sem <- struct{}{} // bound concurrency before spawning
		go func(i int) {
			defer wg.Done()
			defer func() { <-sem }()
			if err := f(i, perProg); err != nil {
				mu.Lock()
				if firstErr == nil {
					firstErr = err
				}
				mu.Unlock()
			}
		}(i)
	}
	wg.Wait()
	return firstErr
}

// RenderContext is everything a figure renderer may consume: the resolved
// rows of the figure's grid (program-major, arm-major, cache-minor), the
// run configuration, for NeedsInfo figures the per-program replay
// statistics, parallel to Cfg.Programs, and for figures with a Probed grid
// its cells' attribution counts (see Reports).
type RenderContext struct {
	Cfg    Config
	Grid   Grid
	Rows   []Row
	Infos  []*ProgramInfo
	probes []probedCell
}

// Reports builds the attribution report of every cell of the figure's
// Probed grid, in cell order, each labeled with the grid's own program and
// arm names and keeping the topN heaviest branches under Cfg.Penalties
// (all of them for topN <= 0).
func (c RenderContext) Reports(topN int) []obs.Report {
	out := make([]obs.Report, len(c.probes))
	for i, p := range c.probes {
		out[i] = p.tab.Report(p.Arm, p.Prog.Name, topN, c.Cfg.Penalties)
	}
	return out
}

// RankH2P ranks the dir-wrong branches of the Probed grid's cells base and
// alt, two arms on one program (obs.RankH2P), keeping the top n.
func (c RenderContext) RankH2P(base, alt, n int) obs.H2PRanking {
	b, a := c.probes[base], c.probes[alt]
	return obs.RankH2P(b.Prog.Name, b.Arm, a.Arm, b.tab, a.tab, n)
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
