// Benchmarks regenerating every table and figure of the paper. Each
// benchmark runs the corresponding experiment end-to-end (workload
// generation + simulation) and reports the headline numbers as custom
// metrics, so `go test -bench=. -benchmem` reproduces the evaluation:
//
//	BenchmarkTable1Stats    — Table 1, traced-program attributes
//	BenchmarkFig3Area       — Figure 3, RBE area costs
//	BenchmarkFig4NLSVariants— Figure 4, NLS-cache vs NLS-table BEP
//	BenchmarkFig5BTBvsNLS   — Figure 5, BTB vs 1024 NLS-table BEP
//	BenchmarkFig6AccessTime — Figure 6, BTB access times
//	BenchmarkFig7PerProgram — Figure 7, per-program BEP comparison
//	BenchmarkFig8CPI        — Figure 8, CPI
//	BenchmarkEngines/*      — raw simulation throughput per architecture
//
// `cmd/nlstables` prints the same experiments as full tables.
package repro_test

import (
	"fmt"
	"os"
	"runtime"
	"sync"
	"testing"

	"repro/internal/arch"
	"repro/internal/btb"
	"repro/internal/cache"
	"repro/internal/experiments"
	"repro/internal/fetch"
	"repro/internal/pht"
	"repro/internal/timing"
	"repro/internal/trace"
	"repro/internal/workload"
)

// benchInsns keeps the full benchmark suite fast enough to run in minutes;
// cmd/nlstables defaults to 2M for the reported EXPERIMENTS.md numbers.
const benchInsns = 300_000

func benchRunner() *experiments.Runner {
	return experiments.NewRunner(experiments.DefaultConfig(benchInsns))
}

// benchFigure runs one figure of the grid pipeline end-to-end (fresh
// runner, no store) and returns the runner, the figure, and the resolved
// result set.
func benchFigure(b *testing.B, name string) (*experiments.Runner, experiments.Figure, *experiments.ResultSet) {
	b.Helper()
	r := benchRunner()
	f, ok := experiments.FigureByName(name)
	if !ok {
		b.Fatalf("unknown figure %q", name)
	}
	rs, err := (&experiments.Executor{R: r}).Run(f)
	if err != nil {
		b.Fatal(err)
	}
	return r, f, rs
}

// benchAverages runs a figure and averages its rows over programs.
func benchAverages(b *testing.B, name string) []experiments.Average {
	b.Helper()
	r, f, rs := benchFigure(b, name)
	return experiments.Averages(rs.Rows(f.Grid), r.Cfg.Penalties)
}

func BenchmarkTable1Stats(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_, f, rs := benchFigure(b, "table1")
		out, _ := f.Render(rs.Context(f))
		if len(out) == 0 {
			b.Fatal("empty table")
		}
	}
}

func BenchmarkFig3Area(b *testing.B) {
	var last float64
	for i := 0; i < b.N; i++ {
		rows := experiments.Fig3()
		last = rows[len(rows)-1].RBE
	}
	b.ReportMetric(last, "rbe-last-row")
}

func BenchmarkFig4NLSVariants(b *testing.B) {
	for i := 0; i < b.N; i++ {
		avgs := benchAverages(b, "fig4")
		report(b, avgs, "1024 NLS-table", "16KB direct", "nls1024-bep")
		report(b, avgs, "NLS-cache", "16KB direct", "nlscache-bep")
	}
}

func BenchmarkFig5BTBvsNLS(b *testing.B) {
	for i := 0; i < b.N; i++ {
		avgs := benchAverages(b, "fig5")
		report(b, avgs, "128-entry direct BTB", "", "btb128-bep")
		report(b, avgs, "1024 NLS-table", "16KB direct", "nls1024-bep")
	}
}

func BenchmarkFig6AccessTime(b *testing.B) {
	var ns float64
	for i := 0; i < b.N; i++ {
		rows := experiments.Fig6()
		ns = rows[0].NS
	}
	b.ReportMetric(ns, "btb128-direct-ns")
	b.ReportMetric(timing.DirectRatio(128, 4), "assoc-ratio")
}

func BenchmarkFig7PerProgram(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, f, rs := benchFigure(b, "fig7")
		rows := rs.Rows(f.Grid)
		progs := map[string]bool{}
		for _, row := range rows {
			progs[row.Program] = true
		}
		if len(progs) != len(r.Cfg.Programs) {
			b.Fatalf("expected %d programs, got %d", len(r.Cfg.Programs), len(progs))
		}
	}
}

func BenchmarkFig8CPI(b *testing.B) {
	for i := 0; i < b.N; i++ {
		avgs := benchAverages(b, "fig8")
		for _, a := range avgs {
			if a.Arch == "1024 NLS-table" && a.Cache.String() == "16KB direct" {
				b.ReportMetric(a.CPI, "nls1024-cpi")
			}
		}
	}
}

func report(b *testing.B, avgs []experiments.Average, arch, cacheStr, metric string) {
	b.Helper()
	for _, a := range avgs {
		if a.Arch == arch && (cacheStr == "" || a.Cache.String() == cacheStr) {
			b.ReportMetric(a.BEP(), metric)
			return
		}
	}
	b.Fatalf("missing %s / %s", arch, cacheStr)
}

// BenchmarkEngines measures raw per-instruction simulation cost of each
// architecture on a shared gcc-analogue trace.
func BenchmarkEngines(b *testing.B) {
	tr := workload.Gcc().MustTrace(benchInsns)
	g := cache.MustGeometry(16*1024, 32, 1)
	newPHT := func() pht.Predictor { return pht.NewGShare(4096, 6) }
	engines := map[string]func() *fetch.Frontend{
		"NLSTable1024": func() *fetch.Frontend { return fetch.NewNLSTableEngine(g, 1024, newPHT(), 32) },
		"NLSCache":     func() *fetch.Frontend { return fetch.NewNLSCacheEngine(g, 2, newPHT(), 32) },
		"BTB128":       func() *fetch.Frontend { return fetch.NewBTBEngine(g, btb.Config{Entries: 128, Assoc: 1}, newPHT(), 32) },
		"Johnson":      func() *fetch.Frontend { return fetch.NewJohnsonEngine(g) },
	}
	for name, mk := range engines {
		b.Run(name, func(b *testing.B) {
			e := mk()
			b.ResetTimer()
			steps := 0
			for i := 0; i < b.N; i++ {
				e.Step(tr.Records[steps%len(tr.Records)])
				steps++
			}
		})
	}
}

// Sweep scheduler comparison: BenchmarkSweepBroadcast (a Grid run through
// the Executor, whose shared-replay broadcaster reads each trace once) vs
// BenchmarkSweepPerCell (the legacy scheduler: one full trace replay per
// cell). Both run the same 6-program × 4-architecture × 6-cache matrix on
// traces of sweepBenchInsns instructions and report replayed engine-steps
// as Mstep/s. The inputs are prepared once, outside the timers: Broadcast
// replays the matrix corpus attached to a shared runner, so it times the
// production warm path — corpus decode, per-chunk run annotation and
// replay — while PerCell steps whole traces generated up front. Names are
// benchstat-friendly:
//
//	go test -run='^$' -bench='BenchmarkSweep(Broadcast|PerCell)$' -benchmem .
const sweepBenchInsns = 2_000_000

var (
	sweepOnce   sync.Once
	sweepRunner *experiments.Runner
	sweepErr    error

	perCellOnce   sync.Once
	perCellTraces []*trace.Trace
	perCellErr    error
)

// sweepBench returns the shared runner, its matrix corpus attached, and
// the sweep matrix.
func sweepBench(b *testing.B) (*experiments.Runner, experiments.Grid) {
	b.Helper()
	sweepOnce.Do(func() {
		sweepRunner, sweepErr = corpusRunner(experiments.DefaultConfig(sweepBenchInsns))
	})
	if sweepErr != nil {
		b.Fatal(sweepErr)
	}
	caches := experiments.PaperCaches()
	g := experiments.Grid{Name: "sweep", Arms: []experiments.Arm{
		{Name: "NLS-cache", Spec: arch.NLSCache(experiments.NLSPerLine), Caches: caches},
		{Name: "1024 NLS-table", Spec: arch.NLSTable(1024), Caches: caches},
		{Name: "128-entry direct BTB", Spec: arch.BTB(128, 1), Caches: caches},
		{Name: "Johnson 1-bit", Spec: arch.Johnson(), Caches: caches},
	}}
	return sweepRunner, g
}

// runSweep runs g through a store-less Executor on r and returns its rows.
func runSweep(b *testing.B, r *experiments.Runner, g experiments.Grid) []experiments.Row {
	rs, err := (&experiments.Executor{R: r}).RunGrids(false, g)
	if err != nil {
		b.Fatal(err)
	}
	return rs.Rows(g)
}

// corpusRunner returns a runner over cfg with cfg's corpus built in a
// temporary directory and attached. The directory is removed before
// returning: the attached corpus holds its file open, and on unix an open
// file outlives its directory entry.
func corpusRunner(cfg experiments.Config) (*experiments.Runner, error) {
	dir, err := os.MkdirTemp("", "nls-bench-corpus-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	r := experiments.NewRunner(cfg)
	if _, err := r.UseCorpus(experiments.CorpusPath(dir, cfg)); err != nil {
		return nil, err
	}
	return r, nil
}

// reportSweepRate reports simulation throughput: every cell steps its full
// trace, regardless of how many times the records were *read*.
func reportSweepRate(b *testing.B, cells int) {
	steps := float64(cells) * float64(sweepBenchInsns) * float64(b.N)
	if s := b.Elapsed().Seconds(); s > 0 {
		b.ReportMetric(steps/s/1e6, "Mstep/s")
	}
}

func BenchmarkSweepBroadcast(b *testing.B) {
	r, g := sweepBench(b)
	b.ReportAllocs()
	b.ResetTimer()
	var cells int
	for i := 0; i < b.N; i++ {
		cells = len(runSweep(b, r, g))
	}
	b.StopTimer()
	reportSweepRate(b, cells)
}

func BenchmarkSweepPerCell(b *testing.B) {
	r, g := sweepBench(b)
	perCellOnce.Do(func() {
		perCellTraces = make([]*trace.Trace, len(r.Cfg.Programs))
		for i, p := range r.Cfg.Programs {
			if perCellTraces[i], perCellErr = p.Trace(r.Cfg.Insns); perCellErr != nil {
				return
			}
		}
	})
	if perCellErr != nil {
		b.Fatal(perCellErr)
	}
	traces := perCellTraces
	b.ReportAllocs()
	b.ResetTimer()
	var cells int
	for i := 0; i < b.N; i++ {
		// The legacy scheduler: every grid cell re-reads its program's
		// whole materialized trace through fetch.Run under a bounded
		// worker pool. This mirrors the per-cell oracle of the
		// experiments tests (sweepPerCell), which an external test
		// package cannot import, so the loop is kept here.
		cellList := g.Cells(r.Cfg.Programs)
		cpp := len(cellList) / len(traces)
		results := make([]experiments.Row, len(cellList))
		var wg sync.WaitGroup
		sem := make(chan struct{}, runtime.NumCPU())
		for idx, c := range cellList {
			wg.Add(1)
			sem <- struct{}{}
			go func(slot int, t *trace.Trace, c experiments.Cell) {
				defer wg.Done()
				defer func() { <-sem }()
				m := fetch.Run(c.Spec.MustBuild(), t)
				results[slot] = experiments.Row{Program: t.Name, Arch: c.Arm, Spec: c.Spec, M: *m}
			}(idx, traces[idx/cpp], c)
		}
		wg.Wait()
		cells = len(results)
	}
	b.StopTimer()
	reportSweepRate(b, cells)
}

// BenchmarkSweepCorpusReplay is BenchmarkSweepBroadcast for a fresh
// process replaying from the disk-backed trace corpus: every iteration
// starts a brand-new Runner that opens a pre-built corpus and decodes its
// traces instead of re-walking the CFG. Against a fresh Runner *without*
// the corpus, the difference is the generate-once/replay-many win; against
// BenchmarkSweepBroadcast, which replays an already attached corpus, the
// delta is the cost of opening and validating the corpus per run.
func BenchmarkSweepCorpusReplay(b *testing.B) {
	_, g := sweepBench(b)
	cfg := experiments.DefaultConfig(sweepBenchInsns)
	path := experiments.CorpusPath(b.TempDir(), cfg)
	{
		// Build the corpus once, outside the timer, from a throwaway
		// runner.
		r := experiments.NewRunner(cfg)
		if _, err := r.UseCorpus(path); err != nil {
			b.Fatal(err)
		}
		r.CloseCorpus()
	}
	b.ReportAllocs()
	b.ResetTimer()
	var cells int
	for i := 0; i < b.N; i++ {
		r := experiments.NewRunner(cfg)
		if _, err := r.UseCorpus(path); err != nil {
			b.Fatal(err)
		}
		cells = len(runSweep(b, r, g))
		r.CloseCorpus()
	}
	b.StopTimer()
	reportSweepRate(b, cells)
}

// BenchmarkCorpusDecode measures the streaming corpus decoder against
// BenchmarkTraceGeneration: the replay-many side of generate-once. Each
// block is released once counted, as replay releases it, so the decoder
// recycles its buffers exactly as on the production path.
func BenchmarkCorpusDecode(b *testing.B) {
	cfg := experiments.DefaultConfig(benchInsns)
	cfg.Programs = []workload.Spec{workload.Gcc()}
	path := experiments.CorpusPath(b.TempDir(), cfg)
	r := experiments.NewRunner(cfg)
	if _, err := r.UseCorpus(path); err != nil {
		b.Fatal(err)
	}
	r.CloseCorpus()
	c, err := trace.OpenCorpus(path)
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		src, err := c.ChunkSource(workload.Gcc().Name, trace.DefaultChunkRecords)
		if err != nil {
			b.Fatal(err)
		}
		n := 0
		for blk := src.NextChunk(); len(blk) > 0; blk = src.NextChunk() {
			n += len(blk)
			src.Release(blk)
		}
		if n != benchInsns {
			b.Fatalf("decoded %d records, want %d", n, benchInsns)
		}
	}
}

// BenchmarkTraceGeneration measures workload synthesis throughput.
func BenchmarkTraceGeneration(b *testing.B) {
	for _, spec := range []workload.Spec{workload.Doduc(), workload.Gcc()} {
		b.Run(spec.Name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				tr, err := spec.Trace(100_000)
				if err != nil {
					b.Fatal(err)
				}
				if tr.Len() != 100_000 {
					b.Fatal("short trace")
				}
			}
		})
	}
}

// BenchmarkTraceSerialization measures the binary trace format.
func BenchmarkTraceSerialization(b *testing.B) {
	tr := workload.Espresso().MustTrace(100_000)
	b.Run("write", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			var sink countWriter
			if err := trace.Write(&sink, tr); err != nil {
				b.Fatal(err)
			}
			b.SetBytes(int64(sink))
		}
	})
}

type countWriter int

func (c *countWriter) Write(p []byte) (int, error) {
	*c += countWriter(len(p))
	return len(p), nil
}

// Example of using the benchmark harness programmatically.
func Example() {
	rows := experiments.Fig6()
	fmt.Printf("128-entry direct BTB ≈ %.1f ns\n", rows[0].NS)
	// Output: 128-entry direct BTB ≈ 4.2 ns
}
