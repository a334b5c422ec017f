package main

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"runtime/debug"
	"syscall"
	"time"

	"repro/internal/experiments"
	"repro/internal/metrics"
)

// usage is what one measured call cost the process.
type usage struct {
	wall    time.Duration
	alloc   uint64 // heap bytes allocated (MemStats.TotalAlloc delta)
	cpu     time.Duration
	gcs     uint32
	gcPause time.Duration
	peakRSS float64 // MB, VmHWM over the call
}

// cpuTime is the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// measure runs fn on a freshly collected heap whose free pages went back
// to the OS, as a new process would, and reports its cost. The process's
// resident-set high-water mark is reset first, so peakRSS is fn's own.
func measure(fn func() error) (usage, error) {
	debug.FreeOSMemory()
	if err := resetPeakRSS(); err != nil {
		return usage{}, err
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	c0 := cpuTime()
	start := time.Now()
	err := fn()
	wall := time.Since(start)
	c1 := cpuTime()
	runtime.ReadMemStats(&m1)
	rss, rssErr := peakRSSMB()
	if err == nil {
		err = rssErr
	}
	return usage{
		peakRSS: rss,
		wall:    wall,
		alloc:   m1.TotalAlloc - m0.TotalAlloc,
		cpu:     c1 - c0,
		gcs:     m1.NumGC - m0.NumGC,
		gcPause: time.Duration(m1.PauseTotalNs - m0.PauseTotalNs),
	}, err
}

// batch is one of the two batch workloads: paper-sweep (grids over a
// corpus built in set-up) or figures-cold (every figure, rendered, with
// empty store and corpus directories per pass).
type batch struct {
	name  string
	cfg   experiments.Config
	grids []experiments.Grid // the grids whose rows are checked
	// figs, when set, makes a pass a first `make figures`: Executor.Run
	// over every figure, then RenderFigure for each. Otherwise a pass is
	// Executor.RunGrids over grids.
	figs []experiments.Figure
	// corpus is the corpus directory every pass shares (paper-sweep);
	// empty gives each pass its own empty one.
	corpus string
	// probedCells counts the cells the probed figures simulate per pass.
	probedCells int
}

// passOut is one production pass.
type passOut struct {
	use    usage
	rs     *experiments.ResultSet
	rows   map[string]metrics.Counters
	texts  map[string]string
	stages map[string]float64 // from Executor.Observer
	render time.Duration      // grid figures
	probed time.Duration      // probed figures
}

// steps is the pass's simulated engine-steps: simulated cells times the
// per-program budget.
func (b *batch) steps(p passOut) float64 {
	return float64(p.rs.Simulated+b.probedCells) * float64(b.cfg.Insns)
}

// prepare creates a pass's empty store under dir and, unless the passes
// share the set-up's corpus, its empty corpus directory.
func (b *batch) prepare(dir string) (*experiments.Store, string, error) {
	st, err := experiments.OpenStore(filepath.Join(dir, "cells"))
	if err != nil {
		return nil, "", err
	}
	if b.corpus != "" {
		return st, b.corpus, nil
	}
	corpus := filepath.Join(dir, "corpus")
	return st, corpus, os.MkdirAll(corpus, 0o755)
}

// pass runs one production pass in a fresh directory under dir.
func (b *batch) pass(dir string) (passOut, error) {
	var p passOut
	st, corpusDir, err := b.prepare(dir)
	if err != nil {
		return p, err
	}
	p.stages = map[string]float64{}
	x := &experiments.Executor{R: experiments.NewRunner(b.cfg), Store: st, CorpusDir: corpusDir,
		Observer: func(s experiments.StageSpan) { p.stages[s.Stage] += s.Seconds }}
	defer x.R.CloseCorpus()
	p.texts = map[string]string{}
	p.use, err = measure(func() error {
		var err error
		if b.figs == nil {
			p.rs, err = x.RunGrids(false, b.grids...)
			return err
		}
		if p.rs, err = x.Run(b.figs...); err != nil {
			return err
		}
		for _, f := range b.figs {
			t0 := time.Now()
			text, _, err := x.RenderFigure(f, p.rs)
			if err != nil {
				return fmt.Errorf("render %s: %w", f.Name, err)
			}
			if f.Probed != nil {
				p.probed += time.Since(t0)
			} else {
				p.render += time.Since(t0)
			}
			p.texts[f.Name] = text
		}
		return nil
	})
	if err != nil {
		return p, err
	}
	p.rows = cellRows(p.rs, b.cfg, b.grids)
	return p, nil
}

// check compares one pass with the warm-up pass cell by cell and figure
// by figure, and its sampled cells with the per-record reference.
func (b *batch) check(rep *report, what string, base, p passOut, ref map[string]metrics.Counters) {
	compareRows(rep, what, base.rows, p.rows)
	compareRows(rep, what+" vs per-record reference", ref, p.rows)
	rep.attempt(len(base.texts))
	for name, text := range base.texts {
		if p.texts[name] != text {
			rep.fail("%s: figure %s renders differently", what, name)
		}
	}
}

// run executes the workload: an untimed warm-up pass, then timed passes
// for o.seconds (at least o.minPasses), or, with o.trace, the traced run.
func (b *batch) run(o options, rep *report, setups []float64, work string) error {
	passDir := func(n int) string { return filepath.Join(work, fmt.Sprintf("pass-%d", n)) }
	base, err := b.pass(passDir(0))
	if err != nil {
		return err
	}
	os.RemoveAll(passDir(0))
	cells, _ := uniqueCells(b.cfg, b.grids)
	ref, err := referenceRows(b.cfg, referenceSample(cells, o.seed))
	if err != nil {
		return err
	}
	compareRows(rep, "warm-up pass vs per-record reference", ref, base.rows)
	// The digest names the rows across processes and commits: a seed's
	// digest changes only when some counter does.
	fmt.Printf("rows %s (%d cells)\n", rowsDigest(base.rows), len(base.rows))

	if o.trace {
		return b.traced(o, rep, base, ref, work)
	}

	var raw, refs, rates, allocs, rss []float64
	start := time.Now()
	for n := 1; n <= o.minPasses || time.Since(start).Seconds() < o.seconds; n++ {
		host := o.ref.rate()
		p, err := b.pass(passDir(n))
		if err != nil {
			return err
		}
		os.RemoveAll(passDir(n))
		raw = append(raw, b.steps(p)/p.use.wall.Seconds()/1e6)
		refs = append(refs, host)
		rates = append(rates, raw[len(raw)-1]*refNominal/host)
		fmt.Fprintf(os.Stderr, "%s pass %d: %.3fs, %.1f Mstep/s (reference %.1f Mrec/s), %.1f MB allocated, %.1f MB peak RSS\n",
			b.name, n, p.use.wall.Seconds(), raw[len(raw)-1], host, mb(p.use.alloc), p.use.peakRSS)
		allocs = append(allocs, mb(p.use.alloc))
		rss = append(rss, p.use.peakRSS)
		b.check(rep, fmt.Sprintf("pass %d", n), base, p, ref)
	}
	rep.add("setup_s", median(setups), "s")
	rep.add("mstep_per_s", median(rates), "Mstep/s")
	rep.add("peak_rss_mb", median(rss), "MB")
	rep.add("alloc_mb", median(allocs), "MB")
	rep.add("mstep_per_s_raw", median(raw), "Mstep/s")
	rep.add("host_ref", median(refs), "Mrec/s")
	rep.add("passes", float64(len(rates)), "count")
	return nil
}

// traced is the --trace 1 run of a batch workload: three untraced
// production passes (the last one's stage spans, timings and counts are
// reported), then the ledger restating that pass layer by layer, then the
// per-layer diagnostics.
func (b *batch) traced(o options, rep *report, base passOut, ref map[string]metrics.Counters, work string) error {
	var walls []float64
	var prod passOut
	for n := 1; n <= 3; n++ {
		dir := filepath.Join(work, fmt.Sprintf("traced-pass-%d", n))
		p, err := b.pass(dir)
		if err != nil {
			return err
		}
		os.RemoveAll(dir)
		b.check(rep, fmt.Sprintf("traced pass %d", n), base, p, ref)
		walls = append(walls, p.use.wall.Seconds())
		prod = p
	}

	t := newTracer(fmt.Sprintf("%s-seed%d-%d", b.name, o.seed, time.Now().UnixNano()))
	in := ledgerInput{cfg: b.cfg, grids: b.grids, needInfo: b.figs != nil, figs: b.figs, rs: prod.rs,
		dir: filepath.Join(work, "ledger")}
	if b.corpus != "" {
		in.corpus = experiments.CorpusPath(b.corpus, b.cfg)
	}
	lo, err := runLedger(t, in)
	if err != nil {
		return fmt.Errorf("ledger: %w", err)
	}
	compareRows(rep, "ledger vs production", prod.rows, lo.rows)
	rep.attempt(len(prod.texts))
	for name, text := range prod.texts {
		if lo.texts[name] != text {
			rep.fail("ledger: figure %s renders differently from production", name)
		}
	}
	if in.needInfo {
		rep.attempt(len(b.cfg.Programs))
		for _, p := range b.cfg.Programs {
			if !reflect.DeepEqual(prod.rs.Info(p.Name), lo.infos[p.Name]) {
				rep.fail("ledger: program %s info differs from production", p.Name)
			}
		}
	}

	d, err := runDiagnostics(t, rep, b.cfg, lo, filepath.Join(work, "diagnostics"))
	if err != nil {
		return fmt.Errorf("diagnostics: %w", err)
	}

	var busy float64
	for _, tm := range prod.rs.Timings {
		busy += tm.Seconds
	}
	ps := prodStats{
		stages:    prod.stages,
		simulated: prod.rs.Simulated, loaded: prod.rs.Loaded, deduped: prod.rs.Deduped, replays: prod.rs.Replays,
		steps: b.steps(prod), busy: busy, unattributed: prod.stages["replay"] - busy,
		use: prod.use, cpu: prod.use.cpu, cpuWall: prod.use.wall, medianWall: median(walls),
	}
	addLayerMetrics(rep, t, lo, d, ps)
	if b.figs != nil {
		rep.add("experiments.render_s", prod.render.Seconds(), "s")
		rep.add("experiments.probed_s", prod.probed.Seconds(), "s")
	}
	return t.write(filepath.Join(o.outDir, fmt.Sprintf("spans-%s-seed%d.json", b.name, o.seed)), rep.metrics)
}

// prodStats is what the traced run's production side measured: the
// executor's stage spans, result counts and engine time, and the cost of
// the pass.
type prodStats struct {
	stages                              map[string]float64
	simulated, loaded, deduped, replays int
	steps, busy                         float64
	unattributed                        float64 // replay stage time no cell's engine owns
	use                                 usage
	// cpu is the process CPU time the CPU share counts, over cpuWall.
	cpu, cpuWall time.Duration
	medianWall   float64 // untraced median pass
}

// addLayerMetrics records every per-layer metric from the spans, the
// diagnostics counts and the production side.
func addLayerMetrics(rep *report, t *tracer, lo ledgerOutput, d diagOutput, ps prodStats) {
	ledger := t.selfTimes(lo.rootID)
	diag := t.selfTimes(d.rootID)
	layer := func(name string) float64 {
		if v, ok := ledger[name]; ok {
			return v
		}
		return diag[name]
	}
	records := lo.records
	if records == 0 {
		records = d.genRecords
	}
	rep.add("workload.gen_s", layer("workload.gen"), "s")
	rep.add("workload.records", float64(records), "count")
	rep.add("trace.corpus_write_s", layer("trace.corpus_write"), "s")
	rep.add("trace.corpus_mb", mb(uint64(d.corpusBytes)), "MB")
	rep.add("trace.decode_s", layer("trace.decode"), "s")
	rep.add("trace.decode_alloc_mb", mb(d.decodeAlloc), "MB")
	rep.add("trace.chunk_s", ledger["trace.chunk"], "s")
	rep.add("cache.annotate_dm_s", diag["cache.annotate_dm"], "s")
	rep.add("cache.annotate_4way_s", diag["cache.annotate_4way"], "s")
	rep.add("cache.oracle_accesses", float64(d.oracleAccesses), "count")
	rep.add("cache.oracle_misses", float64(d.oracleMisses), "count")
	rep.add("cache.events", float64(d.events), "count")
	rep.add("cache.event_ratio", float64(d.events)/float64(d.oracleAccesses), "ratio")
	rep.add("fetch.replay_s", ledger["fetch.replay"], "s")
	for _, k := range paperKinds {
		rep.add(k.metric, diag[k.metric], "s")
	}
	rep.add("fetch.private_replay_s", diag["fetch.private_replay"], "s")
	rep.add("fetch.engine_steps", ps.steps, "count")
	rep.add("fetch.engine_busy_s", ps.busy, "s")
	rep.add("fetch.unattributed_s", ps.unattributed, "s")
	rep.add("experiments.gather_s", ps.stages["gather"], "s")
	rep.add("experiments.gen_corpus_s", ps.stages["gen-corpus"], "s")
	rep.add("experiments.trace_gen_s", ps.stages["trace-gen"], "s")
	rep.add("experiments.replay_s", ps.stages["replay"], "s")
	rep.add("experiments.store_save_s", ps.stages["store-save"], "s")
	rep.add("experiments.cells_simulated", float64(ps.simulated), "count")
	rep.add("experiments.cells_loaded", float64(ps.loaded), "count")
	rep.add("experiments.cells_deduped", float64(ps.deduped), "count")
	rep.add("experiments.replays", float64(ps.replays), "count")
	rep.add("experiments.store_save_ms", ledger["experiments.store_save"]/float64(lo.saved)*1e3, "ms")
	rep.add("experiments.store_load_ms", diag["experiments.store_load"]/float64(d.loaded)*1e3, "ms")
	rep.add("experiments.cpu_util", ps.cpu.Seconds()/(ps.cpuWall.Seconds()*float64(runtime.GOMAXPROCS(0))), "ratio")
	rep.add("runtime.gc_cycles", float64(ps.use.gcs), "count")
	rep.add("runtime.gc_pause_ms", float64(ps.use.gcPause)/1e6, "ms")
	rep.add("ledger.coverage", t.coverage(lo.rootID), "ratio")
	rep.add("ledger.trace_overhead", t.spans[lo.rootID-1].dur()/ps.medianWall, "ratio")
}
