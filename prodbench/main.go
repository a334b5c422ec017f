// Command prodbench is the repository's production-path benchmark. It
// drives the entry points a user reaches — experiments.Executor with its
// store and trace corpus, Figure rendering, and the nlsserve handler —
// from outside, checks every output against the per-record reference, and
// prints each metric by name with its unit, then one JSON result line.
//
// Usage:
//
//	prodbench --workload paper-sweep|figures-cold|serve-mixed
//	          [--seed n] [--seconds s] [--trace 0|1]
//
// --trace 0 measures the end-to-end metrics; --trace 1 is the separate
// traced run that reports the per-layer metrics and writes its spans to
// .bench_out/. README.md describes the workloads and the metrics.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/internal/experiments"
	"repro/internal/workload"
)

// defaultSeed is the workload seed when --seed is not given.
const defaultSeed = 1

// options configure one run.
type options struct {
	workload  string
	seed      uint64
	seconds   float64
	trace     bool
	insns     int // batch workloads' per-program budget
	minPasses int // timed passes run even when seconds have elapsed
	setupReps int // set-ups measured for setup_s
	outDir    string
	serve     serveSizes
	ref       *hostRef // the host-speed reference (hostref.go)
}

func defaultOptions() options {
	return options{
		workload:  "paper-sweep",
		seed:      defaultSeed,
		seconds:   10,
		insns:     paperInsns,
		minPasses: 3,
		setupReps: 5,
		outDir:    ".bench_out",
		serve:     defaultServeSizes(),
	}
}

func main() {
	o := defaultOptions()
	flag.StringVar(&o.workload, "workload", o.workload, "paper-sweep, figures-cold or serve-mixed")
	flag.Uint64Var(&o.seed, "seed", o.seed, "workload seed: perturbs the workload specs, the reference sample and the serve job mix")
	flag.Float64Var(&o.seconds, "seconds", o.seconds, "how long the timed passes run")
	traceFlag := flag.Int("trace", 0, "1 runs the traced per-layer ledger instead of the timed passes")
	flag.Parse()
	o.trace = *traceFlag == 1

	rep := &report{}
	if err := run(o, rep); err != nil {
		fmt.Fprintln(os.Stderr, "prodbench:", err)
		os.Exit(1)
	}
	keys := endToEndMetrics
	if o.trace {
		keys = layerMetrics
	}
	if err := rep.write(os.Stdout, keys); err != nil {
		fmt.Fprintln(os.Stderr, "prodbench:", err)
		os.Exit(1)
	}
}

// run executes one workload into rep, inside a work directory under
// o.outDir that it removes afterwards.
func run(o options, rep *report) error {
	if err := os.MkdirAll(o.outDir, 0o755); err != nil {
		return err
	}
	work, err := os.MkdirTemp(o.outDir, o.workload+"-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(work)
	o.ref = newHostRef()

	switch o.workload {
	case "paper-sweep":
		return runPaperSweep(o, rep, work)
	case "figures-cold":
		return runFiguresCold(o, rep, work)
	case "serve-mixed":
		return runServeMixed(o, rep, work)
	}
	return fmt.Errorf("unknown workload %q", o.workload)
}

// runPaperSweep is the paper matrix at 2M instructions through
// Executor.RunGrids, each pass with a fresh Runner and an empty Store,
// over a corpus built in set-up. Set-up is that corpus build, measured
// o.setupReps times.
func runPaperSweep(o options, rep *report, work string) error {
	specs, err := seededSpecs(o.seed)
	if err != nil {
		return err
	}
	cfg := paperConfig(specs, o.insns)
	var setups []float64
	var corpus string
	for i := 0; i < o.setupReps; i++ {
		dir := filepath.Join(work, fmt.Sprintf("corpus-%d", i))
		start := time.Now()
		r := experiments.NewRunner(cfg)
		if _, err := r.UseCorpus(experiments.CorpusPath(dir, cfg)); err != nil {
			return err
		}
		setups = append(setups, time.Since(start).Seconds())
		if err := r.CloseCorpus(); err != nil {
			return err
		}
		if corpus != "" {
			os.RemoveAll(corpus)
		}
		corpus = dir
	}
	b := &batch{name: o.workload, cfg: cfg, grids: []experiments.Grid{paperGrid()}, corpus: corpus}
	return b.run(o, rep, setups, work)
}

// runFiguresCold is every figure through Executor.Run and RenderFigure
// with empty store and corpus directories per pass: a first `make
// figures`. Set-up derives the seeded workloads, generating and validating
// their six programs, and creates those directories, measured o.setupReps
// times. Directory creation alone took 30–850 µs from run to run with the
// filesystem's state, too unsteady to bound.
func runFiguresCold(o options, rep *report, work string) error {
	var setups []float64
	var specs []workload.Spec
	for i := 0; i < o.setupReps; i++ {
		start := time.Now()
		var err error
		if specs, err = seededSpecs(o.seed); err != nil {
			return err
		}
		dir := filepath.Join(work, fmt.Sprintf("setup-%d", i))
		if _, _, err := (&batch{}).prepare(dir); err != nil {
			return err
		}
		setups = append(setups, time.Since(start).Seconds())
		os.RemoveAll(dir)
	}
	cfg := paperConfig(specs, o.insns)
	figs := experiments.Figures()
	b := &batch{name: o.workload, cfg: cfg, figs: figs}
	for _, f := range figs {
		b.grids = append(b.grids, f.Grid)
	}
	b.probedCells = len(experiments.AttributionGrid().Cells(specs)) + len(experiments.H2PGrid().Cells(specs))
	return b.run(o, rep, setups, work)
}
