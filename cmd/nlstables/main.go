// Command nlstables regenerates every table and figure of the paper from
// the benchmark-analogue workloads — Table 1 and Figures 3–8 — plus the
// repo's ablations (predictors per line, coupled vs decoupled designs,
// direction-predictor choice, fetch width, wrong-path pollution, the
// hybrid NLS+BTB predictor, the per-branch penalty attribution, and the
// h2p dir-wrong recovery ranking). This is the harness behind
// EXPERIMENTS.md.
//
// Usage:
//
//	nlstables [-n insns] [-only figure] [-force] [-progress] [-json] [-store dir]
//	          [-manifest dir] [-cpuprofile f] [-memprofile f]
//
// The figures are declarative grids over one executor (see package
// experiments): the run gathers every requested cell, loads unchanged ones
// from the content-addressed store under -store, and replays each
// program's trace exactly once for all remaining cells. -only restricts
// the run to one figure; -force re-simulates even stored cells; -store ""
// disables the store entirely. The attribution and h2p figures probe their
// cells: probe-attached engines join that one replay on every run (the
// store holds counters, not event streams).
//
// With -json, the machine-readable report — the rows behind each rendered
// table plus the run's sweep-throughput stats — is the ONLY thing printed
// to stdout (the ASCII tables move to stderr with the other diagnostics,
// so `nlstables -json | jq` just works), and the same report is written to
// results/<exp>.json.
//
// Every run also writes a run manifest (schema nls-run/v1) under -manifest
// (default results/runs/): store hits/misses, cells deduped across
// figures, replay throughput, per-cell engine wall time, and the Go build
// info — the telemetry record for tracking performance trajectories
// across commits. -manifest "" disables it.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/experiments"
	"repro/internal/prof"
)

// report is the -json output: one entry per experiment run, keyed by
// experiment name, plus the replay throughput of the run.
type report struct {
	InsnsPerProgram int            `json:"insns_per_program"`
	Experiments     map[string]any `json:"experiments"`
	Sweep           sweepReport    `json:"sweep_throughput"`
}

type sweepReport struct {
	Cells      int     `json:"cells"`
	Records    int64   `json:"records"`
	Seconds    float64 `json:"seconds"`
	RecPerSec  float64 `json:"records_per_sec"`
	MrecPerSec float64 `json:"mrec_per_sec"`
	// Loaded counts cells served by the content-addressed store; Replays
	// counts program traces actually replayed (0 on a fully warm run).
	Loaded  int `json:"cells_loaded"`
	Replays int `json:"trace_replays"`
}

func main() {
	var (
		n           = flag.Int("n", 2_000_000, "instructions to simulate per program")
		exp         = flag.String("exp", "all", "experiment to run (alias of -only; 'all' runs every figure)")
		only        = flag.String("only", "", "run a single figure: table1, fig3..fig8, perline, coupled, pht, width, pollution, hybrid, attribution, h2p")
		force       = flag.Bool("force", false, "re-simulate cells even when the results store has them")
		progress    = flag.Bool("progress", false, "print sweep progress (cells completed, replay throughput) to stderr")
		jsonOut     = flag.Bool("json", false, "print the machine-readable report to stdout (tables move to stderr) and write it to results/<exp>.json")
		storeDir    = flag.String("store", experiments.DefaultStoreDir(), "content-addressed results store directory (empty disables)")
		corpusDir   = flag.String("corpus", experiments.DefaultCorpusDir(), "disk-backed trace corpus directory: the first run generates traces once into a content-keyed container, later runs replay from disk (empty disables)")
		manifestDir = flag.String("manifest", experiments.DefaultManifestDir(), "run-manifest directory (empty disables)")
		cpuprofile  = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memprofile  = flag.String("memprofile", "", "write a heap profile to this file at exit")
		version     = flag.Bool("version", false, "print build information and exit")
	)
	flag.Parse()

	if *version {
		fmt.Println("nlstables", experiments.ReadBuildEnv())
		return
	}

	stopProf, err := prof.Start(*cpuprofile, *memprofile)
	check(err)

	sel := *exp
	if *only != "" {
		sel = *only
	}
	var figs []experiments.Figure
	if sel == "all" {
		figs = experiments.Figures()
	} else {
		f, ok := experiments.FigureByName(sel)
		if !ok {
			names := make([]string, 0, len(experiments.Figures()))
			for _, f := range experiments.Figures() {
				names = append(names, f.Name)
			}
			fmt.Fprintf(os.Stderr, "nlstables: unknown experiment %q (have %s, all)\n",
				sel, strings.Join(names, ", "))
			os.Exit(2)
		}
		figs = []experiments.Figure{f}
	}

	r := experiments.NewRunner(experiments.DefaultConfig(*n))
	if *progress {
		r.Progress = func(s experiments.SweepStats) {
			fmt.Fprintf(os.Stderr, "  sweep: %d/%d cells, %.1fM records replayed, %.1f Mrec/s\n",
				s.Cells, s.TotalCells, float64(s.Records)/1e6, s.RecordsPerSec()/1e6)
		}
	}
	x := &experiments.Executor{R: r, Force: *force, CorpusDir: *corpusDir}
	if *storeDir != "" {
		store, err := experiments.OpenStore(*storeDir)
		check(err)
		x.Store = store
	}

	rs, err := x.Run(figs...)
	check(err)

	// With -json, stdout carries exactly one JSON document; the rendered
	// tables join the diagnostics on stderr.
	tables := os.Stdout
	if *jsonOut {
		tables = os.Stderr
	}
	rep := report{InsnsPerProgram: *n, Experiments: map[string]any{}}
	figNames := make([]string, len(figs))
	for i, f := range figs {
		figNames[i] = f.Name
		text, data, err := x.RenderFigure(f, rs)
		check(err)
		fmt.Fprintln(tables, text)
		rep.Experiments[f.Name] = data
	}

	if *jsonOut {
		s := r.LastSweepStats()
		rep.Sweep = sweepReport{
			Cells:      s.Cells,
			Records:    s.Records,
			Seconds:    s.Elapsed.Seconds(),
			RecPerSec:  s.RecordsPerSec(),
			MrecPerSec: s.RecordsPerSec() / 1e6,
			Loaded:     s.Loaded,
			Replays:    s.Replays,
		}
		check(writeReport(rep, sel))
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		check(enc.Encode(rep))
	}

	if *manifestDir != "" {
		m := experiments.NewRunManifest(x, rs, figNames, os.Args)
		path, err := m.Write(*manifestDir)
		check(err)
		fmt.Fprintf(os.Stderr, "nlstables: wrote %s\n", path)
	}
	check(stopProf())
}

// writeReport writes the JSON report to results/<exp>.json.
func writeReport(rep report, exp string) error {
	if err := os.MkdirAll("results", 0o755); err != nil {
		return err
	}
	path := filepath.Join("results", exp+".json")
	buf, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(buf, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "nlstables: wrote %s\n", path)
	return nil
}

func check(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "nlstables:", err)
		os.Exit(1)
	}
}
