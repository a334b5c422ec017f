// Command benchjson turns `go test -bench` text output into a
// machine-readable JSON file while echoing the text through unchanged, so
// it sits at the end of a pipe without hiding anything:
//
//	go test -run='^$' -bench='BenchmarkSweep(Broadcast|PerCell)$' -benchmem . \
//	    | benchjson -o BENCH_sweep.json
//
// This is what `make bench` runs; the committed BENCH_sweep.json at the
// repo root is the throughput baseline the probe's zero-overhead contract
// is judged against (see EXPERIMENTS.md "Benchmark JSON" for the schema).
// The JSON is a pure function of the benchmark text: run metadata that
// varies per invocation (the timestamp, the command line) goes to a run
// manifest (-manifest, schema nls-run/v1) instead, so re-running `make
// bench` on identical results leaves the committed file byte-identical.
//
// -compare old.json prints per-benchmark deltas against a previously
// written file and exits nonzero when any benchmark's Mstep/s throughput
// regresses by more than 10% — `make bench-check` uses it with -o ” as a
// regression gate against the committed baseline.
//
// -require-improvement "<metric> <pct>" is the inverse gate: every
// benchmark listed in the frozen baseline named by -improve-over must be
// present in this run with <metric> at least <pct> percent above the
// frozen value, or benchjson exits nonzero. Where -compare protects
// against sliding back from the current baseline, -require-improvement
// machine-checks a speedup claim against a deliberately old snapshot:
// `make bench-check` uses it against BENCH_baseline.json (the frozen
// pre-corpus, pre-pipeline SweepBroadcast numbers). The baseline file
// lists exactly the benchmarks whose claim is enforced — trimming an
// entry from it withdraws that benchmark's claim.
//
// -require-ratio "<benchA>/<benchB> <metric> <min>" gates a ratio of two
// benchmarks *within this run*: A's metric must be at least <min> times
// B's. The flag repeats; every ratio is checked and reported. Because both sides of the ratio see the same machine at the same
// moment, this gate is immune to the host-speed drift that makes
// absolute Mstep/s comparisons across days unreliable on a shared box —
// it is how the ≥2× broadcast-vs-per-cell scheduler claim is enforced
// (see EXPERIMENTS.md "Sweep throughput").
//
// The parser understands the standard benchmark result line — name,
// iteration count, then (value, unit) pairs, including custom
// b.ReportMetric units like Mstep/s — plus the goos/goarch/pkg/cpu header
// lines. Anything else passes through untouched. If stdin ends with no
// benchmark lines seen (e.g. the compile failed), benchjson exits nonzero
// so the pipeline still fails loudly.
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// Schema identifies the BENCH_sweep.json layout; bump on incompatible
// change.
const Schema = "nls-bench/v1"

// ManifestSchema identifies the run-manifest layout, shared with the
// nlstables run telemetry (internal/experiments.ManifestSchema).
const ManifestSchema = "nls-run/v1"

// regressTolerance is the fraction of Mstep/s a benchmark may lose before
// -compare fails the run.
const regressTolerance = 0.10

// Benchmark is one parsed result line.
type Benchmark struct {
	// Name is the benchmark name without the "Benchmark" prefix or the
	// -P GOMAXPROCS suffix (e.g. "SweepBroadcast", "Engines/NLSCache").
	Name string `json:"name"`
	// Procs is the GOMAXPROCS suffix (1 when absent).
	Procs int `json:"procs"`
	// Iterations is b.N of the reported run.
	Iterations int64 `json:"iterations"`
	// Metrics maps unit → value for every (value, unit) pair on the line:
	// ns/op, B/op, allocs/op, and custom units like Mstep/s.
	Metrics map[string]float64 `json:"metrics"`
}

// File is the written JSON document. It deliberately carries no timestamp
// or other per-invocation state: identical benchmark text must marshal to
// identical bytes (timestamps live in the run manifest).
type File struct {
	Schema    string `json:"schema"`
	GoVersion string `json:"go_version"`
	// Goos, Goarch, Pkg, and CPU come from the benchmark header lines.
	Goos       string      `json:"goos,omitempty"`
	Goarch     string      `json:"goarch,omitempty"`
	Pkg        string      `json:"pkg,omitempty"`
	CPU        string      `json:"cpu,omitempty"`
	Benchmarks []Benchmark `json:"benchmarks"`
}

// manifest is the per-invocation record written next to the nlstables run
// manifests under results/runs/: when the bench ran, how it was invoked,
// and which benchmarks it produced — everything deliberately excluded from
// the deterministic File.
type manifest struct {
	Schema     string    `json:"schema"`
	CreatedAt  time.Time `json:"created_at"`
	Command    []string  `json:"command,omitempty"`
	GoVersion  string    `json:"go_version"`
	CPU        string    `json:"cpu,omitempty"`
	Output     string    `json:"bench_output,omitempty"`
	Benchmarks []string  `json:"benchmarks"`
}

func main() {
	out := flag.String("o", "BENCH_sweep.json", "output JSON file ('' skips writing)")
	compareWith := flag.String("compare", "", "compare against a previously written JSON file; exit nonzero on >10% Mstep/s regression")
	manifestDir := flag.String("manifest", "", "directory for the timestamped run manifest ('' skips it)")
	requireImprove := flag.String("require-improvement", "", `"<metric> <pct>": require every benchmark in the -improve-over baseline to beat its frozen <metric> by at least <pct> percent (e.g. 'Mstep/s 100' demands a >=2x speedup)`)
	improveOver := flag.String("improve-over", "BENCH_baseline.json", "frozen baseline file for -require-improvement")
	var ratioReqs []ratioRequirement
	flag.Func("require-ratio", `"<benchA>/<benchB> <metric> <min>": require benchA's <metric> to be at least <min> times benchB's within this run (host-drift-immune; repeatable)`,
		func(s string) error {
			req, err := parseRatioRequirement(s)
			ratioReqs = append(ratioReqs, req)
			return err
		})
	flag.Parse()

	var impMetric string
	var impPct float64
	if *requireImprove != "" {
		var err error
		impMetric, impPct, err = parseRequirement(*requireImprove)
		if err != nil {
			fail(err)
		}
	}

	file := File{Schema: Schema, GoVersion: runtime.Version()}
	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		fmt.Println(line) // echo through
		if v, ok := strings.CutPrefix(line, "goos: "); ok {
			file.Goos = v
		} else if v, ok := strings.CutPrefix(line, "goarch: "); ok {
			file.Goarch = v
		} else if v, ok := strings.CutPrefix(line, "pkg: "); ok {
			file.Pkg = v
		} else if v, ok := strings.CutPrefix(line, "cpu: "); ok {
			file.CPU = v
		} else if b, ok := parseLine(line); ok {
			file.Benchmarks = append(file.Benchmarks, b)
		}
	}
	if err := sc.Err(); err != nil {
		fail(err)
	}
	if len(file.Benchmarks) == 0 {
		fail(fmt.Errorf("no benchmark result lines on stdin"))
	}

	if *out != "" {
		buf, err := json.MarshalIndent(file, "", "  ")
		if err != nil {
			fail(err)
		}
		if err := os.WriteFile(*out, append(buf, '\n'), 0o644); err != nil {
			fail(err)
		}
		fmt.Fprintf(os.Stderr, "benchjson: wrote %s (%d benchmarks)\n", *out, len(file.Benchmarks))
	}

	if *manifestDir != "" {
		if err := writeManifest(*manifestDir, *out, file); err != nil {
			fail(err)
		}
	}

	// Every gate runs and reports before any failure exits, so one failed
	// gate does not hide the verdicts of the others.
	var gateErrs []error
	if *compareWith != "" {
		old, err := readFile(*compareWith)
		if err != nil {
			fail(err)
		}
		report, regressed := compare(old, file, regressTolerance)
		fmt.Fprintf(os.Stderr, "benchjson: compare vs %s\n", *compareWith)
		for _, l := range report {
			fmt.Fprintln(os.Stderr, "  "+l)
		}
		if len(regressed) > 0 {
			gateErrs = append(gateErrs, fmt.Errorf("Mstep/s regressed >%d%%: %s",
				int(regressTolerance*100), strings.Join(regressed, ", ")))
		}
	}

	if *requireImprove != "" {
		base, err := readFile(*improveOver)
		if err != nil {
			fail(err)
		}
		report, failed := requireImprovement(base, file, impMetric, impPct)
		fmt.Fprintf(os.Stderr, "benchjson: require %s +%g%% vs %s\n", impMetric, impPct, *improveOver)
		for _, l := range report {
			fmt.Fprintln(os.Stderr, "  "+l)
		}
		if len(failed) > 0 {
			gateErrs = append(gateErrs, fmt.Errorf("%s improvement below +%g%% vs %s: %s",
				impMetric, impPct, *improveOver, strings.Join(failed, ", ")))
		}
	}

	for _, req := range ratioReqs {
		line, err := checkRatio(file, req)
		fmt.Fprintln(os.Stderr, "benchjson: "+line)
		if err != nil {
			gateErrs = append(gateErrs, err)
		}
	}
	if len(gateErrs) > 0 {
		fail(errors.Join(gateErrs...))
	}
}

// ratioRequirement is a parsed -require-ratio value: benchmark a's metric
// must be at least min times benchmark b's, both from the current run.
type ratioRequirement struct {
	a, b   string
	metric string
	min    float64
}

// parseRatioRequirement splits a "<benchA>/<benchB> <metric> <min>"
// -require-ratio value. Benchmark names are the JSON names (no
// "Benchmark" prefix); subbenchmark paths keep their inner slashes, so
// the a/b split is on the slash that leaves both sides non-empty and
// matching — unambiguous for top-level benchmarks, which is what the
// gate is for.
func parseRatioRequirement(s string) (ratioRequirement, error) {
	fields := strings.Fields(s)
	if len(fields) != 3 {
		return ratioRequirement{}, fmt.Errorf(`-require-ratio %q: want "<benchA>/<benchB> <metric> <min>"`, s)
	}
	a, b, ok := strings.Cut(fields[0], "/")
	if !ok || a == "" || b == "" {
		return ratioRequirement{}, fmt.Errorf("-require-ratio %q: want two benchmark names joined by /", s)
	}
	min, err := strconv.ParseFloat(fields[2], 64)
	if err != nil || min <= 0 {
		return ratioRequirement{}, fmt.Errorf("-require-ratio %q: minimum ratio must be a positive number", s)
	}
	return ratioRequirement{a: a, b: b, metric: fields[1], min: min}, nil
}

// checkRatio evaluates a ratioRequirement against the current run. The
// returned line always describes what was (or could not be) measured; err
// is non-nil when the gate fails.
func checkRatio(cur File, req ratioRequirement) (string, error) {
	byName := make(map[string]Benchmark, len(cur.Benchmarks))
	for _, b := range cur.Benchmarks {
		byName[benchKey(b)] = b
	}
	for _, name := range []string{req.a, req.b} {
		if _, ok := byName[name]; !ok {
			return fmt.Sprintf("require %s/%s: %s missing from this run", req.a, req.b, name),
				fmt.Errorf("-require-ratio: benchmark %q not in this run", name)
		}
	}
	den := byName[req.b].Metrics[req.metric]
	if den <= 0 {
		return fmt.Sprintf("require %s/%s: %s has no positive %s", req.a, req.b, req.b, req.metric),
			fmt.Errorf("-require-ratio: %s has no positive %s", req.b, req.metric)
	}
	ratio := byName[req.a].Metrics[req.metric] / den
	line := fmt.Sprintf("require %s >= %.2fx %s on %s: measured %.2fx", req.a, req.min, req.b, req.metric, ratio)
	if ratio < req.min {
		return line + "; FAIL", fmt.Errorf("-require-ratio: %s is %.2fx %s on %s, need >=%.2fx",
			req.a, ratio, req.b, req.metric, req.min)
	}
	return line + "; ok", nil
}

// parseRequirement splits a "<metric> <pct>" -require-improvement value.
func parseRequirement(s string) (metric string, pct float64, err error) {
	fields := strings.Fields(s)
	if len(fields) != 2 {
		return "", 0, fmt.Errorf(`-require-improvement %q: want "<metric> <pct>" (e.g. 'Mstep/s 100')`, s)
	}
	pct, err = strconv.ParseFloat(fields[1], 64)
	if err != nil || pct <= 0 {
		return "", 0, fmt.Errorf("-require-improvement %q: percentage must be a positive number", s)
	}
	return fields[0], pct, nil
}

// requireImprovement checks every benchmark of the frozen baseline against
// the current run: present, with metric at least (1+pct/100) times the
// frozen value. The baseline is the authority on which benchmarks carry a
// claim — current-run benchmarks absent from it are ignored — so the gate
// stays meaningful as new benchmarks are added to the suite.
func requireImprovement(base, cur File, metric string, pct float64) (report, failed []string) {
	need := 1 + pct/100
	curBy := make(map[string]Benchmark, len(cur.Benchmarks))
	for _, b := range cur.Benchmarks {
		curBy[benchKey(b)] = b
	}
	for _, b := range base.Benchmarks {
		key := benchKey(b)
		frozen, ok := b.Metrics[metric]
		if !ok || frozen <= 0 {
			report = append(report, fmt.Sprintf("%s: baseline has no positive %s; FAIL", key, metric))
			failed = append(failed, key)
			continue
		}
		now, ok := curBy[key]
		if !ok {
			report = append(report, fmt.Sprintf("%s: missing from this run; FAIL", key))
			failed = append(failed, key)
			continue
		}
		got := now.Metrics[metric]
		ratio := got / frozen
		line := fmt.Sprintf("%s: %s %.4g -> %.4g (%.2fx, need >=%.2fx)", key, metric, frozen, got, ratio, need)
		if ratio < need {
			line += "; FAIL"
			failed = append(failed, key)
		} else {
			line += "; ok"
		}
		report = append(report, line)
	}
	return report, failed
}

// readFile loads and validates a previously written benchmark JSON file.
func readFile(path string) (File, error) {
	var f File
	buf, err := os.ReadFile(path)
	if err != nil {
		return f, err
	}
	if err := json.Unmarshal(buf, &f); err != nil {
		return f, fmt.Errorf("%s: %v", path, err)
	}
	if f.Schema != Schema {
		return f, fmt.Errorf("%s: schema %q, want %q", path, f.Schema, Schema)
	}
	return f, nil
}

// benchKey identifies a benchmark across files.
func benchKey(b Benchmark) string {
	if b.Procs == 1 {
		return b.Name
	}
	return fmt.Sprintf("%s-%d", b.Name, b.Procs)
}

// compare reports the per-benchmark metric deltas of cur against old and
// which benchmarks regressed: present in both files, with an Mstep/s
// throughput below (1-tol) of the old value. New or vanished benchmarks
// are reported but never fail the comparison.
func compare(old, cur File, tol float64) (report, regressed []string) {
	oldBy := make(map[string]Benchmark, len(old.Benchmarks))
	for _, b := range old.Benchmarks {
		oldBy[benchKey(b)] = b
	}
	seen := make(map[string]bool, len(cur.Benchmarks))
	for _, b := range cur.Benchmarks {
		key := benchKey(b)
		seen[key] = true
		prev, ok := oldBy[key]
		if !ok {
			report = append(report, fmt.Sprintf("%s: new benchmark (no baseline): %s", key, metricsLine(b)))
			continue
		}
		units := make([]string, 0, len(b.Metrics))
		for u := range b.Metrics {
			if _, ok := prev.Metrics[u]; ok {
				units = append(units, u)
			}
		}
		sort.Strings(units)
		parts := make([]string, 0, len(units))
		for _, u := range units {
			ov, nv := prev.Metrics[u], b.Metrics[u]
			switch {
			case ov == 0:
				parts = append(parts, fmt.Sprintf("%s %.4g -> %.4g", u, ov, nv))
			default:
				parts = append(parts, fmt.Sprintf("%s %.4g -> %.4g (%+.1f%%)", u, ov, nv, 100*(nv-ov)/ov))
			}
		}
		report = append(report, fmt.Sprintf("%s: %s", key, strings.Join(parts, ", ")))
		if ov, ok := prev.Metrics["Mstep/s"]; ok && ov > 0 {
			if b.Metrics["Mstep/s"] < ov*(1-tol) {
				regressed = append(regressed, key)
			}
		}
	}
	for _, b := range old.Benchmarks {
		if key := benchKey(b); !seen[key] {
			report = append(report, fmt.Sprintf("%s: missing from this run (baseline was %s)", key, metricsLine(b)))
		}
	}
	return report, regressed
}

// metricsLine renders a benchmark's metrics in stable unit order, for the
// one-sided report lines where there is no old/new pair to diff.
func metricsLine(b Benchmark) string {
	if len(b.Metrics) == 0 {
		return "no metrics"
	}
	units := make([]string, 0, len(b.Metrics))
	for u := range b.Metrics {
		units = append(units, u)
	}
	sort.Strings(units)
	parts := make([]string, 0, len(units))
	for _, u := range units {
		parts = append(parts, fmt.Sprintf("%s %.4g", u, b.Metrics[u]))
	}
	return strings.Join(parts, ", ")
}

// writeManifest records the invocation under dir as <timestamp>-bench.json.
func writeManifest(dir, output string, f File) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	m := manifest{
		Schema:    ManifestSchema,
		CreatedAt: time.Now(),
		Command:   os.Args,
		GoVersion: f.GoVersion,
		CPU:       f.CPU,
		Output:    output,
	}
	for _, b := range f.Benchmarks {
		m.Benchmarks = append(m.Benchmarks, benchKey(b))
	}
	path := filepath.Join(dir, m.CreatedAt.UTC().Format("20060102T150405.000000000Z")+"-bench.json")
	buf, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(buf, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "benchjson: manifest %s\n", path)
	return nil
}

// parseLine parses one benchmark result line:
//
//	BenchmarkName-8   5   234567890 ns/op   73.9 Mstep/s   12 B/op   3 allocs/op
func parseLine(line string) (Benchmark, bool) {
	fields := strings.Fields(line)
	if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
		return Benchmark{}, false
	}
	name := strings.TrimPrefix(fields[0], "Benchmark")
	procs := 1
	if i := strings.LastIndex(name, "-"); i > 0 {
		if p, err := strconv.Atoi(name[i+1:]); err == nil {
			name, procs = name[:i], p
		}
	}
	iters, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return Benchmark{}, false
	}
	b := Benchmark{Name: name, Procs: procs, Iterations: iters,
		Metrics: make(map[string]float64)}
	// The rest are (value, unit) pairs.
	for i := 2; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			return Benchmark{}, false
		}
		b.Metrics[fields[i+1]] = v
	}
	if len(b.Metrics) == 0 {
		return Benchmark{}, false
	}
	return b, true
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "benchjson:", err)
	os.Exit(1)
}
