package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
)

// endToEndMetrics are the metrics a --trace 0 run reports in its result
// line, and layerMetrics those of a --trace 1 run. Both lists mirror
// BENCHMARK.json (TestMetricListsMatchBenchmarkJSON) and every workload
// reports every name on them; workload-specific metrics (job latency on
// serve-mixed, render time on figures-cold) are printed by name but stay
// out of the result line.
var (
	endToEndMetrics = []string{"setup_s", "mstep_per_s", "peak_rss_mb", "alloc_mb"}

	layerMetrics = []string{
		"workload.gen_s", "workload.records",
		"trace.corpus_write_s", "trace.corpus_mb", "trace.decode_s", "trace.decode_alloc_mb", "trace.chunk_s",
		"cache.annotate_dm_s", "cache.annotate_4way_s",
		"cache.oracle_accesses", "cache.oracle_misses", "cache.events", "cache.event_ratio",
		"fetch.replay_s", "fetch.replay_nls_table_s", "fetch.replay_nls_cache_s",
		"fetch.replay_btb_s", "fetch.replay_johnson_s", "fetch.private_replay_s",
		"fetch.engine_steps", "fetch.engine_busy_s", "fetch.unattributed_s",
		"experiments.gather_s", "experiments.gen_corpus_s", "experiments.trace_gen_s",
		"experiments.replay_s", "experiments.store_save_s",
		"experiments.cells_simulated", "experiments.cells_loaded", "experiments.cells_deduped",
		"experiments.replays", "experiments.store_save_ms", "experiments.store_load_ms",
		"experiments.cpu_util",
		"runtime.gc_cycles", "runtime.gc_pause_ms",
		"ledger.coverage", "ledger.trace_overhead",
	}
)

// metric is one named measurement with its unit.
type metric struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report accumulates one run's metrics and its operation accounting. A
// failed operation is a cell whose counters differ from the reference, a
// non-200 response, or a body that differs from the expected one.
type report struct {
	metrics   []metric
	attempted int64
	failed    int64
	errs      []string
}

// add records a metric; a name recorded twice is a bug in the benchmark.
func (r *report) add(name string, v float64, unit string) {
	for _, m := range r.metrics {
		if m.Name == name {
			panic("prodbench: metric " + name + " recorded twice")
		}
	}
	r.metrics = append(r.metrics, metric{name, v, unit})
}

// attempt counts n attempted operations.
func (r *report) attempt(n int) { r.attempted += int64(n) }

// fail counts one failed operation and keeps its description (the first
// few are printed).
func (r *report) fail(format string, args ...any) {
	r.failed++
	if len(r.errs) < 20 {
		r.errs = append(r.errs, fmt.Sprintf(format, args...))
	}
}

// errorRate is failed / attempted.
func (r *report) errorRate() float64 {
	if r.attempted == 0 {
		return 0
	}
	return float64(r.failed) / float64(r.attempted)
}

// resultLine is the last line of the benchmark's standard output.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]resultValue `json:"metrics"`
}

type resultValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// write prints every metric by name with its unit, the failures, and then
// the result line holding the names on keys. A name on keys that the run
// did not record is an error: the result line would break the contract.
func (r *report) write(w io.Writer, keys []string) error {
	for _, m := range r.metrics {
		fmt.Fprintf(w, "metric %-30s %16s %s\n", m.Name, strconv.FormatFloat(m.Value, 'g', -1, 64), m.Unit)
	}
	fmt.Fprintf(w, "metric %-30s %16s %s\n", "error_rate", strconv.FormatFloat(r.errorRate(), 'g', -1, 64), "ratio")
	for _, e := range r.errs {
		fmt.Fprintln(w, "FAILED", e)
	}
	res := resultLine{
		Correct:   r.failed == 0 && r.attempted > 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   make(map[string]resultValue, len(keys)),
	}
	for _, k := range keys {
		found := false
		for _, m := range r.metrics {
			if m.Name == k {
				if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
					return fmt.Errorf("metric %s is %v", k, m.Value)
				}
				res.Metrics[k] = resultValue{m.Value, m.Unit}
				found = true
			}
		}
		if !found {
			return fmt.Errorf("metric %s was not measured", k)
		}
	}
	buf, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(w, string(buf))
	return err
}

// median returns the median of xs (the mean of the middle pair for an even
// count). It panics on an empty slice: every caller measures at least once.
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// minBeyond is how many samples must lie above a reported tail percentile.
const minBeyond = 10

// tailPercentile returns the nearest-rank q-quantile of xs. It fails when
// fewer than minBeyond samples lie above the quantile's rank: a p99 from
// 500 samples would be the fifth-largest latency dressed up as a tail.
func tailPercentile(xs []float64, q float64) (float64, error) {
	n := len(xs)
	rank := int(math.Ceil(q*float64(n))) - 1
	if rank < 0 {
		rank = 0
	}
	if beyond := n - 1 - rank; beyond < minBeyond {
		return 0, fmt.Errorf("p%g of %d samples has %d beyond it, want at least %d",
			q*100, n, beyond, minBeyond)
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[rank], nil
}

// peakRSSMB reads the process's resident-set high-water mark (VmHWM).
func peakRSSMB() (float64, error) {
	buf, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(buf), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("parse VmHWM %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}

// resetPeakRSS resets the process's VmHWM to its current resident set
// (proc(5), /proc/pid/clear_refs value 5).
func resetPeakRSS() error {
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// mb converts bytes to MiB, the unit every *_mb metric uses.
func mb(bytes uint64) float64 { return float64(bytes) / (1 << 20) }
