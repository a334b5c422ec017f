package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/experiments"
	"repro/internal/metrics"
)

func TestTailPercentileNeedsTenSamplesBeyond(t *testing.T) {
	xs := make([]float64, 999)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if _, err := tailPercentile(xs, 0.99); err == nil {
		t.Fatal("p99 of 999 samples (9 beyond it) did not fail")
	}
	xs = append(xs, 1000)
	p99, err := tailPercentile(xs, 0.99)
	if err != nil {
		t.Fatalf("p99 of 1000 samples: %v", err)
	}
	if p99 != 990 {
		t.Fatalf("p99 of 1..1000 = %v, want 990 (10 samples beyond)", p99)
	}
	if m := median([]float64{3, 1, 2, 4}); m != 2.5 {
		t.Fatalf("median = %v, want 2.5", m)
	}
}

func TestErrorRateAccounting(t *testing.T) {
	want := map[string]metrics.Counters{
		"aaaaaaaaaaaaaa": {Instructions: 1},
		"bbbbbbbbbbbbbb": {Instructions: 2},
		"cccccccccccccc": {Instructions: 3},
		"dddddddddddddd": {Instructions: 4},
	}
	got := map[string]metrics.Counters{
		"aaaaaaaaaaaaaa": {Instructions: 1},
		"bbbbbbbbbbbbbb": {Instructions: 2, Misfetches: 1}, // differs
		"cccccccccccccc": {Instructions: 3},
		// dddd… missing
	}
	rep := &report{}
	compareRows(rep, "test", want, got)
	if rep.attempted != 4 || rep.failed != 2 || rep.errorRate() != 0.5 {
		t.Fatalf("attempted %d failed %d rate %v, want 4, 2, 0.5", rep.attempted, rep.failed, rep.errorRate())
	}
	for _, k := range endToEndMetrics {
		rep.add(k, 1.5, "u")
	}
	var buf bytes.Buffer
	if err := rep.write(&buf, endToEndMetrics); err != nil {
		t.Fatal(err)
	}
	res := lastResult(t, buf.String())
	if res.Correct || res.Attempted != 4 || res.Failed != 2 {
		t.Fatalf("result line %+v, want correct=false attempted=4 failed=2", res)
	}
	if !strings.Contains(buf.String(), "error_rate") {
		t.Fatal("error_rate not printed")
	}
	if err := (&report{}).write(&buf, []string{"setup_s"}); err == nil {
		t.Fatal("a result line missing a metric was written")
	}
}

func TestSelfTimeAndCoverage(t *testing.T) {
	tr := &tracer{spans: []span{
		{ID: 1, Name: "ledger", Start: 0, End: 10},
		{ID: 2, Parent: 1, Name: "a", Start: 0, End: 4},
		{ID: 3, Parent: 2, Name: "b", Start: 1, End: 2},
		{ID: 4, Parent: 1, Name: "b", Start: 5, End: 9},
		{ID: 5, Name: "other", Start: 10, End: 20},
	}}
	self := tr.selfTimes(1)
	if self["a"] != 3 || self["b"] != 5 || len(self) != 2 {
		t.Fatalf("self times %v, want a=3 b=5", self)
	}
	if c := tr.coverage(1); c != 0.8 {
		t.Fatalf("coverage %v, want 0.8", c)
	}
}

func TestSeededSpecsDeterministic(t *testing.T) {
	a, err := seededSpecs(7)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := seededSpecs(7)
	c, _ := seededSpecs(8)
	for i := range a {
		if a[i].Seed != b[i].Seed {
			t.Fatalf("seed 7 gave two different %s specs", a[i].Name)
		}
		if a[i].Seed == c[i].Seed {
			t.Fatalf("seeds 7 and 8 gave the same %s spec", a[i].Name)
		}
	}
}

// TestLedgerRowsEqualProduction restates a small production pass through
// the ledger and requires bit-identical rows, in both trace-acquisition
// modes; a perturbed row must then fail the comparison.
func TestLedgerRowsEqualProduction(t *testing.T) {
	specs, err := seededSpecs(3)
	if err != nil {
		t.Fatal(err)
	}
	cfg := paperConfig(specs, 20_000)
	dir := t.TempDir()
	corpus := filepath.Join(dir, "corpus")
	r := experiments.NewRunner(cfg)
	if _, err := r.UseCorpus(experiments.CorpusPath(corpus, cfg)); err != nil {
		t.Fatal(err)
	}
	r.CloseCorpus()
	for _, shared := range []string{corpus, ""} {
		b := &batch{name: "test", cfg: cfg, grids: []experiments.Grid{paperGrid()}, corpus: shared}
		prod, err := b.pass(filepath.Join(dir, "pass"+filepath.Base(shared)))
		if err != nil {
			t.Fatal(err)
		}
		in := ledgerInput{cfg: cfg, grids: b.grids, rs: prod.rs, dir: filepath.Join(dir, "ledger"+filepath.Base(shared))}
		if shared != "" {
			in.corpus = experiments.CorpusPath(shared, cfg)
		}
		lo, err := runLedger(newTracer("test"), in)
		if err != nil {
			t.Fatal(err)
		}
		if len(lo.rows) != 144 || rowsDigest(lo.rows) != rowsDigest(prod.rows) {
			t.Fatalf("corpus %q: ledger rows (%d) differ from production rows (%d)", shared, len(lo.rows), len(prod.rows))
		}
		rep := &report{}
		compareRows(rep, "ledger", prod.rows, lo.rows)
		if rep.failed != 0 {
			t.Fatalf("compareRows found %d differences in equal rows", rep.failed)
		}
		for k, m := range lo.rows {
			m.Mispredicts++
			lo.rows[k] = m
			break
		}
		compareRows(rep, "ledger", prod.rows, lo.rows)
		if rep.failed != 1 {
			t.Fatalf("one perturbed row counted as %d failures", rep.failed)
		}
	}
}

// TestServeMixWork checks the serve mix's shape: the pool is the
// documented jobs whatever the seed, and every novel job is new to the
// store (a key no pool job or earlier novel job has) at the pool's
// budget and size, so every window asks for the same work.
func TestServeMixWork(t *testing.T) {
	sz := defaultServeSizes()
	a, err := newMix(1, sz)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := newMix(2, sz)
	if len(a.pool) < 2 || len(a.pool) != len(b.pool) {
		t.Fatalf("pools of %d and %d jobs", len(a.pool), len(b.pool))
	}
	for i := range a.pool {
		if !bytes.Equal(a.pool[i].doc, b.pool[i].doc) {
			t.Fatalf("pool job %d depends on the seed", i)
		}
	}
	keys := map[string]bool{}
	for _, r := range a.pool {
		keys[string(r.doc)] = true
	}
	for n := 0; n < 1000; n++ {
		r, err := a.novel(classCold, n)
		if err != nil {
			t.Fatal(err)
		}
		if keys[string(r.doc)] {
			t.Fatalf("novel job %d repeats an earlier job", n)
		}
		keys[string(r.doc)] = true
		if r.cells != a.pool[0].cells || r.insns != sz.insns {
			t.Fatalf("novel job %d: %d cells at %d insns, want the example's %d at %d",
				n, r.cells, r.insns, a.pool[0].cells, sz.insns)
		}
	}
}

// smallOptions shrinks every workload to a smoke-test size.
func smallOptions(t *testing.T, workload string) options {
	o := defaultOptions()
	o.workload = workload
	o.seed = 5
	o.seconds = 0
	o.insns = 20_000
	o.minPasses = 1
	o.setupReps = 1
	o.outDir = t.TempDir()
	o.serve = serveSizes{insns: 10_000, window: 1, setups: 1}
	return o
}

func TestWorkloadSmoke(t *testing.T) {
	for _, w := range []string{"paper-sweep", "figures-cold", "serve-mixed"} {
		for _, traced := range []bool{false, true} {
			o := smallOptions(t, w)
			o.trace = traced
			rep := &report{}
			if err := run(o, rep); err != nil {
				t.Fatalf("%s trace=%v: %v", w, traced, err)
			}
			keys := endToEndMetrics
			if traced {
				keys = layerMetrics
			}
			var buf bytes.Buffer
			if err := rep.write(&buf, keys); err != nil {
				t.Fatalf("%s trace=%v: %v", w, traced, err)
			}
			res := lastResult(t, buf.String())
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Fatalf("%s trace=%v: %+v\n%s", w, traced, res, buf.String())
			}
			for k, v := range res.Metrics {
				if math.IsNaN(v.Value) {
					t.Errorf("%s trace=%v: %s is NaN", w, traced, k)
				}
			}
			if traced {
				if res.Metrics["ledger.coverage"].Value < 0.9 {
					t.Errorf("%s: ledger coverage %v", w, res.Metrics["ledger.coverage"].Value)
				}
				if _, err := os.Stat(filepath.Join(o.outDir, "spans-"+w+"-seed5.json")); err != nil {
					t.Errorf("%s: span file: %v", w, err)
				}
			}
		}
	}
}

func TestMetricListsMatchBenchmarkJSON(t *testing.T) {
	buf, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("BENCHMARK.json not beside the benchmark:", err)
	}
	var doc struct {
		EndToEnd []struct{ Name string } `json:"end_to_end"`
		PerLayer []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(buf, &doc); err != nil {
		t.Fatal(err)
	}
	names := func(xs []struct{ Name string }) string {
		var out []string
		for _, x := range xs {
			out = append(out, x.Name)
		}
		return strings.Join(out, " ")
	}
	if got, want := names(doc.EndToEnd), strings.Join(endToEndMetrics, " "); got != want {
		t.Errorf("BENCHMARK.json end_to_end %q, benchmark reports %q", got, want)
	}
	if got, want := names(doc.PerLayer), strings.Join(layerMetrics, " "); got != want {
		t.Errorf("BENCHMARK.json per_layer %q, benchmark reports %q", got, want)
	}
}

// lastResult parses the result line that ends the output.
func lastResult(t *testing.T, out string) resultLine {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	var res resultLine
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line %q: %v", lines[len(lines)-1], err)
	}
	return res
}
