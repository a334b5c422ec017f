package serve

import (
	"bufio"
	"context"
	"encoding/json"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/arch"
	"repro/internal/experiments"
)

// tinyArchSpec mirrors tinyJob's arm as a native spec, for driving the
// executor directly.
func tinyArchSpec() arch.Spec {
	return arch.Spec{
		Predictor: arch.PredictorSpec{Kind: arch.KindNLSTable, Entries: 256},
		Cache:     arch.CacheSpec{SizeBytes: 4096, LineBytes: 32, Assoc: 1},
		PHT:       arch.PHTSpec{Kind: "gshare", Entries: 512, HistoryBits: 4},
	}
}

// scrapeProm GETs /metricsz and parses the exposition into a
// series-with-labels -> value map.
func scrapeProm(t *testing.T, base string) map[string]float64 {
	t.Helper()
	resp, err := http.Get(base + "/metricsz")
	if err != nil {
		t.Fatal(err)
	}
	body := readAll(t, resp)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metricsz = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Fatalf("metricsz content-type = %q", ct)
	}
	out := make(map[string]float64)
	sc := bufio.NewScanner(strings.NewReader(string(body)))
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			t.Fatalf("malformed exposition line %q", line)
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			t.Fatalf("malformed value in %q: %v", line, err)
		}
		out[line[:i]] = v
	}
	return out
}

func scrapeStatsz(t *testing.T, base string) StatsSnapshot {
	t.Helper()
	resp, err := http.Get(base + "/statsz")
	if err != nil {
		t.Fatal(err)
	}
	var snap StatsSnapshot
	if err := json.Unmarshal(readAll(t, resp), &snap); err != nil {
		t.Fatal(err)
	}
	return snap
}

// TestMetricszMatchesStatsz drives the server through every counter path —
// a led flight, a memo answer, a flight partly served from the store,
// concurrent shared joiners, and an invalid job — then asserts /metricsz
// and /statsz agree on every shared counter. The endpoints read the same
// registry atomics, so at a quiescent moment they must match exactly.
func TestMetricszMatchesStatsz(t *testing.T) {
	s, ts := newTestServer(t, Options{})

	readAll(t, postJob(t, ts.URL, tinyJob)) // cold: simulated
	readAll(t, postJob(t, ts.URL, tinyJob)) // warm: a memo answer
	// A new key over a stored cell and a new one: one loaded, one simulated.
	readAll(t, postJob(t, ts.URL, strings.Replace(tinyJob, `["li"]`, `["li", "gcc"]`, 1)))

	// Concurrent identical requests of a new job: at least one flight
	// shared when they overlap; either way the counters stay consistent.
	other := strings.Replace(tinyJob, `"insns": 20000`, `"insns": 21000`, 1)
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			readAll(t, postJob(t, ts.URL, other))
		}()
	}
	wg.Wait()

	readAll(t, postJob(t, ts.URL, `{"schema":"bogus"}`)) // rejected: invalid

	snap := scrapeStatsz(t, ts.URL)
	prom := scrapeProm(t, ts.URL)

	checks := []struct {
		name string
		stat int64
		prom string
	}{
		{"jobs_received", snap.JobsReceived, "nls_jobs_received_total"},
		{"jobs_failed", snap.JobsFailed, "nls_jobs_failed_total"},
		{"flights_led", snap.FlightsLed, "nls_flights_led_total"},
		{"flights_shared", snap.FlightsShared, "nls_flights_shared_total"},
		{"jobs_memo", snap.JobsMemo, "nls_jobs_memo_total"},
		{"cells_loaded", snap.CellsLoaded, "nls_cells_loaded_total"},
		{"cells_simulated", snap.CellsSimulated, "nls_cells_simulated_total"},
		{"cells_deduped", snap.CellsDeduped, "nls_cells_deduped_total"},
		{"trace_replays", snap.TraceReplays, "nls_trace_replays_total"},
		{"inflight_jobs", snap.InflightJobs, "nls_inflight_jobs"},
		{"queued_jobs", snap.QueuedJobs, "nls_queued_jobs"},
	}
	for _, c := range checks {
		got, ok := prom[c.prom]
		if !ok {
			t.Errorf("metricsz missing %s", c.prom)
			continue
		}
		if got != float64(c.stat) {
			t.Errorf("%s: metricsz %s=%g, statsz=%d", c.name, c.prom, got, c.stat)
		}
	}

	// jobs_rejected is the sum of the per-reason series; the invalid job
	// must land in reason="invalid".
	rejected := prom[`nls_jobs_rejected_total{reason="draining"}`] +
		prom[`nls_jobs_rejected_total{reason="invalid"}`] +
		prom[`nls_jobs_rejected_total{reason="too_large"}`]
	if rejected != float64(snap.JobsRejected) {
		t.Errorf("rejected: metricsz sum=%g, statsz=%d", rejected, snap.JobsRejected)
	}
	if prom[`nls_jobs_rejected_total{reason="invalid"}`] < 1 {
		t.Errorf("invalid job not counted under reason=invalid: %v",
			prom[`nls_jobs_rejected_total{reason="invalid"}`])
	}

	// Every led flight observed one job latency and one queue wait.
	if got := prom["nls_job_seconds_count"]; got != float64(snap.FlightsLed) {
		t.Errorf("nls_job_seconds_count=%g, want %d (one per led flight)", got, snap.FlightsLed)
	}
	if got := prom["nls_queue_wait_seconds_count"]; got != float64(snap.FlightsLed) {
		t.Errorf("nls_queue_wait_seconds_count=%g, want %d", got, snap.FlightsLed)
	}
	if prom["nls_job_seconds_sum"] <= 0 {
		t.Error("nls_job_seconds_sum is zero; job latency not measured")
	}

	// Executor stage spans: one observation per stage per executed job run.
	for _, stage := range executorStages {
		key := `nls_executor_stage_seconds_count{stage="` + stage + `"}`
		if got := prom[key]; got != float64(snap.FlightsLed) {
			t.Errorf("%s = %g, want %d", key, got, snap.FlightsLed)
		}
	}

	// Every accepted job either led, shared or was a memo answer; the
	// repeat of the cold job at least was a memo answer.
	if snap.JobsMemo < 1 {
		t.Errorf("jobs_memo = %d, want >= 1", snap.JobsMemo)
	}
	if got := snap.FlightsLed + snap.FlightsShared + snap.JobsMemo; got != snap.JobsReceived-snap.JobsRejected {
		t.Errorf("led+shared+memo = %d, want the %d accepted jobs", got, snap.JobsReceived-snap.JobsRejected)
	}

	// Derived rates: this sequence both simulated and loaded cells, so the
	// hit rate is strictly between 0 and 1 and consistent with the counters.
	wantHit := float64(snap.CellsLoaded) / float64(snap.CellsLoaded+snap.CellsSimulated)
	if snap.StoreHitRate != wantHit {
		t.Errorf("store_hit_rate=%g, want %g", snap.StoreHitRate, wantHit)
	}
	if snap.StoreHitRate <= 0 || snap.StoreHitRate >= 1 {
		t.Errorf("store_hit_rate=%g, want in (0,1) after cold+warm", snap.StoreHitRate)
	}
	if s.stats.FlightsLed.Value() == 0 {
		t.Error("no flights led")
	}
}

// TestStatszZeroDenominators: a fresh server reports 0 (not NaN) for the
// derived rates, and the registry exposes valid numbers throughout.
func TestStatszZeroDenominators(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	snap := scrapeStatsz(t, ts.URL)
	if snap.StoreHitRate != 0 || snap.FlightShareRate != 0 {
		t.Errorf("fresh rates = %g/%g, want 0/0", snap.StoreHitRate, snap.FlightShareRate)
	}
	if snap.Schema != StatsSchema {
		t.Errorf("schema = %q, want %q", snap.Schema, StatsSchema)
	}
	prom := scrapeProm(t, ts.URL)
	if prom["nls_pool_workers"] <= 0 {
		t.Errorf("nls_pool_workers = %g, want > 0", prom["nls_pool_workers"])
	}
}

// TestStatszDrainingEndToEnd: Draining flips in /statsz and nls_draining in
// /metricsz the moment Shutdown begins, and both agree with /healthz.
func TestStatszDrainingEndToEnd(t *testing.T) {
	s, ts := newTestServer(t, Options{})

	if snap := scrapeStatsz(t, ts.URL); snap.Draining {
		t.Fatal("fresh server reports draining")
	}
	if prom := scrapeProm(t, ts.URL); prom["nls_draining"] != 0 {
		t.Fatalf("fresh nls_draining = %g", prom["nls_draining"])
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}

	if snap := scrapeStatsz(t, ts.URL); !snap.Draining {
		t.Error("statsz draining=false after Shutdown")
	}
	if prom := scrapeProm(t, ts.URL); prom["nls_draining"] != 1 {
		t.Errorf("nls_draining = %g after Shutdown, want 1", prom["nls_draining"])
	}
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	readAll(t, resp)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("healthz while draining = %d, want 503", resp.StatusCode)
	}
	// And a job posted while draining lands in the draining reason bucket.
	readAll(t, postJob(t, ts.URL, tinyJob))
	if got := scrapeProm(t, ts.URL)[`nls_jobs_rejected_total{reason="draining"}`]; got != 1 {
		t.Errorf("draining rejection not counted: %g", got)
	}
}

// TestExecutorStageSpans pins the executor-side seam directly: a run
// reports all four stages, replay dominated by actual time, and the
// Observer receives exactly the manifest's spans.
func TestExecutorStageSpans(t *testing.T) {
	store, err := experiments.OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	cfg := experiments.DefaultConfig(20_000)
	cfg.Programs = cfg.Programs[:1]
	var observed []experiments.StageSpan
	x := &experiments.Executor{R: experiments.NewRunner(cfg), Store: store,
		Observer: func(sp experiments.StageSpan) { observed = append(observed, sp) }}
	rs, err := x.RunGrids(false, experiments.Grid{Name: "spans", Arms: []experiments.Arm{
		{Name: "nls", Spec: tinyArchSpec()},
	}})
	if err != nil {
		t.Fatal(err)
	}
	if len(rs.Stages) != 5 {
		t.Fatalf("got %d stages, want 5: %+v", len(rs.Stages), rs.Stages)
	}
	wantOrder := []string{"gather", "gen-corpus", "trace-gen", "replay", "store-save"}
	for i, sp := range rs.Stages {
		if sp.Stage != wantOrder[i] {
			t.Errorf("stage[%d] = %q, want %q", i, sp.Stage, wantOrder[i])
		}
		if sp.Seconds < 0 {
			t.Errorf("stage %q has negative span %g", sp.Stage, sp.Seconds)
		}
	}
	if len(observed) != len(rs.Stages) {
		t.Fatalf("observer saw %d spans, manifest has %d", len(observed), len(rs.Stages))
	}
	for i := range observed {
		if observed[i] != rs.Stages[i] {
			t.Errorf("observer span %d = %+v, manifest %+v", i, observed[i], rs.Stages[i])
		}
	}
	// The cold run simulated, so replay took real time.
	if rs.Stages[3].Seconds <= 0 {
		t.Errorf("replay span = %g on a cold run, want > 0", rs.Stages[3].Seconds)
	}
}
