package serve

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/experiments"
)

// TestStressSingleFlightHammer is the single-flight acceptance test: 100
// goroutines POST the identical job concurrently, and the claim under test
// is N→1 — exactly one executor invocation serves every request, all 100
// bodies are byte-identical, and /statsz shows 1 flight led + 99 shared.
// A warm re-request afterwards is byte-identical to the hammered response.
// Run under -race via `make stress`.
func TestStressSingleFlightHammer(t *testing.T) {
	const clients = 100

	s, ts := newTestServer(t, Options{Workers: 4, QueueDepth: clients})

	// Count executor invocations and hold the first one until every client
	// has joined the flight (observable as flights led + shared), so the
	// test proves dedup rather than racing request arrival against a fast
	// simulation. Responses only flow after the executor runs, so clients
	// cannot signal this themselves.
	var invocations atomic.Int64
	inner := s.exec
	s.exec = func(job *CompiledJob, progress func(experiments.RunStats)) ([]byte, experiments.RunStats, error) {
		invocations.Add(1)
		for s.stats.FlightsLed.Value()+s.stats.FlightsShared.Value() < clients {
			time.Sleep(time.Millisecond)
		}
		return inner(job, progress)
	}

	bodies := make([][]byte, clients)
	status := make([]int, clients)
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(tinyJob))
			if err != nil {
				t.Error(err)
				return
			}
			defer resp.Body.Close()
			status[i] = resp.StatusCode
			bodies[i], _ = io.ReadAll(resp.Body)
		}(i)
	}
	wg.Wait()

	if got := invocations.Load(); got != 1 {
		t.Fatalf("executor ran %d times for %d identical requests, want exactly 1", got, clients)
	}
	for i := 0; i < clients; i++ {
		if status[i] != http.StatusOK {
			t.Fatalf("client %d: status %d: %s", i, status[i], bodies[i])
		}
		if !bytes.Equal(bodies[i], bodies[0]) {
			t.Fatalf("client %d body differs from client 0:\n%s\nvs\n%s", i, bodies[i], bodies[0])
		}
	}

	resp, err := http.Get(ts.URL + "/statsz")
	if err != nil {
		t.Fatal(err)
	}
	var snap StatsSnapshot
	if err := json.Unmarshal(readAll(t, resp), &snap); err != nil {
		t.Fatal(err)
	}
	if snap.FlightsLed != 1 || snap.FlightsShared != clients-1 {
		t.Errorf("flights led/shared = %d/%d, want 1/%d", snap.FlightsLed, snap.FlightsShared, clients-1)
	}
	if snap.CellsSimulated != 1 || snap.CellsLoaded != 0 {
		t.Errorf("cells simulated/loaded = %d/%d, want 1/0 (one cold run)", snap.CellsSimulated, snap.CellsLoaded)
	}

	// /metricsz at the quiescent moment must agree with /statsz on every
	// counter the hammer exercised — both are views over one registry.
	prom := scrapeProm(t, ts.URL)
	for promKey, stat := range map[string]int64{
		"nls_flights_led_total":     snap.FlightsLed,
		"nls_flights_shared_total":  snap.FlightsShared,
		"nls_cells_simulated_total": snap.CellsSimulated,
		"nls_cells_loaded_total":    snap.CellsLoaded,
		"nls_jobs_received_total":   snap.JobsReceived,
		"nls_inflight_jobs":         0,
		"nls_queued_jobs":           0,
	} {
		if got := prom[promKey]; got != float64(stat) {
			t.Errorf("after hammer: metricsz %s=%g disagrees with statsz %d", promKey, got, stat)
		}
	}

	// Warm re-request: a fresh flight served entirely from the store,
	// byte-identical to what the hammer saw.
	warm := postJob(t, ts.URL, tinyJob)
	warmBody := readAll(t, warm)
	if warm.StatusCode != http.StatusOK {
		t.Fatalf("warm POST: %d", warm.StatusCode)
	}
	if got := warm.Header.Get("X-NLS-Cells-Loaded"); got != "1" {
		t.Errorf("warm loaded = %q, want 1", got)
	}
	if !bytes.Equal(warmBody, bodies[0]) {
		t.Error("warm response differs from the hammered response")
	}
}

// TestStressDistinctJobsDoNotShare is the negative control: two jobs that
// differ only in instruction budget must lead distinct flights and return
// different bodies.
func TestStressDistinctJobsDoNotShare(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	other := strings.Replace(tinyJob, `"insns": 20000`, `"insns": 21000`, 1)

	var wg sync.WaitGroup
	out := make([][]byte, 2)
	for i, doc := range []string{tinyJob, other} {
		wg.Add(1)
		go func(i int, doc string) {
			defer wg.Done()
			resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(doc))
			if err != nil {
				t.Error(err)
				return
			}
			defer resp.Body.Close()
			out[i], _ = io.ReadAll(resp.Body)
		}(i, doc)
	}
	wg.Wait()

	if bytes.Equal(out[0], out[1]) {
		t.Error("jobs with different budgets returned identical bodies")
	}
	resp, err := http.Get(ts.URL + "/statsz")
	if err != nil {
		t.Fatal(err)
	}
	var snap StatsSnapshot
	if err := json.Unmarshal(readAll(t, resp), &snap); err != nil {
		t.Fatal(err)
	}
	if snap.FlightsLed != 2 || snap.FlightsShared != 0 {
		t.Errorf("flights led/shared = %d/%d, want 2/0", snap.FlightsLed, snap.FlightsShared)
	}
}
