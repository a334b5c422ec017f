package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/experiments"
)

// tinyJob is a one-program, one-arm job small enough that the full
// HTTP-to-simulator path stays fast under -race.
const tinyJob = `{
  "schema": "nls-job/v1",
  "insns": 20000,
  "programs": ["li"],
  "grid": {
    "name": "tiny",
    "arms": [
      {
        "name": "nls",
        "spec": {
          "predictor": {"kind": "nls-table", "entries": 256},
          "cache": {"size_bytes": 4096, "line_bytes": 32, "assoc": 1},
          "pht": {"kind": "gshare", "entries": 512, "history_bits": 4}
        }
      }
    ]
  }
}`

// newTestServer builds a Server over a fresh store in t.TempDir and an
// httptest front end.
func newTestServer(t *testing.T, opts Options) (*Server, *httptest.Server) {
	t.Helper()
	if opts.Store == nil {
		store, err := experiments.OpenStore(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		opts.Store = store
	}
	s := New(opts)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

func postJob(t *testing.T, url, body string) *http.Response {
	t.Helper()
	resp, err := http.Post(url+"/v1/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func readAll(t *testing.T, resp *http.Response) []byte {
	t.Helper()
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestServerHealthz(t *testing.T) {
	s, ts := newTestServer(t, Options{})
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	if body := readAll(t, resp); resp.StatusCode != http.StatusOK || strings.TrimSpace(string(body)) != "ok" {
		t.Fatalf("healthz = %d %q, want 200 ok", resp.StatusCode, body)
	}

	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	resp, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	readAll(t, resp)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("healthz while draining = %d, want 503", resp.StatusCode)
	}
}

func TestServerJobColdThenWarm(t *testing.T) {
	_, ts := newTestServer(t, Options{})

	cold := postJob(t, ts.URL, tinyJob)
	coldBody := readAll(t, cold)
	if cold.StatusCode != http.StatusOK {
		t.Fatalf("cold POST = %d: %s", cold.StatusCode, coldBody)
	}
	if got := cold.Header.Get("X-NLS-Cells-Simulated"); got != "1" {
		t.Errorf("cold simulated = %q, want 1", got)
	}
	if got := cold.Header.Get("X-NLS-Flight"); got != "leader" {
		t.Errorf("cold flight = %q, want leader", got)
	}

	var doc Result
	if err := json.Unmarshal(coldBody, &doc); err != nil {
		t.Fatalf("cold body is not a Result: %v", err)
	}
	if doc.Schema != ResultSchema || doc.Insns != 20000 || len(doc.Rows) != 1 {
		t.Errorf("Result = schema %q, insns %d, %d rows; want %q, 20000, 1",
			doc.Schema, doc.Insns, len(doc.Rows), ResultSchema)
	}
	if doc.Rows[0].Program != "li-like" || doc.Rows[0].Arch != "nls" {
		t.Errorf("row labeled %q/%q, want li-like/nls", doc.Rows[0].Program, doc.Rows[0].Arch)
	}
	if doc.Key != cold.Header.Get("X-NLS-Job") {
		t.Errorf("body key %q != X-NLS-Job header %q", doc.Key, cold.Header.Get("X-NLS-Job"))
	}

	warm := postJob(t, ts.URL, tinyJob)
	warmBody := readAll(t, warm)
	if warm.StatusCode != http.StatusOK {
		t.Fatalf("warm POST = %d: %s", warm.StatusCode, warmBody)
	}
	if got := warm.Header.Get("X-NLS-Cells-Loaded"); got != "1" {
		t.Errorf("warm loaded = %q, want 1 (not served from store)", got)
	}
	if !bytes.Equal(coldBody, warmBody) {
		t.Errorf("warm response differs from cold:\ncold: %s\nwarm: %s", coldBody, warmBody)
	}
}

// TestServerPenaltyOnlyJob: a job that differs from a stored one only in
// penalties is a point of a penalty sweep. Its counters are the stored
// ones, so it is served from the store under the same flight key with a
// byte-identical body and simulates nothing.
func TestServerPenaltyOnlyJob(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	cold := postJob(t, ts.URL, tinyJob)
	coldBody := readAll(t, cold)
	if cold.StatusCode != http.StatusOK {
		t.Fatalf("cold POST = %d: %s", cold.StatusCode, coldBody)
	}
	pen := postJob(t, ts.URL, strings.Replace(tinyJob, `"insns": 20000,`,
		`"insns": 20000, "penalties": {"misfetch": 3, "mispredict": 12, "cache_miss": 40},`, 1))
	penBody := readAll(t, pen)
	if pen.StatusCode != http.StatusOK {
		t.Fatalf("penalty POST = %d: %s", pen.StatusCode, penBody)
	}
	if got, want := pen.Header.Get("X-NLS-Job"), cold.Header.Get("X-NLS-Job"); got != want {
		t.Errorf("penalty job X-NLS-Job = %s, want %s", got, want)
	}
	if got := pen.Header.Get("X-NLS-Cells-Simulated"); got != "0" {
		t.Errorf("penalty job simulated = %q, want 0", got)
	}
	if got := pen.Header.Get("X-NLS-Cells-Loaded"); got != "1" {
		t.Errorf("penalty job loaded = %q, want 1", got)
	}
	if !bytes.Equal(coldBody, penBody) {
		t.Errorf("penalty job body differs:\ncold:    %s\npenalty: %s", coldBody, penBody)
	}
}

func TestServerJobRejections(t *testing.T) {
	_, ts := newTestServer(t, Options{Limits: Limits{MaxBodyBytes: 2048}})

	cases := map[string]struct {
		body string
		want int
	}{
		"malformed json":  {body: `{"insns": `, want: http.StatusBadRequest},
		"unknown program": {body: strings.Replace(tinyJob, `["li"]`, `["quake"]`, 1), want: http.StatusBadRequest},
		"bad spec":        {body: strings.Replace(tinyJob, `"entries": 256`, `"entries": 257`, 1), want: http.StatusBadRequest},
		"oversized":       {body: tinyJob + strings.Repeat(" ", 4096), want: http.StatusRequestEntityTooLarge},
	}
	for name, tc := range cases {
		t.Run(name, func(t *testing.T) {
			resp := postJob(t, ts.URL, tc.body)
			body := readAll(t, resp)
			if resp.StatusCode != tc.want {
				t.Errorf("status = %d (%s), want %d", resp.StatusCode, bytes.TrimSpace(body), tc.want)
			}
		})
	}
}

func TestServerStatsz(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	readAll(t, postJob(t, ts.URL, tinyJob))
	readAll(t, postJob(t, ts.URL, tinyJob))

	resp, err := http.Get(ts.URL + "/statsz")
	if err != nil {
		t.Fatal(err)
	}
	var snap StatsSnapshot
	if err := json.Unmarshal(readAll(t, resp), &snap); err != nil {
		t.Fatal(err)
	}
	if snap.Schema != StatsSchema {
		t.Errorf("schema = %q, want %q", snap.Schema, StatsSchema)
	}
	if snap.JobsReceived != 2 || snap.FlightsLed != 2 {
		t.Errorf("received/led = %d/%d, want 2/2 (sequential requests lead distinct flights)",
			snap.JobsReceived, snap.FlightsLed)
	}
	if snap.CellsSimulated != 1 || snap.CellsLoaded != 1 {
		t.Errorf("simulated/loaded = %d/%d, want 1/1 (cold simulates, warm loads)",
			snap.CellsSimulated, snap.CellsLoaded)
	}
	if snap.Draining {
		t.Error("draining = true on a live server")
	}
}

func TestServerStream(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	resp := postJob(t, ts.URL, tinyJob+"") // warm the store? no — cold is fine for streaming
	readAll(t, resp)

	r, err := http.Post(ts.URL+"/v1/jobs?stream=1", "application/json", strings.NewReader(tinyJob))
	if err != nil {
		t.Fatal(err)
	}
	defer r.Body.Close()
	if r.StatusCode != http.StatusOK {
		t.Fatalf("stream POST = %d", r.StatusCode)
	}
	if ct := r.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("Content-Type = %q, want application/x-ndjson", ct)
	}

	// Every line but the last is a progress event; the last line is the
	// exact Result document a plain request returns.
	var last []byte
	sc := bufio.NewScanner(r.Body)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	lines := 0
	for sc.Scan() {
		lines++
		last = append(last[:0], sc.Bytes()...)
		var probe struct {
			Type   string `json:"type"`
			Schema string `json:"schema"`
			Error  string `json:"error"`
		}
		if err := json.Unmarshal(sc.Bytes(), &probe); err != nil {
			t.Fatalf("line %d is not JSON: %q", lines, sc.Bytes())
		}
		if probe.Type == "error" {
			t.Fatalf("stream reported error: %s", probe.Error)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if lines == 0 {
		t.Fatal("stream produced no lines")
	}
	var doc Result
	if err := json.Unmarshal(last, &doc); err != nil || doc.Schema != ResultSchema {
		t.Fatalf("final stream line is not a Result: %q (err %v)", last, err)
	}

	// The streamed result must match a plain request byte-for-byte (modulo
	// the trailing newline scanner strips).
	plain := readAll(t, postJob(t, ts.URL, tinyJob))
	if !bytes.Equal(append(last, '\n'), plain) {
		t.Error("streamed result differs from plain response")
	}
}

func TestServerShutdownRejectsNewJobs(t *testing.T) {
	s, ts := newTestServer(t, Options{})
	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	resp := postJob(t, ts.URL, tinyJob)
	readAll(t, resp)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("POST after Shutdown = %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("503 without Retry-After")
	}
}

func TestServerShutdownDrainsAcceptedJobs(t *testing.T) {
	release := make(chan struct{})
	s, ts := newTestServer(t, Options{})
	inner := s.exec
	s.exec = func(job *CompiledJob, progress func(experiments.SweepStats)) ([]byte, Accounting, error) {
		<-release
		return inner(job, progress)
	}

	done := make(chan []byte, 1)
	go func() {
		resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(tinyJob))
		if err != nil {
			done <- nil
			return
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		if resp.StatusCode != http.StatusOK {
			done <- nil
			return
		}
		done <- b
	}()

	// Wait until the job is inflight, then shut down while it is blocked.
	waitFor(t, func() bool { return s.stats.FlightsLed.Value() == 1 })
	shutdownErr := make(chan error, 1)
	go func() { shutdownErr <- s.Shutdown(context.Background()) }()

	// Shutdown must not complete while the accepted job is still running.
	select {
	case err := <-shutdownErr:
		t.Fatalf("Shutdown returned (%v) before the inflight job finished", err)
	case <-time.After(50 * time.Millisecond):
	}

	close(release)
	if err := <-shutdownErr; err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if body := <-done; body == nil {
		t.Fatal("the drained job's client did not get its 200 response")
	}
}

func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached in 5s")
		}
		time.Sleep(time.Millisecond)
	}
}

func TestPoolBusyAndDraining(t *testing.T) {
	p := newPool(1, 1)
	block := make(chan struct{})
	started := make(chan struct{})
	if err := p.submit(func() { close(started); <-block }); err != nil {
		t.Fatalf("first submit: %v", err)
	}
	<-started // the worker holds task 1; the queue slot is free
	// Worker busy; the single queue slot takes one more.
	if err := p.submit(func() {}); err != nil {
		t.Fatalf("queued submit: %v", err)
	}
	if err := p.submit(func() {}); err != ErrBusy {
		t.Fatalf("over-capacity submit = %v, want ErrBusy", err)
	}

	close(block)
	if err := p.shutdown(context.Background()); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if err := p.submit(func() {}); err != ErrDraining {
		t.Fatalf("submit after shutdown = %v, want ErrDraining", err)
	}
	// Shutdown is idempotent.
	if err := p.shutdown(context.Background()); err != nil {
		t.Fatalf("second shutdown: %v", err)
	}
}

func TestPoolShutdownHonorsContext(t *testing.T) {
	p := newPool(1, 1)
	block := make(chan struct{})
	defer close(block)
	if err := p.submit(func() { <-block }); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	if err := p.shutdown(ctx); err != context.DeadlineExceeded {
		t.Fatalf("shutdown with stuck task = %v, want DeadlineExceeded", err)
	}
}

func TestFlightGroupJoinFinish(t *testing.T) {
	var g flightGroup
	fl, leader := g.join("k")
	if !leader {
		t.Fatal("first join is not leader")
	}
	fl2, leader2 := g.join("k")
	if leader2 || fl2 != fl {
		t.Fatal("second join did not share the inflight flight")
	}
	if flOther, leaderOther := g.join("k2"); !leaderOther || flOther == fl {
		t.Fatal("distinct key shared a flight")
	}

	g.finish(fl, []byte("body"), Accounting{Loaded: 3}, nil)
	<-fl.done
	if string(fl.body) != "body" || fl.acct.Loaded != 3 || fl.err != nil {
		t.Fatalf("finished flight = %q/%+v/%v", fl.body, fl.acct, fl.err)
	}
	// A post-completion join starts a fresh flight.
	if _, leader3 := g.join("k"); !leader3 {
		t.Fatal("join after finish did not lead a fresh flight")
	}
}

func TestProgressHubLatestWins(t *testing.T) {
	h := newProgressHub()
	ch, cancel := h.subscribe()
	defer cancel()

	h.publish(experiments.SweepStats{Cells: 1})
	h.publish(experiments.SweepStats{Cells: 2}) // replaces the unread 1
	if st := <-ch; st.Cells != 2 {
		t.Fatalf("read %d, want the latest snapshot 2", st.Cells)
	}

	h.close()
	if _, ok := <-ch; ok {
		t.Fatal("channel not closed by hub close")
	}
	// Publish and double-close after close are no-ops.
	h.publish(experiments.SweepStats{Cells: 3})
	h.close()

	// Subscribing to a closed hub yields an already-closed channel.
	ch2, cancel2 := h.subscribe()
	defer cancel2()
	if _, ok := <-ch2; ok {
		t.Fatal("subscription to a closed hub was not closed")
	}
}

// TestProgressHubConcurrent hammers publish/subscribe/cancel under -race.
func TestProgressHubConcurrent(t *testing.T) {
	h := newProgressHub()
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				ch, cancel := h.subscribe()
				select {
				case <-ch:
				default:
				}
				cancel()
			}
		}()
	}
	for i := 0; i < 1000; i++ {
		h.publish(experiments.SweepStats{Cells: i})
	}
	close(stop)
	wg.Wait()
	h.close()
}

// TestProgressHubSlowSubscriber pins the latest-wins contract the executor
// depends on: a subscriber that never reads (a stalled streaming client)
// must not block publish — the publisher replaces the stale element and
// moves on — and a healthy subscriber on the same hub keeps receiving
// fresh snapshots. publish runs on the goroutine that holds the Runner's
// stats lock, so a block here would stall the whole sweep. Run under -race
// via `make stress`.
func TestProgressHubSlowSubscriber(t *testing.T) {
	h := newProgressHub()

	slow, cancelSlow := h.subscribe() // never read until the very end
	defer cancelSlow()
	fast, cancelFast := h.subscribe()
	defer cancelFast()

	// Publish far more snapshots than any channel buffers (capacity 1); if
	// publish could block on the stalled subscriber, this loop would hang
	// and the test would time out.
	const publishes = 10_000
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 1; i <= publishes; i++ {
			h.publish(experiments.SweepStats{Cells: i})
			if i%100 == 0 {
				// Drain the healthy subscriber occasionally; it must see
				// ever-fresher snapshots despite its stalled sibling.
				if st := <-fast; st.Cells == 0 {
					t.Error("fast subscriber read a zero snapshot")
				}
			}
		}
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("publish blocked on a stalled subscriber")
	}

	// The stalled subscriber's buffered element is the most recent publish
	// that reached it — latest-wins replaced everything older.
	select {
	case st := <-slow:
		if st.Cells == 0 {
			t.Errorf("stalled subscriber saw zero snapshot %+v", st)
		}
	default:
		t.Error("stalled subscriber has no buffered snapshot")
	}
	h.close()
}
