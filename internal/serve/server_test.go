package serve

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
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

// reopenServer builds a fresh Server, whose flight memo is empty, over a
// newly opened Store on s's store directory, so its first answer to a job
// s finished is served from the store files.
func reopenServer(t *testing.T, s *Server) (*Server, *httptest.Server) {
	t.Helper()
	store, err := experiments.OpenStore(s.store.Dir())
	if err != nil {
		t.Fatal(err)
	}
	return newTestServer(t, Options{Store: store})
}

// checkStoreServed posts job to a server over a store that holds every
// cell of it and checks the answer: it leads a flight that loads all
// cells and simulates none, and its body is want.
func checkStoreServed(t *testing.T, url, job string, cells int, want []byte) {
	t.Helper()
	resp := postJob(t, url, job)
	body := readAll(t, resp)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("store-served POST = %d: %s", resp.StatusCode, body)
	}
	if got := resp.Header.Get("X-NLS-Flight"); got != "leader" {
		t.Errorf("store-served flight = %q, want leader", got)
	}
	if got, want := resp.Header.Get("X-NLS-Cells-Loaded"), strconv.Itoa(cells); got != want {
		t.Errorf("store-served loaded = %q, want %s", got, want)
	}
	if got := resp.Header.Get("X-NLS-Cells-Simulated"); got != "0" {
		t.Errorf("store-served simulated = %q, want 0", got)
	}
	if !bytes.Equal(body, want) {
		t.Errorf("store-served body differs:\ngot:  %s\nwant: %s", body, want)
	}
}

// checkMemo checks that resp is a memo answer of a job with the given
// unique cell count and returns its body.
func checkMemo(t *testing.T, resp *http.Response, cells int) []byte {
	t.Helper()
	body := readAll(t, resp)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("memo POST = %d: %s", resp.StatusCode, body)
	}
	if got := resp.Header.Get("X-NLS-Flight"); got != "memo" {
		t.Errorf("flight = %q, want memo", got)
	}
	if got, want := resp.Header.Get("X-NLS-Cells-Loaded"), strconv.Itoa(cells); got != want {
		t.Errorf("memo loaded = %q, want %s", got, want)
	}
	if got := resp.Header.Get("X-NLS-Cells-Simulated"); got != "0" {
		t.Errorf("memo simulated = %q, want 0", got)
	}
	return body
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

// TestServerJobColdThenWarm: a cold job simulates; the warm re-request is
// answered by the retained flight, byte-identical; and a fresh server over
// the same store serves it from the store, byte-identical too.
func TestServerJobColdThenWarm(t *testing.T) {
	s, ts := newTestServer(t, Options{})

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
	if warmBody := checkMemo(t, warm, 1); !bytes.Equal(coldBody, warmBody) {
		t.Errorf("warm response differs from cold:\ncold: %s\nwarm: %s", coldBody, warmBody)
	}

	_, fresh := reopenServer(t, s)
	checkStoreServed(t, fresh.URL, tinyJob, 1, coldBody)
}

// TestServerPenaltyOnlyJob: a job that differs from a stored one only in
// penalties is a point of a penalty sweep. Its counters are the stored
// ones, so it shares the flight key: the new document is compiled once and
// answered by the retained flight, running nothing, with a byte-identical
// body. A fresh server over the same store serves it from the store.
func TestServerPenaltyOnlyJob(t *testing.T) {
	s, ts := newTestServer(t, Options{})
	runs := countExec(s)
	cold := postJob(t, ts.URL, tinyJob)
	coldBody := readAll(t, cold)
	if cold.StatusCode != http.StatusOK {
		t.Fatalf("cold POST = %d: %s", cold.StatusCode, coldBody)
	}
	penJob := strings.Replace(tinyJob, `"insns": 20000,`,
		`"insns": 20000, "penalties": {"misfetch": 3, "mispredict": 12, "cache_miss": 40},`, 1)
	pen := postJob(t, ts.URL, penJob)
	if got, want := pen.Header.Get("X-NLS-Job"), cold.Header.Get("X-NLS-Job"); got != want {
		t.Errorf("penalty job X-NLS-Job = %s, want %s", got, want)
	}
	if penBody := checkMemo(t, pen, 1); !bytes.Equal(coldBody, penBody) {
		t.Errorf("penalty job body differs:\ncold:    %s\npenalty: %s", coldBody, penBody)
	}
	if got := runs.Load(); got != 1 {
		t.Errorf("executor ran %d times, want 1 (the cold job)", got)
	}

	_, fresh := reopenServer(t, s)
	checkStoreServed(t, fresh.URL, penJob, 1, coldBody)
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

// oneArmJob is a one-program job of a single arm with the given spec.
func oneArmJob(spec string) string {
	return `{"schema": "nls-job/v1", "insns": 20000, "programs": ["li"],
  "grid": {"name": "envelope", "arms": [{"name": "a", "spec": ` + spec + `}]}}`
}

// Specs outside what the engines can simulate: a Johnson arm whose lines
// hold fewer instructions than one successor index covers (core.NewJohnson
// panics on it), a cache of more ways than the fetch oracle's 7-bit way
// field holds, and NLS pointers into more sets than their 16-bit set field
// holds.
var (
	johnsonNarrowLineSpec = `{"predictor": {"kind": "johnson"}, "cache": {"size_bytes": 8192, "line_bytes": 8, "assoc": 1}, "pht": {"kind": "none"}}`
	wideCacheSpec         = `{"predictor": {"kind": "nls-table", "entries": 1024}, "cache": {"size_bytes": 8192, "line_bytes": 32, "assoc": 256}, "pht": {"kind": "gshare", "entries": 1024, "history_bits": 6}}`
	manySetsSpec          = `{"predictor": {"kind": "nls-cache", "per_line": 1}, "cache": {"size_bytes": 4194304, "line_bytes": 32, "assoc": 1}, "pht": {"kind": "gshare", "entries": 1024, "history_bits": 6}}`
)

// TestServerRejectsUnsimulableSpecs: each such spec is a 400 naming the
// offending field, and the server goes on serving. The Johnson document
// used to panic inside an executor goroutine, ending the process.
func TestServerRejectsUnsimulableSpecs(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	for _, tc := range []struct{ name, spec, field string }{
		{"johnson 8-byte lines", johnsonNarrowLineSpec, "line_bytes"},
		{"256 ways", wideCacheSpec, "assoc"},
		{"131072 sets", manySetsSpec, "sets"},
	} {
		resp := postJob(t, ts.URL, oneArmJob(tc.spec))
		body := readAll(t, resp)
		if resp.StatusCode != http.StatusBadRequest || !bytes.Contains(body, []byte(tc.field)) {
			t.Errorf("%s: status %d (%s), want 400 naming %s", tc.name, resp.StatusCode, bytes.TrimSpace(body), tc.field)
		}
	}
	if resp := postJob(t, ts.URL, tinyJob); resp.StatusCode != http.StatusOK {
		t.Errorf("valid job after the rejections: status %d", resp.StatusCode)
	} else {
		readAll(t, resp)
	}
}

// TestServerStatsz: of two sequential identical requests the first leads a
// flight and the second is a memo answer, which counts no cells; the first
// request to a fresh server over the same store leads a flight that loads
// its cell.
func TestServerStatsz(t *testing.T) {
	s, ts := newTestServer(t, Options{})
	readAll(t, postJob(t, ts.URL, tinyJob))
	readAll(t, postJob(t, ts.URL, tinyJob))

	snap := scrapeStatsz(t, ts.URL)
	if snap.Schema != StatsSchema {
		t.Errorf("schema = %q, want %q", snap.Schema, StatsSchema)
	}
	if snap.JobsReceived != 2 || snap.FlightsLed != 1 || snap.JobsMemo != 1 {
		t.Errorf("received/led/memo = %d/%d/%d, want 2/1/1 (the repeat request is a memo answer)",
			snap.JobsReceived, snap.FlightsLed, snap.JobsMemo)
	}
	if snap.CellsSimulated != 1 || snap.CellsLoaded != 0 {
		t.Errorf("simulated/loaded = %d/%d, want 1/0 (cold simulates, the memo answer counts no cells)",
			snap.CellsSimulated, snap.CellsLoaded)
	}
	if snap.Draining {
		t.Error("draining = true on a live server")
	}

	_, fresh := reopenServer(t, s)
	readAll(t, postJob(t, fresh.URL, tinyJob))
	snap = scrapeStatsz(t, fresh.URL)
	if snap.JobsReceived != 1 || snap.FlightsLed != 1 || snap.JobsMemo != 0 {
		t.Errorf("fresh server received/led/memo = %d/%d/%d, want 1/1/0",
			snap.JobsReceived, snap.FlightsLed, snap.JobsMemo)
	}
	if snap.CellsSimulated != 0 || snap.CellsLoaded != 1 {
		t.Errorf("fresh server simulated/loaded = %d/%d, want 0/1 (served from the store)",
			snap.CellsSimulated, snap.CellsLoaded)
	}
}

// TestServerStream: a streamed cold job writes the run record after each
// program as progress lines under the manifest's keys — the last one the
// finished record, every cell served and each program's trace replayed
// once — and then, as its final line, the exact Result a plain request
// gets. The executor is held until the stream has subscribed, so the
// stream sees the final record.
func TestServerStream(t *testing.T) {
	s, ts := newTestServer(t, Options{})
	inner := s.exec
	var held atomic.Bool
	s.exec = func(job *CompiledJob, progress func(experiments.RunStats)) ([]byte, experiments.RunStats, error) {
		for deadline := time.Now().Add(5 * time.Second); !held.Load() && time.Now().Before(deadline); {
			s.flights.mu.Lock()
			hub := s.flights.inflight[job.Key].hub
			s.flights.mu.Unlock()
			hub.mu.Lock()
			held.Store(len(hub.subs) > 0)
			hub.mu.Unlock()
			time.Sleep(time.Millisecond)
		}
		return inner(job, progress)
	}
	job := strings.Replace(tinyJob, `["li"]`, `["li", "gcc"]`, 1)

	r, err := http.Post(ts.URL+"/v1/jobs?stream=1", "application/json", strings.NewReader(job))
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

	var lines [][]byte
	sc := bufio.NewScanner(r.Body)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	for sc.Scan() {
		lines = append(lines, append([]byte(nil), sc.Bytes()...))
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(lines) < 2 {
		t.Fatalf("stream produced %d lines, want progress then the result:\n%s", len(lines), bytes.Join(lines, []byte("\n")))
	}

	// Every line but the last is a progress record and nothing else.
	var ev progressEvent
	for i, line := range lines[:len(lines)-1] {
		dec := json.NewDecoder(bytes.NewReader(line))
		dec.DisallowUnknownFields()
		ev = progressEvent{}
		if err := dec.Decode(&ev); err != nil || ev.Type != "progress" {
			t.Fatalf("line %d is not a progress record: %q (err %v)", i+1, line, err)
		}
	}
	const programs, insns = 2, 20000
	if ev.Loaded+ev.Simulated != ev.TotalCells || ev.TotalCells != programs ||
		ev.Replays != programs || ev.Records != programs*insns {
		t.Errorf("last progress record %+v: want every one of %d cells served and %d records in %d replays",
			ev.RunRecord, programs, programs*insns, programs)
	}

	// The final line is the Result a plain request returns, byte-for-byte
	// (modulo the trailing newline the scanner strips).
	last := lines[len(lines)-1]
	var doc Result
	if err := json.Unmarshal(last, &doc); err != nil || doc.Schema != ResultSchema {
		t.Fatalf("final stream line is not a Result: %q (err %v)", last, err)
	}
	plain := readAll(t, postJob(t, ts.URL, job))
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
	s.exec = func(job *CompiledJob, progress func(experiments.RunStats)) ([]byte, experiments.RunStats, error) {
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
	doc := sha256.Sum256([]byte("doc"))
	fl, r := g.join("k", doc)
	if r != roleLeader {
		t.Fatalf("first join is %s, want leader", r)
	}
	if g.recall(doc) != nil {
		t.Fatal("recall found an unfinished flight")
	}
	fl2, r2 := g.join("k", sha256.Sum256([]byte("other doc")))
	if r2 != roleShared || fl2 != fl {
		t.Fatal("second join did not share the inflight flight")
	}
	flOther, rOther := g.join("k2", doc)
	if rOther != roleLeader || flOther == fl {
		t.Fatal("distinct key shared a flight")
	}

	g.finish(fl, []byte("body"), experiments.RunStats{Loaded: 3}, nil)
	<-fl.done
	if string(fl.body) != "body" || fl.stats.Loaded != 3 || fl.err != nil {
		t.Fatalf("finished flight = %q/%+v/%v", fl.body, fl.stats, fl.err)
	}
	// A post-completion join is answered by the retained flight, and so is
	// a recall of a document that compiled to its key. doc was last joined
	// under k2, whose flight is still inflight.
	if fl3, r3 := g.join("k", doc); r3 != roleMemo || fl3 != fl {
		t.Fatalf("join after finish is %s, want memo of the finished flight", r3)
	}
	if g.recall(doc) != fl {
		t.Fatal("recall missed the retained flight")
	}

	// A failed flight is not retained: the next join leads a fresh one.
	g.finish(flOther, nil, experiments.RunStats{}, errors.New("boom"))
	if fl4, r4 := g.join("k2", doc); r4 != roleLeader || fl4 == flOther {
		t.Fatalf("join after a failed flight is %s, want a fresh leader", r4)
	}
}

func TestProgressHubLatestWins(t *testing.T) {
	h := newProgressHub()
	ch, cancel := h.subscribe()
	defer cancel()

	h.publish(experiments.RunStats{Replays: 1})
	h.publish(experiments.RunStats{Replays: 2}) // replaces the unread 1
	if st := <-ch; st.Replays != 2 {
		t.Fatalf("read %d, want the latest snapshot 2", st.Replays)
	}

	h.close()
	if _, ok := <-ch; ok {
		t.Fatal("channel not closed by hub close")
	}
	// Publish and double-close after close are no-ops.
	h.publish(experiments.RunStats{Replays: 3})
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
		h.publish(experiments.RunStats{Replays: i})
	}
	close(stop)
	wg.Wait()
	h.close()
}

// TestProgressHubSlowSubscriber pins the latest-wins contract the executor
// depends on: a subscriber that never reads (a stalled streaming client)
// must not block publish — the publisher replaces the stale element and
// moves on — and a healthy subscriber on the same hub keeps receiving
// fresh snapshots. publish runs on the goroutine that holds the executor's
// run lock, so a block here would stall the whole sweep. Run under -race
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
			h.publish(experiments.RunStats{Replays: i})
			if i%100 == 0 {
				// Drain the healthy subscriber occasionally; it must see
				// ever-fresher snapshots despite its stalled sibling.
				if st := <-fast; st.Replays == 0 {
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
		if st.Replays == 0 {
			t.Errorf("stalled subscriber saw zero snapshot %+v", st)
		}
	default:
		t.Error("stalled subscriber has no buffered snapshot")
	}
	h.close()
}
