package serve

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"net/http"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/experiments"
)

// countExec wraps s.exec to count executor invocations.
func countExec(s *Server) *atomic.Int64 {
	var n atomic.Int64
	inner := s.exec
	s.exec = func(job *CompiledJob, progress func(experiments.RunStats)) ([]byte, experiments.RunStats, error) {
		n.Add(1)
		return inner(job, progress)
	}
	return &n
}

// TestServerMemoRepeatDocument: a repeat document is answered by the
// retained flight without decoding or running anything: the body is
// byte-identical, X-NLS-Flight is memo, and neither the executor nor
// flights_led moves. A streamed repeat gets the result line alone.
func TestServerMemoRepeatDocument(t *testing.T) {
	s, ts := newTestServer(t, Options{})
	runs := countExec(s)
	cold := postJob(t, ts.URL, tinyJob)
	coldBody := readAll(t, cold)
	if cold.StatusCode != http.StatusOK || cold.Header.Get("X-NLS-Flight") != "leader" {
		t.Fatalf("cold POST = %d, flight %q", cold.StatusCode, cold.Header.Get("X-NLS-Flight"))
	}
	if s.flights.recall(sha256.Sum256([]byte(tinyJob))) == nil {
		t.Fatal("the compiled document's digest does not recall its finished flight")
	}

	for i := 0; i < 3; i++ {
		warm := postJob(t, ts.URL, tinyJob)
		if got := warm.Header.Get("X-NLS-Job"); got != cold.Header.Get("X-NLS-Job") {
			t.Errorf("memo X-NLS-Job = %s, want %s", got, cold.Header.Get("X-NLS-Job"))
		}
		if body := checkMemo(t, warm, 1); !bytes.Equal(body, coldBody) {
			t.Fatalf("memo body differs:\n%s\nvs\n%s", body, coldBody)
		}
	}

	r, err := http.Post(ts.URL+"/v1/jobs?stream=1", "application/json", strings.NewReader(tinyJob))
	if err != nil {
		t.Fatal(err)
	}
	if got := r.Header.Get("X-NLS-Flight"); got != "memo" {
		t.Errorf("streamed repeat flight = %q, want memo", got)
	}
	if stream := readAll(t, r); !bytes.Equal(stream, coldBody) {
		t.Errorf("streamed repeat is not the result line alone:\n%s", stream)
	}

	if got := runs.Load(); got != 1 {
		t.Errorf("executor ran %d times, want 1", got)
	}
	snap := scrapeStatsz(t, ts.URL)
	if snap.FlightsLed != 1 || snap.FlightsShared != 0 || snap.JobsMemo != 4 {
		t.Errorf("led/shared/memo = %d/%d/%d, want 1/0/4", snap.FlightsLed, snap.FlightsShared, snap.JobsMemo)
	}
	if snap.CellsSimulated != 1 || snap.CellsLoaded != 0 || snap.TraceReplays != 1 {
		t.Errorf("simulated/loaded/replays = %d/%d/%d, want 1/0/1 (memo answers run nothing)",
			snap.CellsSimulated, snap.CellsLoaded, snap.TraceReplays)
	}
}

// TestServerMemoSkipsFailedFlight: a failed flight is never retained, so
// the next identical request leads a fresh flight.
func TestServerMemoSkipsFailedFlight(t *testing.T) {
	s, ts := newTestServer(t, Options{})
	inner := s.exec
	var runs atomic.Int64
	s.exec = func(job *CompiledJob, progress func(experiments.RunStats)) ([]byte, experiments.RunStats, error) {
		if runs.Add(1) == 1 {
			return nil, experiments.RunStats{}, errors.New("injected failure")
		}
		return inner(job, progress)
	}
	if r := postJob(t, ts.URL, tinyJob); r.StatusCode != http.StatusInternalServerError {
		t.Fatalf("failing POST = %d, want 500", r.StatusCode)
	} else {
		readAll(t, r)
	}
	r := postJob(t, ts.URL, tinyJob)
	readAll(t, r)
	if r.StatusCode != http.StatusOK || r.Header.Get("X-NLS-Flight") != "leader" {
		t.Fatalf("retry after a failed flight = %d, flight %q; want 200 leader", r.StatusCode, r.Header.Get("X-NLS-Flight"))
	}
	if got := runs.Load(); got != 2 {
		t.Errorf("executor ran %d times, want 2", got)
	}
	if snap := scrapeStatsz(t, ts.URL); snap.FlightsLed != 2 || snap.JobsMemo != 0 || snap.JobsFailed != 1 {
		t.Errorf("led/memo/failed = %d/%d/%d, want 2/0/1", snap.FlightsLed, snap.JobsMemo, snap.JobsFailed)
	}
}

// TestServerMemoRejectsInvalidTwice: only a document that compiled is
// remembered, so an invalid one is decoded and rejected on every post.
func TestServerMemoRejectsInvalidTwice(t *testing.T) {
	s, ts := newTestServer(t, Options{})
	bad := strings.Replace(tinyJob, `"entries": 256`, `"entries": 257`, 1)
	for i := 0; i < 2; i++ {
		r := postJob(t, ts.URL, bad)
		if body := readAll(t, r); r.StatusCode != http.StatusBadRequest {
			t.Fatalf("post %d of an invalid job = %d (%s), want 400", i+1, r.StatusCode, body)
		}
	}
	if snap := scrapeStatsz(t, ts.URL); snap.JobsRejected != 2 || snap.JobsMemo != 0 || snap.FlightsLed != 0 {
		t.Errorf("rejected/memo/led = %d/%d/%d, want 2/0/0", snap.JobsRejected, snap.JobsMemo, snap.FlightsLed)
	}
	s.flights.mu.Lock()
	docs := len(s.flights.docs)
	s.flights.mu.Unlock()
	if docs != 0 {
		t.Error("an invalid document was remembered")
	}
}

// TestServerMemoBoundClears: retaining bodies past retainedBodyBytes clears
// the memo, so the next request for a job whose flight was retained leads
// a flight again, served from the store with a byte-identical body.
func TestServerMemoBoundClears(t *testing.T) {
	s, ts := newTestServer(t, Options{})
	inner := s.exec
	filler := make([]byte, retainedBodyBytes/2+1)
	s.exec = func(job *CompiledJob, progress func(experiments.RunStats)) ([]byte, experiments.RunStats, error) {
		body, st, err := inner(job, progress)
		if job.Cfg.Insns != 20000 {
			body = filler // a body half the bound, for the filler jobs
		}
		return body, st, err
	}
	first := postJob(t, ts.URL, tinyJob)
	firstBody := readAll(t, first)
	if first.StatusCode != http.StatusOK {
		t.Fatalf("cold POST = %d", first.StatusCode)
	}
	checkMemo(t, postJob(t, ts.URL, tinyJob), 1)

	// Two filler bodies of more than half the bound: the second clears.
	for _, insns := range []string{"20001", "20002"} {
		r := postJob(t, ts.URL, strings.Replace(tinyJob, `"insns": 20000`, `"insns": `+insns, 1))
		if readAll(t, r); r.StatusCode != http.StatusOK {
			t.Fatalf("filler POST = %d", r.StatusCode)
		}
		s.flights.mu.Lock()
		held := s.flights.held
		s.flights.mu.Unlock()
		if held > retainedBodyBytes {
			t.Fatalf("memo holds %d body bytes, bound %d", held, retainedBodyBytes)
		}
	}
	checkStoreServed(t, ts.URL, tinyJob, 1, firstBody)
}

// TestFlightGroupRetainBound: the retained bodies never exceed
// retainedBodyBytes, a body larger than the bound is never retained, and
// the document map never exceeds docKeysMax.
func TestFlightGroupRetainBound(t *testing.T) {
	var g flightGroup
	body := make([]byte, retainedBodyBytes/3)
	finish := func(key string, body []byte) {
		fl, r := g.join(key, sha256.Sum256([]byte(key)))
		if r != roleLeader {
			t.Fatalf("key %s: %s, want leader", key, r)
		}
		g.finish(fl, body, experiments.RunStats{}, nil)
	}
	for i := 0; i < 10; i++ {
		finish(string(rune('a'+i)), body)
		if g.held > retainedBodyBytes || g.held != len(g.retained)*len(body) {
			t.Fatalf("after %d flights: %d bytes held in %d flights, bound %d", i+1, g.held, len(g.retained), retainedBodyBytes)
		}
	}
	finish("huge", make([]byte, retainedBodyBytes+1))
	if g.retained["huge"] != nil {
		t.Error("a body larger than the bound was retained")
	}
	for i := 0; i <= docKeysMax; i++ {
		var doc [sha256.Size]byte
		binary.LittleEndian.PutUint64(doc[:], uint64(i))
		g.join("a", doc)
		if len(g.docs) > docKeysMax {
			t.Fatalf("document map holds %d entries, bound %d", len(g.docs), docKeysMax)
		}
	}
}

// TestServerMemoMatchesStore: every memo answer equals the answer a fresh
// server over the same store gives the same document, for the documented
// job mix, a penalty-only variant and a streamed repeat.
func TestServerMemoMatchesStore(t *testing.T) {
	s, ts := newTestServer(t, Options{})
	docs := warmJobDocs(t)
	docs = append(docs, []byte(strings.Replace(tinyJob, `"insns": 20000,`,
		`"insns": 20000, "penalties": {"misfetch": 2, "mispredict": 9, "cache_miss": 30},`, 1)))
	docs = append(docs, []byte(tinyJob))
	for _, doc := range docs {
		readAll(t, postJob(t, ts.URL, string(doc))) // cold
	}
	memo := make([]*http.Response, len(docs))
	for i, doc := range docs {
		memo[i] = postJob(t, ts.URL, string(doc))
	}

	// The store-served answer loads every unique cell of the job, which is
	// what a memo answer reports loaded.
	_, fresh := reopenServer(t, s)
	bodies := make([][]byte, len(docs))
	for i, doc := range docs {
		r := postJob(t, fresh.URL, string(doc))
		cells, err := strconv.Atoi(r.Header.Get("X-NLS-Cells-Loaded"))
		if err != nil {
			t.Fatal(err)
		}
		if bodies[i] = checkMemo(t, memo[i], cells); !bytes.Equal(bodies[i], readAll(t, r)) {
			t.Errorf("doc %d: memo answer differs from the store-served answer", i)
		}
		if r.StatusCode != http.StatusOK || r.Header.Get("X-NLS-Cells-Simulated") != "0" {
			t.Fatalf("doc %d: fresh server answered %d, simulated %s", i, r.StatusCode, r.Header.Get("X-NLS-Cells-Simulated"))
		}
	}

	r, err := http.Post(ts.URL+"/v1/jobs?stream=1", "application/json", bytes.NewReader(docs[0]))
	if err != nil {
		t.Fatal(err)
	}
	sc := bufio.NewScanner(r.Body)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	var lines int
	for sc.Scan() {
		lines++
		if !bytes.Equal(append(sc.Bytes(), '\n'), bodies[0]) {
			t.Errorf("streamed memo line %d differs from the memo body", lines)
		}
	}
	r.Body.Close()
	if lines != 1 {
		t.Errorf("streamed memo answer has %d lines, want the result alone", lines)
	}
}
