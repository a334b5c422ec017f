package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/experiments"
)

// warmJobInsns is the budget of the warm-job benchmark's jobs. A warm job
// never replays a trace, so the budget only changes the digits of each key
// document; a small one keeps the untimed cold warm-up short.
const warmJobInsns = 20_000

// warmJobDocs returns the wire documents of the benchmark's job mix: the
// documented example job and every figure grid with arms (probed figures
// replay themselves, derived ones declare no arms), each at
// warmJobInsns over the figure pipeline's six programs.
func warmJobDocs(tb testing.TB) [][]byte {
	tb.Helper()
	var example Job
	if err := json.Unmarshal([]byte(exampleJob), &example); err != nil {
		tb.Fatal(err)
	}
	example.Insns = warmJobInsns
	jobs := []Job{example}
	for _, f := range experiments.Figures() {
		if f.Probed == nil && len(f.Grid.Arms) > 0 {
			jobs = append(jobs, Job{Schema: JobSchema, Insns: warmJobInsns, Grid: f.Grid})
		}
	}
	docs := make([][]byte, len(jobs))
	for i, j := range jobs {
		doc, err := json.Marshal(j)
		if err != nil {
			tb.Fatal(err)
		}
		docs[i] = doc
	}
	return docs
}

// BenchmarkServeWarmJob measures what a repeat job costs the service: a
// memo answer, which reads the body, finds its digest's retained flight
// and writes the retained body, with no decoding, no executor and no store
// read. Every iteration posts one job of the mix through
// Handler().ServeHTTP (cycling through the mix) to a server whose untimed
// warm-up finished every job's flight, so every iteration is a memo
// answer. ns/op, B/op and allocs/op are per job; µs/job restates ns/op.
func BenchmarkServeWarmJob(b *testing.B) {
	store, err := experiments.OpenStore(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	s := New(Options{Store: store, Workers: 1})
	defer s.Shutdown(context.Background())
	h := s.Handler()
	docs := warmJobDocs(b)
	for _, doc := range docs {
		serveJob(b, h, doc) // cold: simulate and fill the store
	}
	for _, doc := range docs {
		if w := serveJob(b, h, doc); w.Header().Get("X-NLS-Flight") != "memo" {
			b.Fatalf("warm job flight %q, want memo", w.Header().Get("X-NLS-Flight"))
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		serveJob(b, h, docs[i%len(docs)])
	}
	b.ReportMetric(float64(b.Elapsed().Microseconds())/float64(b.N), "µs/job")
}

// BenchmarkServeFirstHitJob measures a store-served job, every cell a
// first hit: decoding and compiling the job, its flight, the executor's
// store reads, and encoding the response. Each iteration posts one job of
// the mix to a new server, with no finished flight, over a newly opened
// Store, whose memo of decoded cells is empty, on the directory an untimed
// pass filled, so every cell of the job is read and decoded from disk.
// Opening the store and starting and stopping the server are untimed. The
// gap to BenchmarkServeWarmJob is what the retained flights save a repeat
// job.
func BenchmarkServeFirstHitJob(b *testing.B) {
	dir := b.TempDir()
	docs := warmJobDocs(b)
	start := func() *Server {
		store, err := experiments.OpenStore(dir)
		if err != nil {
			b.Fatal(err)
		}
		return New(Options{Store: store, Workers: 1})
	}
	s := start()
	for _, doc := range docs {
		serveJob(b, s.Handler(), doc) // cold: simulate and fill the store
	}
	s.Shutdown(context.Background())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		s := start()
		h := s.Handler()
		b.StartTimer()
		w := serveJob(b, h, docs[i%len(docs)])
		b.StopTimer()
		if w.Header().Get("X-NLS-Flight") != "leader" || w.Header().Get("X-NLS-Cells-Simulated") != "0" {
			b.Fatalf("first-hit job: flight %q, simulated %s cells; want a leader that simulates none",
				w.Header().Get("X-NLS-Flight"), w.Header().Get("X-NLS-Cells-Simulated"))
		}
		s.Shutdown(context.Background())
		b.StartTimer()
	}
	b.ReportMetric(float64(b.Elapsed().Microseconds())/float64(b.N), "µs/job")
}

// serveJob posts one job document through h and fails the benchmark
// unless it answers 200.
func serveJob(b *testing.B, h http.Handler, doc []byte) *httptest.ResponseRecorder {
	w := httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/jobs", bytes.NewReader(doc)))
	if w.Code != http.StatusOK {
		b.Fatalf("status %d: %s", w.Code, w.Body)
	}
	return w
}
