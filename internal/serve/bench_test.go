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

// BenchmarkServeWarmJob measures what a store-served job costs the
// service in front of the engines: decoding and compiling the job, its
// flight, the executor's store probes, and encoding the response. Every
// iteration posts one job of the mix through Handler().ServeHTTP (cycling
// through the mix) against a store the untimed warm-up filled, so no
// iteration simulates. ns/op, B/op and allocs/op are per job; µs/job
// restates ns/op.
func BenchmarkServeWarmJob(b *testing.B) {
	store, err := experiments.OpenStore(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	s := New(Options{Store: store, Workers: 1})
	defer s.Shutdown(context.Background())
	h := s.Handler()
	docs := warmJobDocs(b)
	post := func(doc []byte) *httptest.ResponseRecorder {
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/jobs", bytes.NewReader(doc)))
		if w.Code != http.StatusOK {
			b.Fatalf("status %d: %s", w.Code, w.Body)
		}
		return w
	}
	for _, doc := range docs {
		post(doc) // cold: simulate and fill the store
	}
	for _, doc := range docs {
		if w := post(doc); w.Header().Get("X-NLS-Cells-Simulated") != "0" {
			b.Fatalf("warm job simulated %s cells", w.Header().Get("X-NLS-Cells-Simulated"))
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		post(docs[i%len(docs)])
	}
	b.ReportMetric(float64(b.Elapsed().Microseconds())/float64(b.N), "µs/job")
}
