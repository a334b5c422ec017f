package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/experiments"
	"repro/internal/metrics"
	"repro/internal/serve"
	"repro/internal/workload"
	"repro/internal/xrand"
)

// The serve-mixed traffic. No record of real nlsserve traffic exists, so
// the jobs are the ones the repository documents, and the ratios between
// them are assumptions, each with its reason:
//
//   - The warm pool is the documented jobs at their documented budget (2M
//     insns): the example job of EXPERIMENTS.md "Serving sweeps" and every
//     grid the figure pipeline runs, which the README says the service
//     accepts. Set-up posts each once, cold.
//   - The loop runs in windows. In a window each client re-posts every
//     pool job sz.window times, in its own seeded order: re-rendering the
//     figure set from the store, the warm re-request the README documents.
//     Assumption: a client re-posts the whole set, not a seeded subset, so
//     every window and every seed asks for the same work.
//   - Each client also posts one novel job per window, at a seeded
//     position: the example job with a new `penalties` override (a
//     documented field), one point of a penalty-sensitivity sweep.
//     Penalties are part of every cell's key but not of the corpus key, so
//     the server replays the example's two programs from its corpus and
//     saves new cells, and the work does not depend on the penalty value.
//   - Each window ends with one more novel point that all clients post at
//     the same moment, so one flight is shared (single-flight, documented).
//   - Assumption: 16 re-posts of the pool per client for each novel point.
//     A novel point costs about as much as 50 warm posts, so at this ratio
//     store reads and serve overhead take about two thirds of a window,
//     while replay and store writes stay in it.

// The loop's closed-loop clients, each waiting for its reply, and the
// server's workers: one of each for each of the host's two CPUs.
const (
	serveClients = 2
	serveWorkers = 2
)

// serveSizes sizes the serve-mixed workload.
type serveSizes struct {
	insns  int // every job's per-program budget
	window int // pool re-posts per client per window
	setups int // set-ups measured for setup_s
}

func defaultServeSizes() serveSizes {
	return serveSizes{insns: paperInsns, window: 16, setups: 3}
}

// exampleJob is the job document of EXPERIMENTS.md "Serving sweeps".
const exampleJob = `{
  "schema": "nls-job/v1",
  "insns": 2000000,
  "programs": ["li", "gcc"],
  "grid": {
    "name": "table-vs-btb",
    "arms": [
      {"name": "1024 NLS-table", "spec": {
        "predictor": {"kind": "nls-table", "entries": 1024},
        "cache": {"size_bytes": 16384, "line_bytes": 32, "assoc": 1},
        "pht": {"kind": "gshare", "entries": 4096, "history_bits": 6}}},
      {"name": "256 BTB", "spec": {
        "predictor": {"kind": "btb", "entries": 256, "assoc": 4},
        "cache": {"size_bytes": 16384, "line_bytes": 32, "assoc": 1},
        "pht": {"kind": "gshare", "entries": 4096, "history_bits": 6}}}
    ]
  }
}`

// Request classes of the mix.
const (
	classWarm = "warm"
	classCold = "cold"
	classPair = "pair"
)

// request is one job of the mix as a client sends it.
type request struct {
	class string
	doc   []byte
	cells int // rows the response carries
	insns int
}

// newRequest validates a job as the server will and encodes it.
func newRequest(class string, job serve.Job) (request, error) {
	cj, err := serve.CompileJob(job, serve.Limits{})
	if err != nil {
		return request{}, fmt.Errorf("%s job %q: %w", class, job.Grid.Name, err)
	}
	doc, err := json.Marshal(job)
	if err != nil {
		return request{}, err
	}
	return request{class: class, doc: doc, cells: cj.Cells, insns: job.Insns}, nil
}

// documentedJobs returns the example job and every figure grid with arms
// (probed figures replay themselves and derived ones declare no arms),
// each at insns; a figure grid runs over all six programs, as the figure
// pipeline does.
func documentedJobs(insns int) (example serve.Job, jobs []serve.Job, err error) {
	if err := json.Unmarshal([]byte(exampleJob), &example); err != nil {
		return example, nil, err
	}
	example.Insns = insns
	jobs = []serve.Job{example}
	for _, f := range experiments.Figures() {
		if f.Probed == nil && len(f.Grid.Arms) > 0 {
			jobs = append(jobs, serve.Job{Schema: serve.JobSchema, Insns: insns, Grid: f.Grid})
		}
	}
	return example, jobs, nil
}

// shuffle returns the indices below n in a seeded order.
func shuffle(rng *xrand.Rng, n int) []int {
	perm := make([]int, n)
	for i := range perm {
		perm[i] = i
	}
	for i := range perm {
		j := i + rng.Intn(n-i)
		perm[i], perm[j] = perm[j], perm[i]
	}
	return perm
}

// mix is the seeded closed loop of serveClients clients.
type mix struct {
	seed    uint64
	sz      serveSizes
	pool    []request
	example serve.Job
	// missBase is where the seeded penalty sweep starts: novel job n sets
	// cache_miss to (missBase+n)/16 cycles, above the default 5.
	missBase int
	// expected holds the pool jobs' direct-executor bodies by document;
	// the clients only read it.
	expected map[string][]byte
	// directCorpus is the corpus directory of the direct executor runs.
	directCorpus string
}

func newMix(seed uint64, sz serveSizes) (*mix, error) {
	example, jobs, err := documentedJobs(sz.insns)
	if err != nil {
		return nil, err
	}
	m := &mix{seed: seed, sz: sz, example: example, missBase: 81 + xrand.New(seed^0x9001).Intn(1000)}
	for _, j := range jobs {
		r, err := newRequest(classWarm, j)
		if err != nil {
			return nil, err
		}
		m.pool = append(m.pool, r)
	}
	return m, nil
}

// novel returns the n-th point of the penalty sweep: the example job with
// a cache-miss penalty no earlier job used.
func (m *mix) novel(class string, n int) (request, error) {
	job := m.example
	job.Penalties = &metrics.Penalties{Misfetch: 1, Mispredict: 4, CacheMiss: float64(m.missBase+n) / 16}
	return newRequest(class, job)
}

// directBody runs a job document straight through an Executor without a
// store, replaying from the corpus under corpusDir, as the expected
// response body.
func directBody(doc []byte, corpusDir string) ([]byte, error) {
	job, err := serve.DecodeJob(bytes.NewReader(doc), serve.Limits{})
	if err != nil {
		return nil, err
	}
	x := &experiments.Executor{R: experiments.NewRunner(job.Cfg), CorpusDir: corpusDir}
	defer x.R.CloseCorpus()
	rs, err := x.RunGrids(false, job.Grid)
	if err != nil {
		return nil, err
	}
	body, err := json.Marshal(serve.Result{Schema: serve.ResultSchema, Key: job.Key, Insns: job.Cfg.Insns, Rows: rs.Rows(job.Grid)})
	if err != nil {
		return nil, err
	}
	return append(body, '\n'), nil
}

// service is one running in-process server on a loopback port.
type service struct {
	srv    *serve.Server
	http   *http.Server
	url    string
	client *http.Client
	done   chan struct{}
}

// startService starts a server with its own store and corpus under dir.
func startService(dir string) (*service, error) {
	st, err := experiments.OpenStore(filepath.Join(dir, "cells"))
	if err != nil {
		return nil, err
	}
	srv := serve.New(serve.Options{Store: st, CorpusDir: filepath.Join(dir, "corpus"), Workers: serveWorkers})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &service{
		srv:    srv,
		http:   &http.Server{Handler: srv.Handler()},
		url:    "http://" + ln.Addr().String(),
		client: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: serveClients}},
		done:   make(chan struct{}),
	}
	go func() {
		defer close(s.done)
		s.http.Serve(ln)
	}()
	return s, nil
}

// stop drains the server and waits for its goroutines.
func (s *service) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	s.srv.Shutdown(ctx)
	s.http.Shutdown(ctx)
	<-s.done
	s.client.CloseIdleConnections()
}

// post sends one job and returns the status and body.
func (s *service) post(doc []byte) (int, []byte, error) {
	resp, err := s.client.Post(s.url+"/v1/jobs", "application/json", bytes.NewReader(doc))
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return resp.StatusCode, body, err
}

// get fetches one read-only endpoint.
func (s *service) get(path string) ([]byte, error) {
	resp, err := s.client.Get(s.url + path)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: %s", path, resp.Status)
	}
	return io.ReadAll(resp.Body)
}

// setupService starts a server and warms the pool through it.
func setupService(dir string, pool []request) (*service, error) {
	s, err := startService(dir)
	if err != nil {
		return nil, err
	}
	for _, r := range pool {
		status, _, err := s.post(r.doc)
		if err == nil && status != http.StatusOK {
			err = fmt.Errorf("warming the pool: status %d", status)
		}
		if err != nil {
			s.stop()
			return nil, err
		}
	}
	return s, nil
}

// outcome is one completed request. A warm response is compared with
// its pool job's expected body as it arrives (match); a novel job's body
// is kept for checkOutcomes.
type outcome struct {
	req    request
	ms     float64
	status int
	match  bool
	body   []byte
	err    error
}

// loopResult is one run of the client loop.
type loopResult struct {
	outs []outcome
	// wall is the windows' own wall time and refCPU the CPU time of the
	// host references run between them, which neither jobs_per_s nor
	// cpu_util counts.
	wall   time.Duration
	refCPU time.Duration
	// windowRate is each window's delivered engine-steps per second
	// (Mstep/s), windowRef the host reference taken just before it,
	// windowAlloc the heap it allocated (MemStats.TotalAlloc delta) and
	// windowRSS the process's VmHWM over it. All cover server and clients
	// together.
	windowRate, windowRef, windowAlloc, windowRSS []float64
}

// loop runs whole windows, at least one, until d has passed and enough
// jobs are done for the p99 to have minBeyond beyond it. In a window every
// client posts each pool job sz.window times and one novel job, in its own
// seeded order, each waiting for its reply; then all clients post the
// window's shared novel job at the same moment. Every window asks for the
// same work.
func (m *mix) loop(s *service, d time.Duration, ref *hostRef) (loopResult, error) {
	send := func(r request) outcome {
		start := time.Now()
		status, body, err := s.post(r.doc)
		o := outcome{req: r, ms: float64(time.Since(start).Nanoseconds()) / 1e6, status: status, err: err}
		if r.class == classWarm {
			o.match = bytes.Equal(body, m.expected[string(r.doc)])
		} else {
			o.body = body
		}
		return o
	}
	const clients = serveClients
	rngs := make([]*xrand.Rng, clients)
	for c := range rngs {
		rngs[c] = xrand.New(m.seed ^ uint64(c+1)*0x51ed_2701)
	}
	// Each client's posts before the shared one: the pool sz.window times,
	// then (index n-1) its novel job.
	n := len(m.pool)*m.sz.window + 1
	var res loopResult
	var ms runtime.MemStats
	start := time.Now()
	for k := 0; k == 0 || time.Since(start) < d || len(res.outs) < 100*minBeyond; k++ {
		c0 := cpuTime()
		res.windowRef = append(res.windowRef, ref.rate())
		res.refCPU += cpuTime() - c0
		runtime.ReadMemStats(&ms)
		alloc0 := ms.TotalAlloc
		if err := resetPeakRSS(); err != nil {
			return res, err
		}
		windowStart := time.Now()
		results := make([][]outcome, clients)
		errs := make([]error, clients)
		var wg sync.WaitGroup
		for c := 0; c < clients; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				for _, i := range shuffle(rngs[c], n) {
					req := m.pool[i%len(m.pool)]
					if i == n-1 {
						if req, errs[c] = m.novel(classCold, (clients+1)*k+c); errs[c] != nil {
							return
						}
					}
					results[c] = append(results[c], send(req))
				}
			}(c)
		}
		wg.Wait()
		pair, err := m.novel(classPair, (clients+1)*k+clients)
		if err != nil {
			return res, err
		}
		gate := make(chan struct{})
		for c := 0; c < clients; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				<-gate
				results[c] = append(results[c], send(pair))
			}(c)
		}
		close(gate)
		wg.Wait()
		wall := time.Since(windowStart)
		res.wall += wall
		runtime.ReadMemStats(&ms)
		rss, err := peakRSSMB()
		if err != nil {
			return res, err
		}
		var steps float64
		for c := range results {
			if errs[c] != nil {
				return res, errs[c]
			}
			for _, o := range results[c] {
				steps += float64(o.req.cells) * float64(o.req.insns)
			}
			res.outs = append(res.outs, results[c]...)
		}
		res.windowRate = append(res.windowRate, steps/wall.Seconds()/1e6)
		res.windowAlloc = append(res.windowAlloc, mb(ms.TotalAlloc-alloc0))
		res.windowRSS = append(res.windowRSS, rss)
	}
	return res, nil
}

// directBodies runs directBody on every document, on GOMAXPROCS workers.
// The corpora the documents need must exist already: concurrent writers
// of one corpus would share its temporary file.
func directBodies(docs []string, corpusDir string) ([][]byte, error) {
	bodies := make([][]byte, len(docs))
	errs := make([]error, len(docs))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < runtime.GOMAXPROCS(0); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < len(docs); i = int(next.Add(1)) - 1 {
				bodies[i], errs[i] = directBody([]byte(docs[i]), corpusDir)
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return bodies, nil
}

// checkOutcomes verifies every response: status 200 and a body equal to
// the job run directly through an Executor without a store. Each distinct
// novel job is run directly once, after the loop.
func (m *mix) checkOutcomes(rep *report, outs []outcome) error {
	var docs []string
	want := map[string][]byte{}
	for _, o := range outs {
		if o.req.class != classWarm {
			if _, ok := want[string(o.req.doc)]; !ok {
				want[string(o.req.doc)] = nil
				docs = append(docs, string(o.req.doc))
			}
		}
	}
	bodies, err := directBodies(docs, m.directCorpus)
	if err != nil {
		return err
	}
	for i, d := range docs {
		want[d] = bodies[i]
	}

	rep.attempt(len(outs))
	for _, o := range outs {
		switch {
		case o.err != nil || o.status != http.StatusOK:
			rep.fail("%s job: status %d, err %v", o.req.class, o.status, o.err)
		case o.req.class == classWarm && !o.match,
			o.req.class != classWarm && !bytes.Equal(o.body, want[string(o.req.doc)]):
			rep.fail("%s job: body differs from the direct executor run", o.req.class)
		}
	}
	return nil
}

// checkedLoop runs the client loop for the given seconds under measure and
// checks every response.
func (m *mix) checkedLoop(rep *report, s *service, seconds float64, ref *hostRef) (loopResult, usage, error) {
	var lr loopResult
	use, err := measure(func() (err error) {
		lr, err = m.loop(s, time.Duration(seconds*float64(time.Second)), ref)
		return err
	})
	if err == nil {
		err = m.checkOutcomes(rep, lr.outs)
	}
	return lr, use, err
}

// latencies returns the outcomes' latencies, of one class or ("") all.
func latencies(outs []outcome, class string) []float64 {
	var xs []float64
	for _, o := range outs {
		if class == "" || o.req.class == class {
			xs = append(xs, o.ms)
		}
	}
	return xs
}

// runServeMixed is a closed loop of serveClients clients against an
// in-process server over loopback HTTP. Set-up starts the server and warms
// the pool, sz.setups times, each with a fresh store and corpus; the last
// server runs the timed loop.
func runServeMixed(o options, rep *report, work string) error {
	sz := o.serve
	m, err := newMix(o.seed, sz)
	if err != nil {
		return err
	}
	var setups []float64
	var s *service
	for i := 0; i < sz.setups; i++ {
		if s != nil {
			s.stop()
		}
		start := time.Now()
		if s, err = setupService(filepath.Join(work, fmt.Sprintf("serve-%d", i)), m.pool); err != nil {
			return err
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	defer s.stop()

	// The example job and the first figure grid write the two corpora
	// every direct run reads; the other pool jobs run in parallel.
	m.directCorpus = filepath.Join(work, "direct-corpus")
	var docs []string
	for _, r := range m.pool {
		docs = append(docs, string(r.doc))
	}
	var bodies [][]byte
	for _, d := range docs[:2] {
		body, err := directBody([]byte(d), m.directCorpus)
		if err != nil {
			return err
		}
		bodies = append(bodies, body)
	}
	rest, err := directBodies(docs[2:], m.directCorpus)
	if err != nil {
		return err
	}
	m.expected = map[string][]byte{}
	for i, body := range append(bodies, rest...) {
		m.expected[docs[i]] = body
	}
	if o.trace {
		return m.traced(o, rep, s, work)
	}

	lr, _, err := m.checkedLoop(rep, s, o.seconds, o.ref)
	if err != nil {
		return err
	}
	all := latencies(lr.outs, "")
	p99, err := tailPercentile(all, 0.99)
	if err != nil {
		return fmt.Errorf("job_p99_ms: %w", err)
	}
	rep.add("setup_s", median(setups), "s")
	rates := make([]float64, len(lr.windowRate))
	for i, r := range lr.windowRate {
		rates[i] = r * refNominal / lr.windowRef[i]
	}
	rep.add("mstep_per_s", median(rates), "Mstep/s")
	rep.add("peak_rss_mb", median(lr.windowRSS), "MB")
	rep.add("alloc_mb", median(lr.windowAlloc), "MB")
	rep.add("mstep_per_s_raw", median(lr.windowRate), "Mstep/s")
	rep.add("host_ref", median(lr.windowRef), "Mrec/s")
	rep.add("jobs_per_s", float64(len(lr.outs))/lr.wall.Seconds(), "jobs/s")
	rep.add("job_p50_ms", median(all), "ms")
	rep.add("job_p99_ms", p99, "ms")
	rep.add("job_samples", float64(len(all)), "count")
	return nil
}

// traced is serve-mixed's --trace 1 run: the client loop, then /statsz
// and /metricsz scraped, DecodeJob and Handler().ServeHTTP timed directly,
// and the ledger restating the warm pool's cells layer by layer.
//
// Two sources feed the layer metrics. The served traffic gives the cell
// and replay counts (/statsz), the runtime and CPU figures (the loop) and
// the serve.* metrics. The pool restated cold as a batch fixture gives
// the layer times: workload.*, trace.*, cache.*, fetch.*, the executor's
// stage times and ledger.*, so that fetch.unattributed_s is
// experiments.replay_s minus fetch.engine_busy_s here as on the batch
// workloads. The served traffic's own stage times are printed as serve.*.
func (m *mix) traced(o options, rep *report, s *service, work string) error {
	expected := m.expected
	lr, use, err := m.checkedLoop(rep, s, o.seconds, o.ref)
	if err != nil {
		return err
	}
	outs := lr.outs
	var stats serve.StatsSnapshot
	buf, err := s.get("/statsz")
	if err == nil {
		err = json.Unmarshal(buf, &stats)
	}
	if err != nil {
		return fmt.Errorf("statsz: %w", err)
	}
	text, err := s.get("/metricsz")
	if err != nil {
		return err
	}
	prom := parseProm(text)

	var decode []float64
	for i := 0; i < 30*len(m.pool); i++ {
		doc := m.pool[i%len(m.pool)].doc
		start := time.Now()
		if _, err := serve.DecodeJob(bytes.NewReader(doc), serve.Limits{}); err != nil {
			return err
		}
		decode = append(decode, float64(time.Since(start).Nanoseconds())/1e3)
	}
	var handler []float64
	h := s.srv.Handler()
	for i := 0; i < 8*len(m.pool); i++ {
		r := m.pool[i%len(m.pool)]
		req := httptest.NewRequest(http.MethodPost, "/v1/jobs", bytes.NewReader(r.doc))
		w := httptest.NewRecorder()
		start := time.Now()
		h.ServeHTTP(w, req)
		handler = append(handler, float64(time.Since(start).Nanoseconds())/1e6)
		rep.attempt(1)
		if w.Code != http.StatusOK || !bytes.Equal(w.Body.Bytes(), expected[string(r.doc)]) {
			rep.fail("handler: warm job status %d or body differs", w.Code)
		}
	}

	// The ledger's fixture is the pool's grids over all six programs at
	// the pool budget; its rows must equal every pool response's rows.
	cfg := experiments.Config{Insns: m.sz.insns, Programs: workload.All(), Penalties: metrics.Default()}
	fx := &batch{name: o.workload, cfg: cfg}
	for _, r := range m.pool {
		var job serve.Job
		if err := json.Unmarshal(r.doc, &job); err != nil {
			return err
		}
		fx.grids = append(fx.grids, job.Grid)
	}
	var walls []float64
	var prod passOut
	for n := 1; n <= 3; n++ {
		dir := filepath.Join(work, fmt.Sprintf("fixture-pass-%d", n))
		if prod, err = fx.pass(dir); err != nil {
			return err
		}
		os.RemoveAll(dir)
		walls = append(walls, prod.use.wall.Seconds())
	}
	t := newTracer(fmt.Sprintf("%s-seed%d-%d", o.workload, o.seed, time.Now().UnixNano()))
	lo, err := runLedger(t, ledgerInput{cfg: cfg, grids: fx.grids, dir: filepath.Join(work, "ledger")})
	if err != nil {
		return fmt.Errorf("ledger: %w", err)
	}
	compareRows(rep, "fixture pass vs ledger", lo.rows, prod.rows)
	poolRows := map[string]metrics.Counters{}
	for _, r := range m.pool {
		var res serve.Result
		if err := json.Unmarshal(expected[string(r.doc)], &res); err != nil {
			return err
		}
		for _, row := range res.Rows {
			w, _ := workload.ByName(row.Program)
			poolRows[experiments.Cell{Prog: w, Spec: row.Spec}.Key(cfg)] = row.M
		}
	}
	compareRows(rep, "ledger vs serve pool responses", poolRows, lo.rows)
	d, err := runDiagnostics(t, rep, cfg, lo, filepath.Join(work, "diagnostics"))
	if err != nil {
		return fmt.Errorf("diagnostics: %w", err)
	}

	var busy float64
	for _, tm := range prod.rs.Timings {
		busy += tm.Seconds
	}
	ps := prodStats{
		stages:    prod.stages,
		simulated: int(stats.CellsSimulated), loaded: int(stats.CellsLoaded),
		deduped: int(stats.CellsDeduped), replays: int(stats.TraceReplays),
		steps: fx.steps(prod), busy: busy, unattributed: prod.stages["replay"] - busy,
		use: use, cpu: use.cpu - lr.refCPU, cpuWall: lr.wall,
		medianWall: median(walls),
	}
	addLayerMetrics(rep, t, lo, d, ps)

	warm := median(latencies(outs, classWarm))
	hw := median(handler)
	rep.add("serve.decode_us", median(decode), "us")
	rep.add("serve.handler_warm_ms", hw, "ms")
	rep.add("serve.transport_ms", warm-hw, "ms")
	rep.add("serve.warm_p50_ms", warm, "ms")
	rep.add("serve.cold_p50_ms", median(latencies(outs, classCold)), "ms")
	rep.add("serve.pair_p50_ms", median(latencies(outs, classPair)), "ms")
	rep.add("serve.queue_wait_ms", 1e3*prom["nls_queue_wait_seconds_sum"]/prom["nls_queue_wait_seconds_count"], "ms")
	rep.add("serve.job_ms", 1e3*prom["nls_job_seconds_sum"]/prom["nls_job_seconds_count"], "ms")
	rep.add("serve.store_hit_rate", stats.StoreHitRate, "ratio")
	rep.add("serve.flight_share_rate", stats.FlightShareRate, "ratio")
	for _, stage := range []string{"gather", "gen-corpus", "trace-gen", "replay", "store-save"} {
		rep.add("serve."+strings.ReplaceAll(stage, "-", "_")+"_s",
			prom[`nls_executor_stage_seconds_sum{stage="`+stage+`"}`], "s")
	}
	return t.write(filepath.Join(o.outDir, fmt.Sprintf("spans-%s-seed%d.json", o.workload, o.seed)), rep.metrics)
}

// parseProm reads Prometheus text exposition into series → value.
func parseProm(text []byte) map[string]float64 {
	out := map[string]float64{}
	sc := bufio.NewScanner(bytes.NewReader(text))
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
			out[line[:i]] = v
		}
	}
	return out
}
