// Command nlsserve is the concurrent sweep service: a long-running HTTP
// server that accepts grid/arch-spec jobs as JSON, schedules them on a
// bounded worker pool over the shared-replay executor, and serves results
// from the content-addressed cell store with single-flight dedup — N
// concurrent identical requests cost one simulation, and a warm
// re-request is answered by the finished flight, byte-identical to the
// cold response. See DESIGN.md §12 and EXPERIMENTS.md "Serving sweeps".
//
// Usage:
//
//	nlsserve [-addr host:port] [-store dir] [-workers n] [-queue n]
//	         [-max-insns n] [-max-cells n] [-max-body bytes]
//	         [-drain-timeout d] [-smoke]
//
// Endpoints: POST /v1/jobs (add ?stream=1 for ndjson progress),
// GET /healthz, GET /statsz (JSON counters), GET /metricsz (the same
// counters plus latency histograms, Prometheus text format). Requests are
// logged to stderr via log/slog with per-job IDs.
//
// SIGINT/SIGTERM triggers a graceful shutdown: new jobs get 503, accepted
// jobs drain to completion (bounded by -drain-timeout), then the listener
// closes.
//
// -smoke runs the CI self-test instead of serving: it starts the server
// on a loopback port with a temporary store, POSTs a tiny one-cell job
// twice, verifies the second (warm) response is a memo answer of the
// finished flight, byte-identical to the first (cold) one, then POSTs it
// once more with only its penalties changed and verifies that too is a
// memo answer under the same job key, byte-identical. A second server
// opened on the same store directory must serve the job from the store:
// a led flight, every cell loaded, none simulated, the same body. A
// streamed POST of a two-program job must write only progress records
// before its final line, and that line must be byte-identical to a plain
// POST's body. It also cross-checks /metricsz against /statsz — the same
// counters through both exposition paths.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/experiments"
	"repro/internal/serve"
)

func main() {
	var (
		addr         = flag.String("addr", "127.0.0.1:8372", "listen address")
		storeDir     = flag.String("store", experiments.DefaultStoreDir(), "content-addressed results store directory (empty disables caching)")
		corpusDir    = flag.String("corpus", experiments.DefaultCorpusDir(), "disk-backed trace corpus directory: the first job of a configuration generates traces once, later jobs replay from disk (empty disables)")
		workers      = flag.Int("workers", 0, "executor pool size (0 = GOMAXPROCS)")
		queue        = flag.Int("queue", 64, "accepted-but-not-running job bound (beyond it: 503)")
		maxInsns     = flag.Int("max-insns", 0, "per-program instruction budget cap (0 = default)")
		maxCells     = flag.Int("max-cells", 0, "per-job cell cap (0 = default)")
		maxBody      = flag.Int64("max-body", 0, "request body byte cap (0 = default)")
		drainTimeout = flag.Duration("drain-timeout", 30*time.Second, "graceful-shutdown drain bound")
		smoke        = flag.Bool("smoke", false, "run the cold/warm byte-identity self-test and exit")
		version      = flag.Bool("version", false, "print build information and exit")
	)
	flag.Parse()

	if *version {
		fmt.Println("nlsserve", experiments.ReadBuildEnv())
		return
	}

	if *smoke {
		if err := runSmoke(*workers); err != nil {
			fmt.Fprintln(os.Stderr, "nlsserve: smoke FAILED:", err)
			os.Exit(1)
		}
		fmt.Println("nlsserve: smoke ok")
		return
	}

	logger := slog.New(slog.NewTextHandler(os.Stderr, nil))
	srv, err := newServer(*storeDir, *corpusDir, *workers, *queue, *maxInsns, *maxCells, *maxBody, logger)
	if err != nil {
		fmt.Fprintln(os.Stderr, "nlsserve:", err)
		os.Exit(1)
	}

	httpSrv := &http.Server{Addr: *addr, Handler: srv.Handler()}
	errc := make(chan error, 1)
	go func() {
		fmt.Fprintf(os.Stderr, "nlsserve: listening on %s (store %q)\n", *addr, *storeDir)
		errc <- httpSrv.ListenAndServe()
	}()

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-errc:
		fmt.Fprintln(os.Stderr, "nlsserve:", err)
		os.Exit(1)
	case sig := <-sigc:
		fmt.Fprintf(os.Stderr, "nlsserve: %s; draining (up to %s)\n", sig, *drainTimeout)
	}

	ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		fmt.Fprintln(os.Stderr, "nlsserve: drain incomplete:", err)
	}
	if err := httpSrv.Shutdown(ctx); err != nil {
		fmt.Fprintln(os.Stderr, "nlsserve: listener shutdown:", err)
	}
	fmt.Fprintln(os.Stderr, "nlsserve: stopped")
}

func newServer(storeDir, corpusDir string, workers, queue, maxInsns, maxCells int, maxBody int64, logger *slog.Logger) (*serve.Server, error) {
	opts := serve.Options{
		CorpusDir:  corpusDir,
		Workers:    workers,
		QueueDepth: queue,
		Limits:     serve.Limits{MaxBodyBytes: maxBody, MaxInsns: maxInsns, MaxCells: maxCells},
		Logger:     logger,
	}
	if storeDir != "" {
		store, err := experiments.OpenStore(storeDir)
		if err != nil {
			return nil, err
		}
		opts.Store = store
	}
	return serve.New(opts), nil
}

// smokeJob is the self-test request: one cell (one program, one arm, the
// registered 16KB direct-mapped NLS-table) at a budget small enough for CI.
const smokeJob = `{
  "schema": "nls-job/v1",
  "insns": 100000,
  "programs": ["li"],
  "grid": {
    "name": "smoke",
    "arms": [
      {
        "name": "1024 NLS-table",
        "spec": {
          "predictor": {"kind": "nls-table", "entries": 1024},
          "cache": {"size_bytes": 16384, "line_bytes": 32, "assoc": 1},
          "pht": {"kind": "gshare", "entries": 4096, "history_bits": 6}
        }
      }
    ]
  }
}`

// smokePenaltyJob is smokeJob at another point of a penalty sweep. The
// counters do not depend on penalties, so it shares smokeJob's cells, job
// key and body.
var smokePenaltyJob = strings.Replace(smokeJob, `"insns": 100000,`,
	`"insns": 100000, "penalties": {"misfetch": 2, "mispredict": 7, "cache_miss": 12.5},`, 1)

// smokeStreamJob is smokeJob over two programs: a cold job for the
// streamed POST, whose replay publishes a progress record per program.
var smokeStreamJob = strings.Replace(smokeJob, `["li"]`, `["li", "gcc"]`, 1)

// smokeServer is one server of the self-test on a loopback listener.
type smokeServer struct {
	base string
	http *http.Server
}

// startSmokeServer starts a server over the store and corpus under
// storeDir on a loopback port.
func startSmokeServer(storeDir string, workers int) (*smokeServer, error) {
	srv, err := newServer(storeDir, storeDir+"/corpus", workers, 16, 0, 0, 0, nil)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &smokeServer{base: "http://" + ln.Addr().String(), http: &http.Server{Handler: srv.Handler()}}
	go s.http.Serve(ln)
	return s, nil
}

// post sends one job and returns the status, body and headers.
func (s *smokeServer) post(job string) (int, []byte, http.Header, error) {
	resp, err := http.Post(s.base+"/v1/jobs", "application/json", strings.NewReader(job))
	if err != nil {
		return 0, nil, nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return resp.StatusCode, body, resp.Header, err
}

// runSmoke starts the service on a loopback listener with a throwaway
// store, POSTs smokeJob cold and then warm, and asserts the contract the
// service exists for: 200 on both, the warm response a memo answer of the
// finished flight, and the two bodies byte-identical. A third POST
// changes only the penalties and must be answered like the warm one: same
// X-NLS-Job, same body, a memo answer. A second server on the same store
// directory must then lead a flight for smokeJob that loads its one cell
// from the store, simulates none, and returns the same body.
func runSmoke(workers int) error {
	storeDir, err := os.MkdirTemp("", "nlsserve-smoke-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(storeDir)

	srv, err := startSmokeServer(storeDir, workers)
	if err != nil {
		return err
	}
	defer srv.http.Close()
	base, post := srv.base, srv.post

	status, cold, hdr, err := post(smokeJob)
	if err != nil {
		return err
	}
	if status != http.StatusOK {
		return fmt.Errorf("cold POST: status %d: %s", status, cold)
	}
	if hdr.Get("X-NLS-Cells-Simulated") != "1" {
		return fmt.Errorf("cold POST: simulated %q cells, want 1", hdr.Get("X-NLS-Cells-Simulated"))
	}

	status, warm, warmHdr, err := post(smokeJob)
	if err != nil {
		return err
	}
	if status != http.StatusOK {
		return fmt.Errorf("warm POST: status %d: %s", status, warm)
	}
	if err := checkAnswer("warm POST", warmHdr, "memo"); err != nil {
		return err
	}
	if !bytes.Equal(cold, warm) {
		return errors.New("warm response differs from cold response")
	}

	status, pen, hdr, err := post(smokePenaltyJob)
	if err != nil {
		return err
	}
	if status != http.StatusOK {
		return fmt.Errorf("penalty POST: status %d: %s", status, pen)
	}
	if err := checkAnswer("penalty POST", hdr, "memo"); err != nil {
		return err
	}
	if hdr.Get("X-NLS-Job") != warmHdr.Get("X-NLS-Job") {
		return fmt.Errorf("penalty POST: X-NLS-Job %s, want the warm job's %s", hdr.Get("X-NLS-Job"), warmHdr.Get("X-NLS-Job"))
	}
	if !bytes.Equal(warm, pen) {
		return errors.New("penalty-only response differs from the warm response")
	}

	// A second server on the same store directory has no finished flight:
	// it leads one, served from the store files.
	srv2, err := startSmokeServer(storeDir, workers)
	if err != nil {
		return err
	}
	defer srv2.http.Close()
	status, stored, hdr, err := srv2.post(smokeJob)
	if err != nil {
		return err
	}
	if status != http.StatusOK {
		return fmt.Errorf("second server POST: status %d: %s", status, stored)
	}
	if err := checkAnswer("second server POST", hdr, "leader"); err != nil {
		return err
	}
	if !bytes.Equal(cold, stored) {
		return errors.New("second server's store-served response differs from the cold response")
	}

	if err := checkStream(base, post); err != nil {
		return err
	}

	resp, err := http.Get(base + "/healthz")
	if err != nil {
		return err
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("healthz: status %d", resp.StatusCode)
	}

	if err := checkMetricsz(base); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "nlsserve: smoke: cold+memo+penalty-only memo+store-served OK, %d-byte body byte-identical, stream OK, /metricsz consistent with /statsz\n", len(cold))
	return nil
}

// checkAnswer asserts the headers of an answer to smokeJob that ran no
// simulation: the given X-NLS-Flight, its one cell loaded, none simulated.
func checkAnswer(what string, hdr http.Header, flight string) error {
	if got := hdr.Get("X-NLS-Flight"); got != flight {
		return fmt.Errorf("%s: X-NLS-Flight %q, want %q", what, got, flight)
	}
	if hdr.Get("X-NLS-Cells-Loaded") != "1" || hdr.Get("X-NLS-Cells-Simulated") != "0" {
		return fmt.Errorf("%s: loaded %q, simulated %q cells, want 1 and 0",
			what, hdr.Get("X-NLS-Cells-Loaded"), hdr.Get("X-NLS-Cells-Simulated"))
	}
	return nil
}

// checkStream POSTs smokeStreamJob with ?stream=1 and asserts the ndjson
// contract: every line but the last is a progress record — "type":
// "progress" plus the run-manifest keys of experiments.RunRecord, nothing
// else — and the last line is byte-identical to the body a plain POST of
// the same job returns.
func checkStream(base string, post func(string) (int, []byte, http.Header, error)) error {
	resp, err := http.Post(base+"/v1/jobs?stream=1", "application/json", strings.NewReader(smokeStreamJob))
	if err != nil {
		return err
	}
	stream, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("stream POST: status %d: %s", resp.StatusCode, stream)
	}
	lines := bytes.SplitAfter(stream, []byte("\n"))
	if n := len(lines); n > 0 && len(lines[n-1]) == 0 {
		lines = lines[:n-1] // the final newline
	}
	if len(lines) == 0 {
		return errors.New("stream POST: empty response")
	}
	for i, line := range lines[:len(lines)-1] {
		var ev struct {
			Type string `json:"type"`
			experiments.RunRecord
		}
		dec := json.NewDecoder(bytes.NewReader(line))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&ev); err != nil || ev.Type != "progress" {
			return fmt.Errorf("stream POST: line %d is not a progress record: %q (err %v)", i+1, line, err)
		}
	}
	status, plain, _, err := post(smokeStreamJob)
	if err != nil {
		return err
	}
	if status != http.StatusOK {
		return fmt.Errorf("plain POST of the streamed job: status %d: %s", status, plain)
	}
	if last := lines[len(lines)-1]; !bytes.Equal(last, plain) {
		return fmt.Errorf("stream POST: final line differs from the plain body\n%q\nvs\n%q", last, plain)
	}
	return nil
}

// checkMetricsz scrapes /metricsz and /statsz at a quiescent moment (every
// smoke job finished) and asserts the exposition contract: valid
// Prometheus text format, and every counter /statsz reports carried
// verbatim — the two endpoints are views over the same registry, so any
// divergence is a bug.
func checkMetricsz(base string) error {
	resp, err := http.Get(base + "/metricsz")
	if err != nil {
		return err
	}
	promBody, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("metricsz: status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "text/plain") {
		return fmt.Errorf("metricsz: content-type %q", ct)
	}
	prom, err := parseProm(promBody)
	if err != nil {
		return fmt.Errorf("metricsz: %w", err)
	}

	resp, err = http.Get(base + "/statsz")
	if err != nil {
		return err
	}
	var stats map[string]any
	err = json.NewDecoder(resp.Body).Decode(&stats)
	resp.Body.Close()
	if err != nil {
		return fmt.Errorf("statsz: %w", err)
	}

	for statKey, promKey := range map[string]string{
		"jobs_received":   "nls_jobs_received_total",
		"flights_led":     "nls_flights_led_total",
		"flights_shared":  "nls_flights_shared_total",
		"jobs_memo":       "nls_jobs_memo_total",
		"cells_loaded":    "nls_cells_loaded_total",
		"cells_simulated": "nls_cells_simulated_total",
		"trace_replays":   "nls_trace_replays_total",
		"inflight_jobs":   "nls_inflight_jobs",
	} {
		want, ok := stats[statKey].(float64)
		if !ok {
			return fmt.Errorf("statsz: missing %q", statKey)
		}
		got, ok := prom[promKey]
		if !ok {
			return fmt.Errorf("metricsz: missing %q", promKey)
		}
		if got != want {
			return fmt.Errorf("metricsz %s=%g disagrees with statsz %s=%g", promKey, got, statKey, want)
		}
	}
	// Each flight the smoke run led must have a latency observation.
	if got := prom["nls_job_seconds_count"]; got != prom["nls_flights_led_total"] {
		return fmt.Errorf("nls_job_seconds_count=%g, want one per led flight (%g)",
			got, prom["nls_flights_led_total"])
	}
	return nil
}

// parseProm reads Prometheus text exposition into a flat
// series-with-labels -> value map.
func parseProm(body []byte) (map[string]float64, error) {
	out := make(map[string]float64)
	for _, line := range strings.Split(string(body), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			return nil, fmt.Errorf("malformed exposition line %q", line)
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("malformed value in %q: %w", line, err)
		}
		out[line[:i]] = v
	}
	return out, nil
}
