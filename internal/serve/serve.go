// Package serve turns the grid executor into a long-running concurrent
// sweep service: an HTTP API that accepts grid/arch-spec jobs as JSON
// (the same experiments.Grid and arch.Spec documents the figure pipeline
// uses), validates them as untrusted input, schedules them on a bounded
// worker pool, and serves results out of the content-addressed cell store
// with single-flight deduplication — N concurrent identical requests cost
// exactly one simulation and receive byte-identical bodies, and a warm
// re-request is served from the store byte-identical to the cold
// response. See DESIGN.md §12 for the architecture and EXPERIMENTS.md
// "Serving sweeps" for the wire format.
//
// Every counter lives in one telemetry.Registry (DESIGN.md §15): /metricsz
// is the registry's Prometheus exposition and /statsz is a JSON view over
// the same atomics, so the two endpoints cannot disagree. Requests are
// logged through a structured slog.Logger with a per-job ID that follows
// the job through the pool to its completion record.
//
// Endpoints:
//
//	POST /v1/jobs            run (or join) a job; body = Job, response = Result
//	POST /v1/jobs?stream=1   same, as ndjson: progress events, then the Result
//	GET  /healthz            liveness ("ok", or 503 once draining)
//	GET  /statsz             counters as JSON: flights, dedup, store hits, rates
//	GET  /metricsz           the same counters plus latency histograms,
//	                         Prometheus text format
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"runtime"
	"strconv"
	"sync/atomic"
	"time"

	"repro/internal/experiments"
	"repro/internal/telemetry"
)

// Options configures a Server.
type Options struct {
	// Store serves warm cells and persists new ones; nil disables caching
	// (every job simulates).
	Store *experiments.Store
	// CorpusDir, when non-empty, gives every job's executor a disk-backed
	// trace corpus directory (experiments.Executor.CorpusDir): the first
	// job of a (workloads, insns) configuration generates its traces once
	// into a content-keyed container, later jobs replay from disk.
	CorpusDir string
	// Limits bounds untrusted jobs; zero fields take DefaultLimits.
	Limits Limits
	// Workers is the executor pool size (defaults to GOMAXPROCS). Each
	// job's internal replay parallelism is additionally bounded by the
	// executor itself; Workers bounds how many jobs simulate at once.
	Workers int
	// QueueDepth bounds jobs accepted but not yet running (default 64);
	// beyond it the service sheds load with 503 + Retry-After.
	QueueDepth int
	// Logger receives structured request/job records; nil discards them.
	Logger *slog.Logger
}

// execFunc runs one compiled job and returns the response body and the
// store accounting. It is a field (not a method call) so the stress tests
// can count executor invocations under the hammer.
type execFunc func(job *CompiledJob, progress func(experiments.SweepStats)) ([]byte, Accounting, error)

// Server is the sweep service. Create with New, expose via Handler, stop
// with Shutdown.
type Server struct {
	store     *experiments.Store
	corpusDir string
	limits    Limits
	flights   flightGroup
	pool      *pool
	mux       *http.ServeMux
	exec      execFunc
	log       *slog.Logger

	reg    *telemetry.Registry
	stats  *serverStats
	jobSeq atomic.Int64 // per-process job ID sequence
}

// New builds a Server.
func New(opts Options) *Server {
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	depth := opts.QueueDepth
	if depth <= 0 {
		depth = 64
	}
	logger := opts.Logger
	if logger == nil {
		logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	reg := telemetry.NewRegistry()
	s := &Server{
		store:     opts.Store,
		corpusDir: opts.CorpusDir,
		limits:    opts.Limits.withDefaults(),
		pool:      newPool(workers, depth),
		log:       logger,
		reg:       reg,
		stats:     newServerStats(reg),
	}
	s.stats.PoolWorkers.Set(int64(workers))
	s.exec = s.runJob
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /statsz", s.handleStatsz)
	s.mux.Handle("GET /metricsz", reg.Handler())
	s.mux.HandleFunc("POST /v1/jobs", s.handleJobs)
	return s
}

// Handler returns the service's HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

// Registry exposes the server's metrics registry (the /metricsz source),
// for embedding the service alongside other instrumented subsystems.
func (s *Server) Registry() *telemetry.Registry { return s.reg }

// draining reports whether Shutdown began. The flag lives in the stats
// gauge so /statsz, /metricsz, and the request paths all read one atomic.
func (s *Server) draining() bool { return s.stats.Draining.Value() != 0 }

// Shutdown drains the service: new jobs are rejected with 503 immediately,
// and every job already accepted — running or queued — completes before
// Shutdown returns (their waiting clients get their responses). The
// context bounds the drain.
func (s *Server) Shutdown(ctx context.Context) error {
	s.stats.Draining.Set(1)
	s.log.Info("draining")
	return s.pool.shutdown(ctx)
}

// runJob is the default execFunc: one executor run over the job's grid,
// serving unchanged cells from the store, then the deterministic response
// document. Each job gets its own Runner (trace caches are per-run;
// cross-job reuse happens at the cell store, which is keyed by content).
// The run reuses the cell keys CompileJob derived for the flight key, so
// a job keys each cell once. Executor stage spans feed the registry's
// stage histograms.
func (s *Server) runJob(job *CompiledJob, progress func(experiments.SweepStats)) ([]byte, Accounting, error) {
	r := experiments.NewRunner(job.Cfg)
	r.Progress = progress
	defer r.CloseCorpus() // release the mapping when the job attached one
	x := &experiments.Executor{R: r, Store: s.store, CorpusDir: s.corpusDir,
		Observer: func(sp experiments.StageSpan) { s.stats.ObserveStage(sp.Stage, sp.Seconds) }}
	rs, err := x.RunKeyed(false, job.keyed)
	if err != nil {
		return nil, Accounting{}, err
	}
	doc := Result{Schema: ResultSchema, Key: job.Key, Insns: job.Cfg.Insns, Rows: rs.Rows(job.Grid)}
	body, err := json.Marshal(doc)
	if err != nil {
		return nil, Accounting{}, err
	}
	acct := Accounting{Loaded: rs.Loaded, Simulated: rs.Simulated,
		Deduped: rs.Deduped, Replays: rs.Replays}
	return append(body, '\n'), acct, nil
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if s.draining() {
		http.Error(w, "draining", http.StatusServiceUnavailable)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

func (s *Server) handleStatsz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	buf, _ := json.MarshalIndent(s.stats.snapshot(), "", "  ")
	w.Write(append(buf, '\n'))
}

func (s *Server) handleJobs(w http.ResponseWriter, r *http.Request) {
	jobID := fmt.Sprintf("job-%06d", s.jobSeq.Add(1))
	s.stats.JobsReceived.Inc()
	if s.draining() {
		s.stats.Reject(rejectDraining)
		s.log.Warn("job rejected", "job", jobID, "reason", rejectDraining)
		w.Header().Set("Retry-After", "1")
		http.Error(w, ErrDraining.Error(), http.StatusServiceUnavailable)
		return
	}

	job, err := DecodeJob(http.MaxBytesReader(w, r.Body, s.limits.MaxBodyBytes), s.limits)
	if err != nil {
		reason := rejectInvalid
		status := http.StatusBadRequest
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			reason = rejectTooLarge
			status = http.StatusRequestEntityTooLarge
		}
		s.stats.Reject(reason)
		s.log.Warn("job rejected", "job", jobID, "reason", reason, "err", err)
		http.Error(w, err.Error(), status)
		return
	}

	fl, leader := s.flights.join(job.Key)
	if leader {
		s.stats.FlightsLed.Inc()
		s.log.Info("flight led", "job", jobID, "key", job.Key, "insns", job.Cfg.Insns)
		queuedAt := time.Now()
		s.stats.QueuedJobs.Add(1)
		submitErr := s.pool.submit(func() {
			s.stats.QueuedJobs.Add(-1)
			s.stats.QueueWaitSeconds.Observe(time.Since(queuedAt).Seconds())
			s.stats.InflightJobs.Add(1)
			defer s.stats.InflightJobs.Add(-1)
			start := time.Now()
			body, acct, err := s.exec(job, fl.hub.publish)
			elapsed := time.Since(start)
			s.stats.JobSeconds.Observe(elapsed.Seconds())
			if err == nil {
				s.stats.CellsLoaded.Add(int64(acct.Loaded))
				s.stats.CellsSimulated.Add(int64(acct.Simulated))
				s.stats.CellsDeduped.Add(int64(acct.Deduped))
				s.stats.TraceReplays.Add(int64(acct.Replays))
				s.log.Info("job done", "job", jobID, "key", fl.key,
					"seconds", elapsed.Seconds(), "cells_loaded", acct.Loaded,
					"cells_simulated", acct.Simulated)
			} else {
				s.log.Error("job failed", "job", jobID, "key", fl.key,
					"seconds", elapsed.Seconds(), "err", err)
			}
			s.flights.finish(fl, body, acct, err)
		})
		if submitErr != nil {
			// The flight never ran; fail every waiter (they all requested
			// the same overloaded moment).
			s.stats.QueuedJobs.Add(-1)
			s.log.Warn("job shed", "job", jobID, "key", job.Key, "err", submitErr)
			s.flights.finish(fl, nil, Accounting{}, submitErr)
		}
	} else {
		s.stats.FlightsShared.Inc()
		s.log.Debug("flight shared", "job", jobID, "key", job.Key)
	}

	if r.URL.Query().Get("stream") != "" {
		s.streamResult(w, r, fl, leader)
		return
	}
	select {
	case <-fl.done:
	case <-r.Context().Done():
		return // client gone; the flight keeps running for other waiters
	}
	s.writeResult(w, fl, leader)
}

// writeResult sends a finished flight: the shared deterministic body, with
// the per-request accounting in headers (never in the body — see Result).
func (s *Server) writeResult(w http.ResponseWriter, fl *flight, leader bool) {
	if fl.err != nil {
		s.stats.JobsFailed.Inc()
		status := http.StatusInternalServerError
		if errors.Is(fl.err, ErrDraining) || errors.Is(fl.err, ErrBusy) {
			status = http.StatusServiceUnavailable
			w.Header().Set("Retry-After", "1")
		}
		http.Error(w, fl.err.Error(), status)
		return
	}
	h := w.Header()
	h.Set("Content-Type", "application/json")
	h.Set("X-NLS-Job", fl.key)
	if leader {
		h.Set("X-NLS-Flight", "leader")
	} else {
		h.Set("X-NLS-Flight", "shared")
	}
	h.Set("X-NLS-Cells-Loaded", strconv.Itoa(fl.acct.Loaded))
	h.Set("X-NLS-Cells-Simulated", strconv.Itoa(fl.acct.Simulated))
	w.Write(fl.body)
}

// progressEvent is one line of a streamed response.
type progressEvent struct {
	Type       string  `json:"type"` // "progress"
	Cells      int     `json:"cells"`
	TotalCells int     `json:"total_cells"`
	Records    int64   `json:"records"`
	Seconds    float64 `json:"seconds"`
	RecPerSec  float64 `json:"records_per_sec"`
}

// streamResult writes an ndjson stream: executor progress snapshots as
// they arrive (latest-wins; a slow client skips intermediate snapshots,
// never blocks the executor), then the flight's result document — the
// exact bytes a plain request gets — as the final line.
func (s *Server) streamResult(w http.ResponseWriter, r *http.Request, fl *flight, leader bool) {
	ch, cancel := fl.hub.subscribe()
	defer cancel()

	h := w.Header()
	h.Set("Content-Type", "application/x-ndjson")
	h.Set("X-NLS-Job", fl.key)
	if leader {
		h.Set("X-NLS-Flight", "leader")
	} else {
		h.Set("X-NLS-Flight", "shared")
	}
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)

	for {
		select {
		case <-r.Context().Done():
			return
		case st, ok := <-ch:
			if !ok {
				ch = nil // flight finished; fall through to done
				continue
			}
			enc.Encode(progressEvent{Type: "progress", Cells: st.Cells,
				TotalCells: st.TotalCells, Records: st.Records,
				Seconds: st.Elapsed.Seconds(), RecPerSec: st.RecordsPerSec()})
			if flusher != nil {
				flusher.Flush()
			}
		case <-fl.done:
			if fl.err != nil {
				s.stats.JobsFailed.Inc()
				enc.Encode(struct {
					Type  string `json:"type"`
					Error string `json:"error"`
				}{"error", fl.err.Error()})
				return
			}
			w.Write(fl.body)
			return
		}
	}
}
