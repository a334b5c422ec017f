// Package serve turns the grid executor into a long-running concurrent
// sweep service: an HTTP API that accepts grid/arch-spec jobs as JSON
// (the same experiments.Grid and arch.Spec documents the figure pipeline
// uses), validates them as untrusted input, schedules them on a bounded
// worker pool, and serves results out of the content-addressed cell store
// with single-flight deduplication — N concurrent identical requests cost
// exactly one simulation and receive byte-identical bodies. A finished
// flight is retained, so a repeat request is answered by it without
// running anything, byte-identical to the cold response; a flight the
// memo no longer holds is served from the store, byte-identical too. See
// DESIGN.md §12 for the architecture and EXPERIMENTS.md "Serving sweeps"
// for the wire format.
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
	"crypto/sha256"
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

// execFunc runs one compiled job, handing progress each program's copy of
// the run record, and returns the response body and the finished record.
// It is a field (not a method call) so the stress tests can count executor
// invocations under the hammer.
type execFunc func(job *CompiledJob, progress func(experiments.RunStats)) ([]byte, experiments.RunStats, error)

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
// document. Each job gets its own Runner (a runner holds no trace;
// cross-job reuse happens at the cell store and the trace corpus, both
// keyed by content).
// The run reuses the cell keys CompileJob derived for the flight key, so
// a job keys each cell once. Executor stage spans feed the registry's
// stage histograms.
func (s *Server) runJob(job *CompiledJob, progress func(experiments.RunStats)) ([]byte, experiments.RunStats, error) {
	r := experiments.NewRunner(job.Cfg)
	defer r.CloseCorpus() // close the corpus file when the job attached one
	x := &experiments.Executor{R: r, Store: s.store, CorpusDir: s.corpusDir, Progress: progress,
		Observer: func(sp experiments.StageSpan) { s.stats.ObserveStage(sp.Stage, sp.Seconds) }}
	rs, err := x.RunKeyed(false, job.keyed)
	if err != nil {
		return nil, experiments.RunStats{}, err
	}
	doc := Result{Schema: ResultSchema, Key: job.Key, Insns: job.Cfg.Insns, Rows: rs.Rows(job.Grid)}
	body, err := json.Marshal(doc)
	if err != nil {
		return nil, experiments.RunStats{}, err
	}
	return append(body, '\n'), rs.RunStats, nil
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

	// The body is read once, under the cap: its digest finds a repeat
	// document's retained flight, and only a document without one is
	// decoded and compiled.
	doc, err := io.ReadAll(http.MaxBytesReader(w, r.Body, s.limits.MaxBodyBytes))
	if err != nil {
		s.reject(w, jobID, fmt.Errorf("serve: bad job document: %w", err))
		return
	}
	digest := sha256.Sum256(doc)
	fl, role := s.flights.recall(digest), roleMemo
	var job *CompiledJob
	if fl == nil {
		if job, err = decodeDoc(doc, s.limits); err != nil {
			s.reject(w, jobID, err)
			return
		}
		fl, role = s.flights.join(job.Key, digest)
	}

	switch role {
	case roleLeader:
		s.lead(jobID, job, fl)
	case roleShared:
		s.stats.FlightsShared.Inc()
		s.log.Debug("flight shared", "job", jobID, "key", fl.key)
	case roleMemo:
		s.stats.JobsMemo.Inc()
		s.log.Debug("flight memo", "job", jobID, "key", fl.key)
	}

	if r.URL.Query().Get("stream") != "" {
		s.streamResult(w, r, fl, role)
		return
	}
	select {
	case <-fl.done:
	case <-r.Context().Done():
		return // client gone; the flight keeps running for other waiters
	}
	s.writeResult(w, fl, role)
}

// reject answers a job whose document failed to read or compile: 413 when
// it blew the body cap, else 400.
func (s *Server) reject(w http.ResponseWriter, jobID string, err error) {
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
}

// lead submits a new flight to the worker pool, or finishes it with the
// pool's error when the pool refuses it.
func (s *Server) lead(jobID string, job *CompiledJob, fl *flight) {
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
		body, st, err := s.exec(job, fl.hub.publish)
		elapsed := time.Since(start)
		s.stats.JobSeconds.Observe(elapsed.Seconds())
		if err == nil {
			s.stats.addRun(st)
			s.log.Info("job done", "job", jobID, "key", fl.key,
				"seconds", elapsed.Seconds(), "cells_loaded", st.Loaded,
				"cells_simulated", st.Simulated)
		} else {
			s.log.Error("job failed", "job", jobID, "key", fl.key,
				"seconds", elapsed.Seconds(), "err", err)
		}
		s.flights.finish(fl, body, st, err)
	})
	if submitErr != nil {
		// The flight never ran; fail every waiter (they all requested
		// the same overloaded moment).
		s.stats.QueuedJobs.Add(-1)
		s.log.Warn("job shed", "job", jobID, "key", job.Key, "err", submitErr)
		s.flights.finish(fl, nil, experiments.RunStats{}, submitErr)
	}
}

// writeResult sends a finished flight: the shared deterministic body, with
// the flight's store accounting in headers (never in the body — see
// Result). A memo answer ran nothing: it reports every unique cell of the
// job loaded and none simulated, as a store-served flight of the same job
// does.
func (s *Server) writeResult(w http.ResponseWriter, fl *flight, role flightRole) {
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
	loaded, simulated := fl.stats.Loaded, fl.stats.Simulated
	if role == roleMemo {
		loaded, simulated = fl.stats.TotalCells, 0
	}
	h := w.Header()
	h.Set("Content-Type", "application/json")
	h.Set("X-NLS-Job", fl.key)
	h.Set("X-NLS-Flight", string(role))
	h.Set("X-NLS-Cells-Loaded", strconv.Itoa(loaded))
	h.Set("X-NLS-Cells-Simulated", strconv.Itoa(simulated))
	w.Write(fl.body)
}

// progressEvent is one progress line of a streamed response: the run
// record so far, under the run manifest's keys.
type progressEvent struct {
	Type string `json:"type"` // "progress"
	experiments.RunRecord
}

// streamResult writes an ndjson stream: the run record after each program
// as it arrives (latest-wins; a slow client skips intermediate records,
// never blocks the executor), then the flight's result document — the
// exact bytes a plain request gets — as the final line. A finished
// flight's hub is closed, so a memo answer streams the result line alone.
func (s *Server) streamResult(w http.ResponseWriter, r *http.Request, fl *flight, role flightRole) {
	ch, cancel := fl.hub.subscribe()
	defer cancel()

	h := w.Header()
	h.Set("Content-Type", "application/x-ndjson")
	h.Set("X-NLS-Job", fl.key)
	h.Set("X-NLS-Flight", string(role))
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)

	// The hub closes ch just before done (flightGroup.finish), so draining
	// ch first writes the final record, when this subscriber saw it,
	// before the result.
	for open := true; open; {
		select {
		case <-r.Context().Done():
			return
		case st, ok := <-ch:
			if open = ok; ok {
				enc.Encode(progressEvent{Type: "progress", RunRecord: st.Record()})
				if flusher != nil {
					flusher.Flush()
				}
			}
		}
	}
	<-fl.done
	if fl.err != nil {
		s.stats.JobsFailed.Inc()
		enc.Encode(struct {
			Type  string `json:"type"`
			Error string `json:"error"`
		}{"error", fl.err.Error()})
		return
	}
	w.Write(fl.body)
}
