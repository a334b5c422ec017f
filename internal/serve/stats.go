package serve

import (
	"repro/internal/experiments"
	"repro/internal/telemetry"
)

// Rejection reasons, the label values of nls_jobs_rejected_total. /statsz's
// jobs_rejected is their sum.
const (
	rejectDraining = "draining"  // shutdown began, or the queue refused
	rejectInvalid  = "invalid"   // the job document failed validation
	rejectTooLarge = "too_large" // the body blew MaxBodyBytes
)

var rejectReasons = []string{rejectDraining, rejectInvalid, rejectTooLarge}

// executorStages are the experiments.StageSpan stage names, pre-registered
// as nls_executor_stage_seconds{stage=...} series.
var executorStages = []string{"gather", "gen-corpus", "trace-gen", "replay", "store-save"}

// serverStats holds the service counters. Every field is a handle into the
// server's telemetry.Registry — /metricsz scrapes the registry and /statsz
// (snapshot) reads the same atomics, so the two endpoints can never
// disagree. Flight counters pin the dedup claims: FlightsLed counts
// executor submissions (one per unique inflight key), FlightsShared counts
// requests that joined an existing flight — the thundering-herd savings.
// Cell counters sum the run records of finished jobs (addRun), so store
// hit rate is CellsLoaded / (CellsLoaded + CellsSimulated).
type serverStats struct {
	JobsReceived  *telemetry.Counter
	JobsFailed    *telemetry.Counter
	FlightsLed    *telemetry.Counter
	FlightsShared *telemetry.Counter

	CellsLoaded    *telemetry.Counter
	CellsSimulated *telemetry.Counter
	CellsDeduped   *telemetry.Counter
	TraceReplays   *telemetry.Counter

	InflightJobs *telemetry.Gauge // jobs currently executing
	QueuedJobs   *telemetry.Gauge // jobs accepted but not yet running
	PoolWorkers  *telemetry.Gauge // configured pool size (constant)
	Draining     *telemetry.Gauge // 1 once Shutdown began

	JobSeconds       *telemetry.Histogram // execution time per led flight
	QueueWaitSeconds *telemetry.Histogram // submit-to-start wait per led flight

	rejected map[string]*telemetry.Counter   // by reason label
	stage    map[string]*telemetry.Histogram // executor stage wall time
}

// newServerStats registers every service metric on reg.
func newServerStats(reg *telemetry.Registry) *serverStats {
	s := &serverStats{
		JobsReceived:  reg.NewCounter("nls_jobs_received_total", "Jobs received by POST /v1/jobs."),
		JobsFailed:    reg.NewCounter("nls_jobs_failed_total", "Accepted jobs whose flight finished with an error."),
		FlightsLed:    reg.NewCounter("nls_flights_led_total", "Unique flights submitted to the executor pool."),
		FlightsShared: reg.NewCounter("nls_flights_shared_total", "Requests that joined an already-inflight identical flight."),

		CellsLoaded:    reg.NewCounter("nls_cells_loaded_total", "Grid cells served from the content-addressed store."),
		CellsSimulated: reg.NewCounter("nls_cells_simulated_total", "Grid cells simulated by the executor."),
		CellsDeduped:   reg.NewCounter("nls_cells_deduped_total", "Cell requests satisfied by an identical cell within the same run."),
		TraceReplays:   reg.NewCounter("nls_trace_replays_total", "Program traces replayed by the executor."),

		InflightJobs: reg.NewGauge("nls_inflight_jobs", "Flights currently executing on the worker pool."),
		QueuedJobs:   reg.NewGauge("nls_queued_jobs", "Flights accepted by the pool but not yet running."),
		PoolWorkers:  reg.NewGauge("nls_pool_workers", "Configured worker pool size."),
		Draining:     reg.NewGauge("nls_draining", "1 once shutdown began, else 0."),

		JobSeconds: reg.NewHistogram("nls_job_seconds",
			"Wall time one flight spent executing (queue wait excluded).", nil),
		QueueWaitSeconds: reg.NewHistogram("nls_queue_wait_seconds",
			"Wall time one flight spent queued before a worker picked it up.", nil),

		rejected: make(map[string]*telemetry.Counter, len(rejectReasons)),
		stage:    make(map[string]*telemetry.Histogram, len(executorStages)),
	}
	for _, reason := range rejectReasons {
		s.rejected[reason] = reg.NewCounter("nls_jobs_rejected_total",
			"Jobs rejected before execution, by reason.",
			telemetry.Label{Key: "reason", Value: reason})
	}
	for _, st := range executorStages {
		s.stage[st] = reg.NewHistogram("nls_executor_stage_seconds",
			"Executor wall time per stage, one observation per job run.", nil,
			telemetry.Label{Key: "stage", Value: st})
	}
	return s
}

// Reject counts one rejection under its reason.
func (s *serverStats) Reject(reason string) { s.rejected[reason].Inc() }

// JobsRejected sums the per-reason rejection counters (the /statsz view).
func (s *serverStats) JobsRejected() int64 {
	var n int64
	for _, c := range s.rejected {
		n += c.Value()
	}
	return n
}

// addRun folds a finished run's record into the cell and replay counters.
func (s *serverStats) addRun(st experiments.RunStats) {
	s.CellsLoaded.Add(int64(st.Loaded))
	s.CellsSimulated.Add(int64(st.Simulated))
	s.CellsDeduped.Add(int64(st.Deduped))
	s.TraceReplays.Add(int64(st.Replays))
}

// ObserveStage records one executor stage span; unknown stage names are
// dropped (the executor owns the vocabulary).
func (s *serverStats) ObserveStage(stage string, seconds float64) {
	if h, ok := s.stage[stage]; ok {
		h.Observe(seconds)
	}
}

// StatsSnapshot is the /statsz document.
type StatsSnapshot struct {
	Schema        string `json:"schema"`
	JobsReceived  int64  `json:"jobs_received"`
	JobsRejected  int64  `json:"jobs_rejected"`
	JobsFailed    int64  `json:"jobs_failed"`
	FlightsLed    int64  `json:"flights_led"`
	FlightsShared int64  `json:"flights_shared"`

	CellsLoaded    int64 `json:"cells_loaded"`
	CellsSimulated int64 `json:"cells_simulated"`
	CellsDeduped   int64 `json:"cells_deduped"`
	TraceReplays   int64 `json:"trace_replays"`

	// StoreHitRate is CellsLoaded / (CellsLoaded + CellsSimulated);
	// FlightShareRate is FlightsShared / (FlightsLed + FlightsShared).
	// Both are 0 while their denominator is 0.
	StoreHitRate    float64 `json:"store_hit_rate"`
	FlightShareRate float64 `json:"flight_share_rate"`

	InflightJobs int64 `json:"inflight_jobs"`
	QueuedJobs   int64 `json:"queued_jobs"`
	Draining     bool  `json:"draining"`
}

// StatsSchema versions the /statsz document.
const StatsSchema = "nls-stats/v2"

// ratio returns num/(num+rest), or 0 when the denominator is 0.
func ratio(num, rest int64) float64 {
	if num+rest == 0 {
		return 0
	}
	return float64(num) / float64(num+rest)
}

func (s *serverStats) snapshot() StatsSnapshot {
	loaded, simulated := s.CellsLoaded.Value(), s.CellsSimulated.Value()
	led, shared := s.FlightsLed.Value(), s.FlightsShared.Value()
	return StatsSnapshot{
		Schema:          StatsSchema,
		JobsReceived:    s.JobsReceived.Value(),
		JobsRejected:    s.JobsRejected(),
		JobsFailed:      s.JobsFailed.Value(),
		FlightsLed:      led,
		FlightsShared:   shared,
		CellsLoaded:     loaded,
		CellsSimulated:  simulated,
		CellsDeduped:    s.CellsDeduped.Value(),
		TraceReplays:    s.TraceReplays.Value(),
		StoreHitRate:    ratio(loaded, simulated),
		FlightShareRate: ratio(shared, led),
		InflightJobs:    s.InflightJobs.Value(),
		QueuedJobs:      s.QueuedJobs.Value(),
		Draining:        s.Draining.Value() != 0,
	}
}
