package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"

	"repro/internal/cache"
	"repro/internal/fetch"
	"repro/internal/isa"
)

// Sim-time pipeline trace export (DESIGN.md §15). A SimRecorder rides the
// two zero-perturbation observation seams the decoupled frontend exposes —
// the fetch.Probe break stream and the fetch.Prefetcher access/FTQ streams,
// plus the cache's prefetch lifecycle observer — and emits Chrome
// trace-event JSON (schema nls-trace/v1) viewable in Perfetto or
// chrome://tracing. Time is simulation time: the i-cache's access clock,
// rendered as one microsecond per access, so a trace of the same workload
// at the same seed is byte-deterministic (pinned by `make trace-golden`).
//
// The recorder observes; it must not change what the engine computes. It
// forwards the prefetcher streams to the policy it wraps verbatim, and the
// probe contract already guarantees counter bit-identity — asserted by
// TestSimRecorderCountersBitIdentical for both prefetching and
// non-prefetching specs.

// TraceSchema identifies the trace-event document layout.
const TraceSchema = "nls-trace/v1"

// TraceEvent is one Chrome trace-event object. Field order is fixed by the
// struct so the export is deterministic.
type TraceEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	TS   uint64         `json:"ts"`
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	ID   string         `json:"id,omitempty"`
	Args map[string]any `json:"args,omitempty"`
}

// TraceTotals is the whole-run summary embedded in the document's
// otherData, so a trace is self-describing even when the event cap dropped
// the tail.
type TraceTotals struct {
	Breaks        uint64            `json:"breaks"`
	WrongBreaks   uint64            `json:"wrong_breaks"`
	Causes        map[string]uint64 `json:"causes,omitempty"`
	FTQSamples    uint64            `json:"ftq_samples"`
	Prefetch      map[string]uint64 `json:"prefetch,omitempty"`
	DroppedEvents uint64            `json:"dropped_events"`
}

// traceDoc is the on-disk document: the standard trace-event container
// object with the schema and totals in otherData.
type traceDoc struct {
	Schema          string         `json:"schema"`
	DisplayTimeUnit string         `json:"displayTimeUnit"`
	OtherData       map[string]any `json:"otherData"`
	TraceEvents     []TraceEvent   `json:"traceEvents"`
}

// Trace-event thread ids: one lane per pipeline stage.
const (
	tidFetch    = 1 // break-cause instants (the fetch/decode stage)
	tidFTQ      = 2 // FTQ occupancy counter
	tidPrefetch = 3 // prefetch lifecycle spans and instants
)

// SimRecorderOptions sizes a recorder.
type SimRecorderOptions struct {
	// SampleEvery is the fetch-block access period between counter samples
	// (FTQ occupancy, prefetch lifecycle curves). <= 0 takes 64.
	SampleEvery int
	// MaxEvents caps the emitted event count; past it events are counted
	// in Totals.DroppedEvents instead of stored. <= 0 takes 20000.
	MaxEvents int
}

func (o SimRecorderOptions) withDefaults() SimRecorderOptions {
	if o.SampleEvery <= 0 {
		o.SampleEvery = 64
	}
	if o.MaxEvents <= 0 {
		o.MaxEvents = 20000
	}
	return o
}

// SimRecorder collects sim-time pipeline events from one engine replay. It
// implements fetch.Probe and fetch.Prefetcher; build with NewSimRecorder,
// wire with Attach, replay, then WriteJSON. A recorder is single-run,
// single-goroutine, like the probe protocol it rides.
type SimRecorder struct {
	opts   SimRecorderOptions
	events []TraceEvent
	totals TraceTotals

	icache *cache.Cache
	ftqLen func() int
	inner  fetch.Prefetcher

	accesses uint64 // fetch-block accesses seen, for the sample cadence
}

// NewSimRecorder builds a recorder.
func NewSimRecorder(opts SimRecorderOptions) *SimRecorder {
	r := &SimRecorder{opts: opts.withDefaults()}
	r.totals.Causes = make(map[string]uint64)
	r.totals.Prefetch = make(map[string]uint64)
	r.events = append(r.events,
		TraceEvent{Name: "thread_name", Ph: "M", TID: tidFetch,
			Args: map[string]any{"name": "fetch breaks"}},
		TraceEvent{Name: "thread_name", Ph: "M", TID: tidFTQ,
			Args: map[string]any{"name": "ftq"}},
		TraceEvent{Name: "thread_name", Ph: "M", TID: tidPrefetch,
			Args: map[string]any{"name": "prefetch"}},
	)
	return r
}

// Attach wires the recorder to an engine: the break probe, the prefetcher
// wrap, the FTQ occupancy source, and, when the i-cache models
// prefetching, its lifecycle observer. Attach before the run starts and
// attach each recorder to exactly one engine.
func (r *SimRecorder) Attach(e *fetch.Frontend) {
	e.AttachProbe(r)
	r.icache = e.ICache()
	if r.icache.PrefetchEnabled() {
		r.icache.SetPrefetchObserver(r.onPrefetchEvent)
	}
	r.inner = e.Prefetcher()
	e.AttachPrefetcher(r)
	r.ftqLen = e.FTQLen
}

// now returns the sim-time timestamp: the i-cache access clock.
func (r *SimRecorder) now() uint64 {
	if r.icache == nil {
		return r.accesses
	}
	return r.icache.Clock()
}

// emit appends one event, honoring the cap.
func (r *SimRecorder) emit(ev TraceEvent) {
	if len(r.events) >= r.opts.MaxEvents {
		r.totals.DroppedEvents++
		return
	}
	r.events = append(r.events, ev)
}

// Break implements fetch.Probe: wrong fetches become instant events named
// by their root cause, on the fetch lane.
func (r *SimRecorder) Break(ev fetch.BreakEvent) {
	r.totals.Breaks++
	if ev.Penalty == fetch.PenaltyNone {
		return
	}
	r.totals.WrongBreaks++
	cause := ev.Cause.String()
	r.totals.Causes[cause]++
	r.emit(TraceEvent{
		Name: cause, Cat: "break", Ph: "i", TS: r.now(), TID: tidFetch,
		Args: map[string]any{
			"pc":      fmt.Sprintf("%#x", uint64(ev.PC)),
			"kind":    ev.Kind.String(),
			"penalty": ev.Penalty.String(),
		},
	})
}

// OnAccess implements fetch.Prefetcher: forward to the wrapped policy, then
// sample the occupancy and lifecycle counters on the configured cadence.
func (r *SimRecorder) OnAccess(pc isa.Addr, hit bool) {
	if r.inner != nil {
		r.inner.OnAccess(pc, hit)
	}
	r.accesses++
	if r.accesses%uint64(r.opts.SampleEvery) != 0 {
		return
	}
	r.sample()
}

// OnFTQPush implements fetch.Prefetcher: forward only (occupancy is
// sampled on the fetch-stage cadence, where the queue is quiescent).
func (r *SimRecorder) OnFTQPush(addr isa.Addr) {
	if r.inner != nil {
		r.inner.OnFTQPush(addr)
	}
}

// Name implements fetch.Prefetcher.
func (r *SimRecorder) Name() string {
	if r.inner != nil {
		return r.inner.Name() + " (traced)"
	}
	return "trace-recorder"
}

// Reset implements fetch.Prefetcher, forwarding to the wrapped policy. The
// recorder's own stream is cumulative across Reset — a reset mid-recording
// shows up in the trace rather than erasing it.
func (r *SimRecorder) Reset() {
	if r.inner != nil {
		r.inner.Reset()
	}
}

// sample emits the periodic counter events: FTQ occupancy and the
// cumulative prefetch lifecycle curves.
func (r *SimRecorder) sample() {
	ts := r.now()
	r.totals.FTQSamples++
	if r.ftqLen != nil {
		r.emit(TraceEvent{Name: "ftq_occupancy", Cat: "ftq", Ph: "C", TS: ts,
			TID: tidFTQ, Args: map[string]any{"entries": r.ftqLen()}})
	}
	if r.icache != nil && r.icache.PrefetchEnabled() {
		st := r.icache.PrefetchStats()
		r.emit(TraceEvent{Name: "prefetch_lifecycle", Cat: "prefetch", Ph: "C",
			TS: ts, TID: tidPrefetch, Args: map[string]any{
				"issued": st.Issued, "useful": st.Useful, "late": st.Late,
				"dropped": st.Dropped, "unused": st.Unused,
			}})
	}
}

// onPrefetchEvent receives the cache's lifecycle transitions: issue→fill is
// an async span per line (id = the line tag), everything else an instant.
func (r *SimRecorder) onPrefetchEvent(ev cache.PrefetchEvent) {
	r.totals.Prefetch[ev.Kind.String()]++
	id := fmt.Sprintf("%#x", ev.Line)
	switch ev.Kind {
	case cache.PrefetchIssue:
		r.emit(TraceEvent{Name: "inflight", Cat: "prefetch", Ph: "b", TS: ev.Clock,
			TID: tidPrefetch, ID: id})
	case cache.PrefetchFill, cache.PrefetchLate:
		// Both end the in-flight span: a fill installs the line, a late
		// demand miss takes over the MSHR.
		r.emit(TraceEvent{Name: "inflight", Cat: "prefetch", Ph: "e", TS: ev.Clock,
			TID: tidPrefetch, ID: id,
			Args: map[string]any{"outcome": ev.Kind.String()}})
	default:
		r.emit(TraceEvent{Name: ev.Kind.String(), Cat: "prefetch", Ph: "i",
			TS: ev.Clock, TID: tidPrefetch, ID: id})
	}
}

// Totals returns the whole-run summary.
func (r *SimRecorder) Totals() TraceTotals { return r.totals }

// Events returns the collected events (metadata first, then emission
// order).
func (r *SimRecorder) Events() []TraceEvent { return r.events }

// WriteJSON writes the trace-event document. The output is deterministic
// for a deterministic replay: events are emitted in simulation order and
// map keys marshal sorted.
func (r *SimRecorder) WriteJSON(w io.Writer) error {
	doc := traceDoc{
		Schema:          TraceSchema,
		DisplayTimeUnit: "ms",
		OtherData:       map[string]any{"totals": r.totals},
		TraceEvents:     r.events,
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(doc)
}

// CauseNames returns the recorded break causes sorted by count descending
// (ties by name), for reports.
func (r *SimRecorder) CauseNames() []string {
	names := make([]string, 0, len(r.totals.Causes))
	for k := range r.totals.Causes {
		names = append(names, k)
	}
	sort.Slice(names, func(i, j int) bool {
		ci, cj := r.totals.Causes[names[i]], r.totals.Causes[names[j]]
		if ci != cj {
			return ci > cj
		}
		return names[i] < names[j]
	})
	return names
}
