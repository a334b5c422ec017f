package telemetry

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/arch"
	"repro/internal/fetch"
	"repro/internal/trace"
	"repro/internal/workload"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata golden files")

const traceTestInsns = 60_000

// traceTestSpec is the recorded configuration: the paper NLS-table frontend
// decoupled through an 8-entry FTQ with FDIP prefetching into an 8KB
// cache — small enough that the li workload at 60k instructions produces
// breaks, prefetch traffic, and real FTQ occupancy swings.
func traceTestSpec() arch.Spec {
	s := arch.NLSTable(1024)
	s.Cache.SizeBytes = 8 * 1024
	s.Prefetch = &arch.PrefetchSpec{Kind: arch.PrefKindFDIP, FTQDepth: 8}
	return s
}

// recordTrace replays li through a recorder-attached engine and returns the
// recorder plus the run's counters.
func recordTrace(t *testing.T, opts SimRecorderOptions) (*SimRecorder, uint64) {
	t.Helper()
	engine := traceTestSpec().MustBuild()
	rec := NewSimRecorder(opts)
	rec.Attach(engine)
	src, err := workload.Li().Source()
	if err != nil {
		t.Fatal(err)
	}
	m := fetch.RunChunks(engine, trace.NewSourceChunks(src, traceTestInsns, trace.DefaultChunkRecords))
	return rec, m.Breaks
}

// TestTraceGolden pins the byte-exact trace-event export for a fixed
// (workload, spec, options) triple — the `make trace-golden` gate. The
// export must be deterministic: sim-time timestamps only, fixed event
// order, sorted JSON keys. Regenerate with `go test ./internal/telemetry
// -run TraceGolden -update` and review the diff.
func TestTraceGolden(t *testing.T) {
	rec, _ := recordTrace(t, SimRecorderOptions{SampleEvery: 256, MaxEvents: 1200})
	var buf bytes.Buffer
	if err := rec.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}

	golden := filepath.Join("testdata", "trace_golden.json")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (regenerate with -update): %v", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("trace export diverged from %s (%d vs %d bytes); regenerate with -update and review",
			golden, buf.Len(), len(want))
	}

	// The golden must be a valid trace-event document with the pinned schema.
	var doc struct {
		Schema      string       `json:"schema"`
		TraceEvents []TraceEvent `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("export is not valid JSON: %v", err)
	}
	if doc.Schema != TraceSchema {
		t.Errorf("schema = %q, want %q", doc.Schema, TraceSchema)
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatal("export holds no events")
	}
}

// TestTraceContent checks the recorder saw the run: break instants,
// FTQ occupancy samples, and the full prefetch lifecycle.
func TestTraceContent(t *testing.T) {
	rec, breaks := recordTrace(t, SimRecorderOptions{SampleEvery: 64})
	tot := rec.Totals()
	if tot.Breaks != breaks {
		t.Errorf("recorder saw %d breaks, engine counted %d", tot.Breaks, breaks)
	}
	if tot.WrongBreaks == 0 || len(tot.Causes) == 0 {
		t.Errorf("no wrong breaks recorded (wrong=%d causes=%v)", tot.WrongBreaks, tot.Causes)
	}
	if tot.FTQSamples == 0 {
		t.Error("no FTQ occupancy samples")
	}
	for _, kind := range []string{"issue", "fill", "useful"} {
		if tot.Prefetch[kind] == 0 {
			t.Errorf("no %q prefetch lifecycle events (got %v)", kind, tot.Prefetch)
		}
	}

	phs := map[string]int{}
	cats := map[string]int{}
	var lastTS uint64
	tsOrdered := true
	for _, ev := range rec.Events() {
		phs[ev.Ph]++
		cats[ev.Cat]++
		if ev.Ph != "M" {
			if ev.TS < lastTS {
				tsOrdered = false
			}
			lastTS = ev.TS
		}
	}
	if !tsOrdered {
		t.Error("event timestamps are not monotone in emission order")
	}
	for _, ph := range []string{"M", "i", "C", "b", "e"} {
		if phs[ph] == 0 {
			t.Errorf("no %q-phase events (got %v)", ph, phs)
		}
	}
	for _, cat := range []string{"break", "ftq", "prefetch"} {
		if cats[cat] == 0 {
			t.Errorf("no %q-category events (got %v)", cat, cats)
		}
	}
	if names := rec.CauseNames(); len(names) == 0 {
		t.Error("CauseNames is empty")
	}
}

// TestTraceEventCap: past MaxEvents, events are dropped and counted, and
// the totals keep accumulating.
func TestTraceEventCap(t *testing.T) {
	rec, _ := recordTrace(t, SimRecorderOptions{SampleEvery: 16, MaxEvents: 50})
	if got := len(rec.Events()); got > 50 {
		t.Errorf("cap 50 exceeded: %d events", got)
	}
	tot := rec.Totals()
	if tot.DroppedEvents == 0 {
		t.Error("tiny cap dropped nothing")
	}
	if tot.Breaks == 0 || tot.FTQSamples == 0 {
		t.Errorf("totals stopped at the cap: breaks=%d samples=%d", tot.Breaks, tot.FTQSamples)
	}
}

// TestSimRecorderCountersBitIdentical is the zero-perturbation gate: a
// recorder-attached replay must produce counters bit-identical to a bare
// replay of the same spec, both with and without a prefetcher in the spec.
func TestSimRecorderCountersBitIdentical(t *testing.T) {
	specs := map[string]arch.Spec{
		"fdip": traceTestSpec(),
		"bare": arch.NLSTable(1024),
	}
	for name, s := range specs {
		t.Run(name, func(t *testing.T) {
			run := func(record bool) string {
				engine := s.MustBuild()
				if record {
					rec := NewSimRecorder(SimRecorderOptions{SampleEvery: 32})
					rec.Attach(engine)
				}
				src, err := workload.Li().Source()
				if err != nil {
					t.Fatal(err)
				}
				m := fetch.RunChunks(engine, trace.NewSourceChunks(src, traceTestInsns, trace.DefaultChunkRecords))
				b, err := json.Marshal(m)
				if err != nil {
					t.Fatal(err)
				}
				return string(b)
			}
			bare, recorded := run(false), run(true)
			if bare != recorded {
				t.Errorf("recorder perturbed the run:\nbare     %s\nrecorded %s", bare, recorded)
			}
		})
	}
}
