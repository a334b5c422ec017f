package main

import (
	"encoding/json"
	"fmt"
	"os"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around
// the call (the program itself is not instrumented).
type span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent"` // 0 for a root span
	Name   string  `json:"name"`
	Start  float64 `json:"start_s"` // seconds since the run began
	End    float64 `json:"end_s"`
	Run    string  `json:"run"`
}

func (s span) dur() float64 { return s.End - s.Start }

// tracer keeps a run's spans in memory. Spans nest strictly (the ledger
// calls layers one at a time), so a stack of open spans gives each new
// span its parent.
type tracer struct {
	run    string
	origin time.Time
	spans  []span // span ID i is spans[i-1]
	open   []int  // IDs of the open spans, innermost last
}

func newTracer(run string) *tracer { return &tracer{run: run, origin: time.Now()} }

func (t *tracer) now() float64 { return time.Since(t.origin).Seconds() }

// begin opens a span under the innermost open span and returns its ID.
func (t *tracer) begin(name string) int {
	parent := 0
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Start: t.now(), Run: t.run})
	t.open = append(t.open, id)
	return id
}

// end closes the innermost span, which must be id.
func (t *tracer) end(id int) {
	n := len(t.open)
	if n == 0 || t.open[n-1] != id {
		panic("prodbench: span " + t.spans[id-1].Name + " closed out of order")
	}
	t.spans[id-1].End = t.now()
	t.open = t.open[:n-1]
}

// span times fn as one span named name.
func (t *tracer) span(name string, fn func() error) error {
	id := t.begin(name)
	err := fn()
	t.end(id)
	return err
}

// selfTimes sums, by span name, the self time of every span below the
// root span rootID: a span's duration minus the part its children cover.
// Children never overlap (spans nest strictly), so that part is the sum of
// their durations.
func (t *tracer) selfTimes(rootID int) map[string]float64 {
	child := map[int]float64{}
	for _, s := range t.spans {
		child[s.Parent] += s.dur()
	}
	under := func(s span) bool {
		for s.Parent != 0 {
			if s.Parent == rootID {
				return true
			}
			s = t.spans[s.Parent-1]
		}
		return false
	}
	out := map[string]float64{}
	for _, s := range t.spans {
		if under(s) {
			out[s.Name] += s.dur() - child[s.ID]
		}
	}
	return out
}

// coverage is the share of root span rootID that its layer spans explain:
// the sum of their self times over the root's duration.
func (t *tracer) coverage(rootID int) float64 {
	var self float64
	for _, v := range t.selfTimes(rootID) {
		self += v
	}
	return self / t.spans[rootID-1].dur()
}

// write saves the spans and the run's metrics as one JSON document.
func (t *tracer) write(path string, metrics []metric) error {
	if len(t.open) != 0 {
		return fmt.Errorf("span %s still open", t.spans[t.open[len(t.open)-1]-1].Name)
	}
	buf, err := json.MarshalIndent(struct {
		Run     string   `json:"run"`
		Spans   []span   `json:"spans"`
		Metrics []metric `json:"metrics"`
	}{t.run, t.spans, metrics}, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(buf, '\n'), 0o644)
}
