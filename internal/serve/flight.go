package serve

import (
	"sync"

	"repro/internal/experiments"
)

// A flight is one in-progress or finished execution of a job key: the
// single unit N identical concurrent requests share. The leader executes;
// everyone (leader included) waits on done and then reads body/stats/err,
// which are written exactly once before done is closed. stats is the
// run's record, surfaced in response headers and folded into the
// registry; it is deliberately NOT part of the body: a warm re-request
// must be byte-identical to the cold response, and the store accounting
// differs between the two.
type flight struct {
	key  string
	hub  *progressHub
	done chan struct{}

	body  []byte
	stats experiments.RunStats
	err   error
}

// flightGroup is the single-flight layer: at most one inflight flight per
// job key. Keys are content hashes over the job's cell store keys (see
// jobKey), so "identical request" means identical simulation content, not
// identical bytes on the wire.
type flightGroup struct {
	mu       sync.Mutex
	inflight map[string]*flight
}

// join returns the flight for key, creating it when none is inflight.
// leader reports whether the caller owns execution; followers share the
// leader's result without costing a simulation.
func (g *flightGroup) join(key string) (fl *flight, leader bool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.inflight == nil {
		g.inflight = make(map[string]*flight)
	}
	if fl := g.inflight[key]; fl != nil {
		return fl, false
	}
	fl = &flight{key: key, hub: newProgressHub(), done: make(chan struct{})}
	g.inflight[key] = fl
	return fl, true
}

// finish publishes the flight's outcome and retires it: the flight leaves
// the inflight map BEFORE done is closed, so a request arriving after
// completion starts a fresh flight (and is served from the store) rather
// than joining a finished one. Waiters blocked on done observe
// body/stats/err safely (the writes happen-before close).
func (g *flightGroup) finish(fl *flight, body []byte, stats experiments.RunStats, err error) {
	g.mu.Lock()
	delete(g.inflight, fl.key)
	g.mu.Unlock()
	fl.body, fl.stats, fl.err = body, stats, err
	fl.hub.close()
	close(fl.done)
}

// progressHub fans one job's run record out to any number of streaming
// subscribers, as Executor.Progress hands it over after each program.
// Channels hold one element and publish is latest-wins: a slow subscriber
// never blocks the progress callback (which the executor calls under its
// run lock) and always sees the most recent record next. The hub closes
// only after the run's last publish, so a subscriber that joined before
// that publish reads the final record before its channel closes.
type progressHub struct {
	mu     sync.Mutex
	subs   map[chan experiments.RunStats]struct{}
	closed bool
}

func newProgressHub() *progressHub {
	return &progressHub{subs: make(map[chan experiments.RunStats]struct{})}
}

// subscribe registers a listener; cancel unregisters it. The channel is
// closed when the flight finishes (or immediately if it already has).
func (h *progressHub) subscribe() (<-chan experiments.RunStats, func()) {
	ch := make(chan experiments.RunStats, 1)
	h.mu.Lock()
	if h.closed {
		close(ch)
		h.mu.Unlock()
		return ch, func() {}
	}
	h.subs[ch] = struct{}{}
	h.mu.Unlock()
	return ch, func() {
		h.mu.Lock()
		delete(h.subs, ch)
		h.mu.Unlock()
	}
}

// publish delivers a snapshot to every subscriber without blocking: a full
// channel has its stale element replaced.
func (h *progressHub) publish(s experiments.RunStats) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.closed {
		return
	}
	for ch := range h.subs {
		select {
		case ch <- s:
		default:
			select {
			case <-ch:
			default:
			}
			select {
			case ch <- s:
			default:
			}
		}
	}
}

// close ends every subscription; publish becomes a no-op.
func (h *progressHub) close() {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.closed {
		return
	}
	h.closed = true
	for ch := range h.subs {
		close(ch)
		delete(h.subs, ch)
	}
}
