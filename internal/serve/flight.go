package serve

import (
	"crypto/sha256"
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

// flightRole is how a request came by its flight, the X-NLS-Flight header.
type flightRole string

const (
	roleLeader flightRole = "leader" // submitted the flight to the executor pool
	roleShared flightRole = "shared" // joined an inflight flight
	roleMemo   flightRole = "memo"   // answered by a retained finished flight
)

// Memo bounds. A full memo is cleared rather than evicted entry by entry,
// as Store clears its memo of decoded cells: a body is a pure function of
// its flight key and never goes stale, so clearing costs one store-served
// flight per key on its next request. A figure-grid body is tens of KB
// (~500 bytes a cell, ~2MB at the default 4096-cell cap), so
// retainedBodyBytes keeps every documented job many times over; a
// document entry is a digest and a key, ~200 bytes with map overhead, so
// docKeysMax caps that map near 1MB.
const (
	retainedBodyBytes = 16 << 20
	docKeysMax        = 1 << 12
)

// flightGroup is the single-flight layer: at most one inflight flight per
// job key. Keys are content hashes over the job's cell store keys (see
// jobKey), so "identical request" means identical simulation content, not
// identical bytes on the wire. A flight that finished without error is
// retained under its key, so every later request for the key is answered
// by it without running anything; docs maps the SHA-256 of every job
// document that compiled to its key, so a repeat document finds its
// retained flight without being decoded.
type flightGroup struct {
	mu       sync.Mutex
	inflight map[string]*flight
	retained map[string]*flight
	held     int // body bytes of the retained flights
	docs     map[[sha256.Size]byte]string
}

// recall returns the retained flight of the document with the given
// digest, or nil when the document never compiled here or its flight is
// not retained.
func (g *flightGroup) recall(digest [sha256.Size]byte) *flight {
	g.mu.Lock()
	defer g.mu.Unlock()
	key, ok := g.docs[digest]
	if !ok {
		return nil
	}
	return g.retained[key]
}

// join returns the flight for key and the caller's role in it: the
// retained flight (roleMemo), else the inflight one (roleShared), else a
// new flight the caller leads (roleLeader). Only the leader costs a
// simulation. digest is the compiled document's SHA-256, remembered
// against key for recall.
func (g *flightGroup) join(key string, digest [sha256.Size]byte) (*flight, flightRole) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.inflight == nil {
		g.inflight = make(map[string]*flight)
		g.retained = make(map[string]*flight)
		g.docs = make(map[[sha256.Size]byte]string)
	}
	if len(g.docs) >= docKeysMax {
		clear(g.docs)
	}
	g.docs[digest] = key
	if fl := g.retained[key]; fl != nil {
		return fl, roleMemo
	}
	if fl := g.inflight[key]; fl != nil {
		return fl, roleShared
	}
	fl := &flight{key: key, hub: newProgressHub(), done: make(chan struct{})}
	g.inflight[key] = fl
	return fl, roleLeader
}

// finish publishes the flight's outcome and retires it: the flight leaves
// the inflight map and, unless it failed, is retained under its key, all
// before done is closed, so a request that follows a delivered answer is a
// memo answer. A failed flight is forgotten, so the next request for its
// key leads a fresh one; a body that alone exceeds retainedBodyBytes is
// not retained. Waiters blocked on done observe body/stats/err safely (the
// writes happen-before close), and so does a memo answer, which found the
// flight under g.mu.
func (g *flightGroup) finish(fl *flight, body []byte, stats experiments.RunStats, err error) {
	g.mu.Lock()
	fl.body, fl.stats, fl.err = body, stats, err
	delete(g.inflight, fl.key)
	if err == nil && len(body) <= retainedBodyBytes {
		if g.held+len(body) > retainedBodyBytes {
			clear(g.retained)
			g.held = 0
		}
		g.retained[fl.key] = fl
		g.held += len(body)
	}
	g.mu.Unlock()
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
