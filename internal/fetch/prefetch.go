package fetch

import (
	"strconv"

	"repro/internal/cache"
	"repro/internal/isa"
)

// The fetch.Prefetcher protocol (DESIGN.md §14) mirrors the Probe contract:
// a nil-check fast path when detached, zero mutation of frontend state when
// attached. A prefetcher observes the two streams the decoupled pipeline
// exposes — the fetch stage's demand accesses and the BPU's FTQ pushes —
// and turns them into cache.Prefetch calls; all fill/MSHR modeling lives in
// internal/cache, so a prefetcher is pure policy.

// Prefetcher is a pluggable i-cache prefetch policy attached to a Frontend.
type Prefetcher interface {
	// OnAccess observes one demand fetch-block access (called once per
	// cache-line transition of the fetch stage, not per instruction), with
	// the access outcome.
	OnAccess(pc isa.Addr, hit bool)
	// OnFTQPush observes the BPU queueing one predicted fetch-block
	// address, ahead of the fetch stage.
	OnFTQPush(addr isa.Addr)
	// Name identifies the policy, e.g. "next-line x1" or "fdip".
	Name() string
	// Reset restores the initial state.
	Reset()
}

// NextLinePrefetcher is the classic sequential policy (the ChampSim
// next-line baseline): every demand fetch-block access triggers prefetches
// of the next `degree` sequential lines. It ignores the FTQ stream and
// works with FTQ depth 0.
type NextLinePrefetcher struct {
	c         *cache.Cache
	lineBytes isa.Addr
	degree    int
}

// NewNextLinePrefetcher builds a next-line policy issuing `degree`
// sequential line prefetches per fetch-block access against c.
func NewNextLinePrefetcher(c *cache.Cache, degree int) *NextLinePrefetcher {
	return &NextLinePrefetcher{
		c:         c,
		lineBytes: isa.Addr(c.Geometry().LineBytes()),
		degree:    degree,
	}
}

// OnAccess implements Prefetcher: prefetch the `degree` lines sequentially
// following the accessed block, hit or miss (a pure next-line stream keeps
// the prefetcher one line ahead even while the demand stream hits).
func (p *NextLinePrefetcher) OnAccess(pc isa.Addr, hit bool) {
	for d := 1; d <= p.degree; d++ {
		p.c.Prefetch(pc + isa.Addr(d)*p.lineBytes)
	}
}

// OnFTQPush implements Prefetcher; the next-line policy ignores the BPU.
func (p *NextLinePrefetcher) OnFTQPush(isa.Addr) {}

// Name implements Prefetcher.
func (p *NextLinePrefetcher) Name() string {
	if p.degree == 1 {
		return "next-line"
	}
	return "next-line x" + strconv.Itoa(p.degree)
}

// Reset implements Prefetcher (the policy is stateless).
func (p *NextLinePrefetcher) Reset() {}

// FDIPPrefetcher is fetch-directed instruction prefetching: the predicted
// fetch-block addresses the BPU queues into the FTQ are prefetched the
// moment they are queued, so the prefetch lead equals however far the BPU
// runs ahead of fetch (bounded by the FTQ depth). It requires a decoupled
// frontend with FTQ depth >= 1; it ignores the demand stream.
type FDIPPrefetcher struct {
	c *cache.Cache
}

// NewFDIPPrefetcher builds the FDIP policy against c.
func NewFDIPPrefetcher(c *cache.Cache) *FDIPPrefetcher {
	return &FDIPPrefetcher{c: c}
}

// OnAccess implements Prefetcher; FDIP is driven by the BPU, not demand.
func (p *FDIPPrefetcher) OnAccess(isa.Addr, bool) {}

// OnFTQPush implements Prefetcher: prefetch every predicted fetch block as
// it enters the queue.
func (p *FDIPPrefetcher) OnFTQPush(addr isa.Addr) { p.c.Prefetch(addr) }

// Name implements Prefetcher.
func (p *FDIPPrefetcher) Name() string { return "fdip" }

// Reset implements Prefetcher (the policy is stateless).
func (p *FDIPPrefetcher) Reset() {}
