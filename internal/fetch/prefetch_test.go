package fetch

import (
	"strings"
	"testing"

	"repro/internal/metrics"
	"repro/internal/pht"
	"repro/internal/trace"
)

// mkNLS builds the reference small NLS-table engine the prefetch tests
// decorate.
func mkNLS() *NLSEngine {
	return NewNLSTableEngine(smallGeom(), 256, pht.NewGShare(512, 0), 8)
}

// withFDIP decorates an engine with the FDIP prefetcher at the given FTQ
// depth, wiring the i-cache's MSHR model exactly as arch.Spec.Build does.
func withFDIP(e *NLSEngine, depth int) *NLSEngine {
	ic := e.ICache()
	ic.EnablePrefetch(8, 20)
	e.SetFTQDepth(depth)
	e.AttachPrefetcher(NewFDIPPrefetcher(ic))
	return e
}

func TestFTQUnit(t *testing.T) {
	var q FTQ
	// Depth 0: every push is refused, the queue stays empty.
	q.push(0x1000, 0)
	if !q.Empty() || q.Stats().Pushes != 0 {
		t.Fatalf("depth-0 queue accepted a push: %+v", q.Stats())
	}
	q.SetDepth(2)
	if q.Cap() != 2 || !q.Empty() || q.Full() {
		t.Fatalf("sized queue in wrong state: cap=%d", q.Cap())
	}
	q.push(0x1000, 0)
	q.push(0x2000, 8)
	if !q.Full() || q.Stats().Pushes != 2 {
		t.Fatalf("queue not full after 2 pushes")
	}
	q.push(0x3000, 16) // refused
	if q.Stats().Pushes != 2 {
		t.Fatalf("push into full queue was counted")
	}
	e, ok := q.peek()
	if !ok || e.addr != 0x1000 || e.pos != 0 {
		t.Fatalf("peek = %+v, %v", e, ok)
	}
	q.pop()
	q.push(0x3000, 16) // wraps around the ring
	if e, _ := q.peek(); e.addr != 0x2000 {
		t.Fatalf("FIFO order broken after wraparound: head=%#x", e.addr)
	}
	q.flush()
	if !q.Empty() || q.Stats().Flushes != 1 {
		t.Fatalf("flush did not empty/count: %+v", q.Stats())
	}
	q.flush() // empty flush is not counted
	if q.Stats().Flushes != 1 {
		t.Fatalf("empty flush was counted")
	}
	q.reset()
	if q.Stats() != (FTQStats{}) || q.Cap() != 2 {
		t.Fatalf("reset cleared depth or kept stats: %+v cap=%d", q.Stats(), q.Cap())
	}
}

// TestDecoupledNoPrefetcherMatchesFused: with an FTQ but no prefetcher, the
// three-stage pipeline is pure plumbing — every counter must equal the
// fused path's, for any trace, under both block and per-record stepping of
// the fused reference. This is the bit-identity half of the DESIGN.md §14
// refactor contract, exercised with the queue actually running ahead.
func TestDecoupledNoPrefetcherMatchesFused(t *testing.T) {
	for seed := int64(400); seed < 412; seed++ {
		tr := randomTrace(seed, 600)
		fused := mkNLS()
		Run(fused, tr)

		dec := mkNLS()
		dec.SetFTQDepth(8)
		dec.StepBlock(tr.Records)
		if *dec.Counters() != *fused.Counters() {
			t.Fatalf("seed %d: FTQ-only pipeline diverges from fused path:\n  fused %+v\n  ftq   %+v",
				seed, *fused.Counters(), *dec.Counters())
		}
		st := dec.FTQStats()
		if st.Pushes == 0 {
			t.Fatalf("seed %d: the BPU cursor never pushed", seed)
		}
		if st.Flushes == 0 {
			t.Fatalf("seed %d: no wrong break ever flushed the queue", seed)
		}
	}
}

// TestDecoupledStepMatchesBlockOfOne: per-record Step of a decoupled engine
// is defined as a single-record block (zero lookahead); two engines driven
// record-by-record and block-of-one must agree exactly.
func TestDecoupledStepMatchesBlockOfOne(t *testing.T) {
	tr := randomTrace(7, 500)
	a := withFDIP(mkNLS(), 8)
	for _, r := range tr.Records {
		a.Step(r)
	}
	b := withFDIP(mkNLS(), 8)
	for _, r := range tr.Records {
		b.StepBlock(tr.Records[:0]) // empty blocks are inert
		b.StepBlock([]trace.Record{r})
	}
	if *a.Counters() != *b.Counters() {
		t.Fatalf("Step diverges from StepBlock-of-one:\n  step  %+v\n  block %+v",
			*a.Counters(), *b.Counters())
	}
}

// TestFDIPAbsorbsColdMisses: on a straight-line trace the BPU cursor runs a
// full FTQ ahead of fetch, so every line after the first is prefetched with
// enough lead to beat the fill latency — useful fills appear and the cold
// (compulsory) bucket collapses toward the handful of lines the queue
// cannot lead (the very first, and the post-redirect restart).
func TestFDIPAbsorbsColdMisses(t *testing.T) {
	b := newTB(0x1000)
	b.plain(800)
	tr := &trace.Trace{Name: "plain", Records: b.recs}

	base := mkNLS()
	base.StepBlock(tr.Records)
	mb := base.Counters()

	fdip := withFDIP(mkNLS(), 8)
	fdip.StepBlock(tr.Records)
	mf := fdip.Counters()

	if mb.ICacheColdMisses == 0 {
		t.Fatalf("baseline has no cold misses; trace does not span lines")
	}
	if mf.PrefUseful == 0 {
		t.Fatalf("fdip produced no useful prefetches: %+v", *mf)
	}
	if mf.ICacheColdMisses >= mb.ICacheColdMisses {
		t.Fatalf("fdip cold misses %d did not improve on baseline %d",
			mf.ICacheColdMisses, mb.ICacheColdMisses)
	}
	if mf.Breaks != mb.Breaks || mf.Instructions != mb.Instructions {
		t.Fatalf("prefetching perturbed the replay: %+v vs %+v", *mf, *mb)
	}
}

// TestNextLineStepEqualsStepBlock: the next-line policy consumes only the
// demand stream, whose fetch-block transitions are identical however the
// trace is blocked — so per-record Step and one big StepBlock agree. (FDIP
// is deliberately excluded: its lookahead horizon is the block by design.)
func TestNextLineStepEqualsStepBlock(t *testing.T) {
	for seed := int64(430); seed < 438; seed++ {
		tr := randomTrace(seed, 500)
		mk := func() *NLSEngine {
			e := mkNLS()
			ic := e.ICache()
			ic.EnablePrefetch(8, 20)
			e.AttachPrefetcher(NewNextLinePrefetcher(ic, 2))
			return e
		}
		stepped := mk()
		for _, r := range tr.Records {
			stepped.Step(r)
		}
		blocked := mk()
		blocked.StepBlock(tr.Records)
		if *stepped.Counters() != *blocked.Counters() {
			t.Fatalf("seed %d: next-line StepBlock diverges from Step:\n  step  %+v\n  block %+v",
				seed, *stepped.Counters(), *blocked.Counters())
		}
	}
}

// TestPrefetchOracleIneligibility: a prefetching (or merely FTQ-decoupled)
// engine injects fills no shared fetch oracle models, so it must opt out of
// oracle grouping; a detached depth-0 engine stays eligible.
func TestPrefetchOracleIneligibility(t *testing.T) {
	e := mkNLS()
	if !e.oracleEligible() {
		t.Fatalf("plain engine ineligible for oracle sharing")
	}
	e.SetFTQDepth(4)
	if e.oracleEligible() {
		t.Fatalf("FTQ-decoupled engine still oracle-eligible")
	}
	e.SetFTQDepth(0)
	if !e.oracleEligible() {
		t.Fatalf("depth-0 engine did not regain eligibility")
	}
	ic := e.ICache()
	ic.EnablePrefetch(8, 20)
	e.AttachPrefetcher(NewNextLinePrefetcher(ic, 1))
	if e.oracleEligible() {
		t.Fatalf("prefetching engine still oracle-eligible")
	}
	e.AttachPrefetcher(nil)
	if !e.oracleEligible() {
		t.Fatalf("detached engine did not regain eligibility")
	}
}

// TestPrefetchResetDeterminism: Reset restores a prefetching engine to its
// cold state — a second identical run reproduces every counter, including
// the prefetch lifecycle stats and FTQ traffic.
func TestPrefetchResetDeterminism(t *testing.T) {
	tr := randomTrace(11, 600)
	e := withFDIP(mkNLS(), 8)
	e.StepBlock(tr.Records)
	first := *e.Counters()
	firstQ := e.FTQStats()
	if first.PrefIssued == 0 {
		t.Fatalf("run issued no prefetches; test is vacuous")
	}
	e.Reset()
	if got := *e.Counters(); got != (metrics.Counters{}) {
		t.Fatalf("Reset left counters behind: %+v", got)
	}
	e.StepBlock(tr.Records)
	if got := *e.Counters(); got != first {
		t.Fatalf("post-Reset run diverges:\n  first  %+v\n  second %+v", first, got)
	}
	if got := e.FTQStats(); got != firstQ {
		t.Fatalf("post-Reset FTQ stats diverge: %+v vs %+v", got, firstQ)
	}
}

// TestPrefetcherNames: the engine surfaces its prefetch policy in Name()
// and the policies describe their configuration.
func TestPrefetcherNames(t *testing.T) {
	e := mkNLS()
	ic := e.ICache()
	ic.EnablePrefetch(8, 20)
	if p := NewNextLinePrefetcher(ic, 1); p.Name() != "next-line" {
		t.Errorf("degree-1 name = %q", p.Name())
	}
	if p := NewNextLinePrefetcher(ic, 3); p.Name() != "next-line x3" {
		t.Errorf("degree-3 name = %q", p.Name())
	}
	e.AttachPrefetcher(NewFDIPPrefetcher(ic))
	if !strings.Contains(e.Name(), "fdip") {
		t.Errorf("engine name %q does not mention the prefetcher", e.Name())
	}
}
