package cache

import (
	"testing"

	"repro/internal/isa"
)

// TestAccessRunMatchesAccessLoop: AccessRun(set, way, n) on a resident line
// leaves the cache in exactly the state n individual Access calls to that
// line would — same counters, same LRU clock, same stamps — observable
// through subsequent replacement decisions.
func TestAccessRunMatchesAccessLoop(t *testing.T) {
	g := MustGeometry(1024, 32, 2)
	batched, looped := New(g), New(g)

	// Warm both caches identically: two lines in set 0.
	stride := isa.Addr(g.NumSets() * g.LineBytes()) // next line mapping to set 0
	a := isa.Addr(0x0000)
	b := a + stride
	c := b + stride // third line, will need a victim in set 0
	for _, ca := range []*Cache{batched, looped} {
		ca.Access(a)
		ca.Access(b)
	}

	// Touch a 5 more times: batched vs individually.
	way, hit := batched.Probe(a)
	if !hit {
		t.Fatal("warmed line not resident")
	}
	batched.AccessRun(g.SetIndex(a), way, 5)
	for i := 0; i < 5; i++ {
		looped.Access(a)
	}

	if batched.Accesses() != looped.Accesses() || batched.Misses() != looped.Misses() {
		t.Fatalf("counters diverge: batched %d/%d, looped %d/%d",
			batched.Accesses(), batched.Misses(), looped.Accesses(), looped.Misses())
	}

	// b is now LRU in both; accessing c must evict b, not a, in both.
	for _, tc := range []struct {
		name string
		c    *Cache
	}{{"batched", batched}, {"looped", looped}} {
		if hit, _ := tc.c.Access(c); hit {
			t.Fatalf("%s: line c unexpectedly resident", tc.name)
		}
		if _, resident := tc.c.Probe(a); !resident {
			t.Errorf("%s: MRU line a was evicted", tc.name)
		}
		if _, resident := tc.c.Probe(b); resident {
			t.Errorf("%s: LRU line b survived", tc.name)
		}
	}
}

// TestAccessRunAtRunCapBoundary: the replay layers cap run annotations at
// 255 (trace.BlockRuns), so a longer straight-line stretch is applied as
// Access + AccessRun(255) + Access + AccessRun(rest) — the second leader
// re-deriving its slot from LastSlot after a 255-long batch. The split
// replay must leave counters, LRU clock, and stamps exactly as the looped
// per-record Accesses would. 2048-byte lines hold 512 instructions, so the
// whole stretch stays within one line.
func TestAccessRunAtRunCapBoundary(t *testing.T) {
	g := MustGeometry(8*1024, 2048, 2)
	batched, looped := New(g), New(g)

	const stretch = 400 // > 255: crosses the uint8 run cap
	lineBase := isa.Addr(0x4000)
	other := lineBase + isa.Addr(g.NumSets()*g.LineBytes()) // same set, different line

	for _, c := range []*Cache{batched, looped} {
		c.Access(other) // occupy the other way first so LRU order is observable
	}

	// Batched: leader access, 255-run, new leader at the cap boundary, rest.
	if hit, _ := batched.Access(lineBase); hit {
		t.Fatal("cold line unexpectedly resident")
	}
	set, way := batched.LastSlot()
	batched.AccessRun(set, way, 255)
	if hit, _ := batched.Access(lineBase + 256*isa.InstrBytes); !hit {
		t.Fatal("continuation leader missed inside its own line")
	}
	set, way = batched.LastSlot()
	batched.AccessRun(set, way, stretch-257)

	for i := 0; i < stretch; i++ {
		looped.Access(lineBase + isa.Addr(i)*isa.InstrBytes)
	}

	if batched.Accesses() != looped.Accesses() || batched.Misses() != looped.Misses() {
		t.Fatalf("counters diverge: batched %d/%d, looped %d/%d",
			batched.Accesses(), batched.Misses(), looped.Accesses(), looped.Misses())
	}
	if batched.clock != looped.clock {
		t.Fatalf("LRU clocks diverge: batched %d, looped %d", batched.clock, looped.clock)
	}
	// `other` is LRU in both: a third line mapping to the set must evict it
	// and keep the just-run line.
	third := other + isa.Addr(g.NumSets()*g.LineBytes())
	for _, tc := range []struct {
		name string
		c    *Cache
	}{{"batched", batched}, {"looped", looped}} {
		if hit, _ := tc.c.Access(third); hit {
			t.Fatalf("%s: third line unexpectedly resident", tc.name)
		}
		if _, resident := tc.c.Probe(lineBase); !resident {
			t.Errorf("%s: freshly-run line was evicted", tc.name)
		}
		if _, resident := tc.c.Probe(other); resident {
			t.Errorf("%s: LRU line survived", tc.name)
		}
	}
}
