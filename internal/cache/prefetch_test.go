package cache

import (
	"testing"

	"repro/internal/isa"
)

// line returns the address of line n of a 32-byte-line address space.
func line(n int) isa.Addr { return isa.Addr(n * 32) }

func TestPrefetchLifecycle(t *testing.T) {
	c := New(MustGeometry(1024, 32, 1))
	c.EnablePrefetch(8, 3) // 3-access fill latency

	// Timely: prefetch, then 3 demand accesses elsewhere to drain, then
	// the demand hit on the prefetched line.
	c.Prefetch(line(1))
	c.Access(line(10))
	c.Access(line(11))
	c.Access(line(12))
	if hit, _ := c.Access(line(1)); !hit {
		t.Fatalf("drained prefetch did not satisfy the demand access")
	}
	st := c.PrefetchStats()
	if st.Issued != 1 || st.Useful != 1 || st.Late != 0 {
		t.Fatalf("timely prefetch stats: %+v", st)
	}

	// Late: demand arrives while the prefetch is still in flight.
	c.Prefetch(line(2))
	if hit, _ := c.Access(line(2)); hit {
		t.Fatalf("in-flight prefetch satisfied a demand access")
	}
	if st = c.PrefetchStats(); st.Late != 1 {
		t.Fatalf("late prefetch stats: %+v", st)
	}

	// Redundant: the line is already resident, then already in flight.
	c.Prefetch(line(1))
	c.Prefetch(line(3))
	c.Prefetch(line(3))
	if st = c.PrefetchStats(); st.Redundant != 2 {
		t.Fatalf("redundant prefetch stats: %+v", st)
	}
}

func TestPrefetchMSHRCap(t *testing.T) {
	c := New(MustGeometry(1024, 32, 1))
	c.EnablePrefetch(2, 100)
	c.Prefetch(line(1))
	c.Prefetch(line(2))
	c.Prefetch(line(3)) // both MSHRs busy
	st := c.PrefetchStats()
	if st.Issued != 2 || st.Dropped != 1 {
		t.Fatalf("MSHR cap stats: %+v", st)
	}
	// A late demand frees the MSHR; capacity returns.
	c.Access(line(1))
	c.Prefetch(line(4))
	if st = c.PrefetchStats(); st.Issued != 3 || st.Dropped != 1 {
		t.Fatalf("post-free stats: %+v", st)
	}
}

func TestPrefetchUnusedEviction(t *testing.T) {
	// Direct-mapped 2-set cache (64 bytes): lines 0 and 2 collide in set 0.
	c := New(MustGeometry(64, 32, 1))
	c.EnablePrefetch(8, 1)
	c.Prefetch(line(2))
	c.Access(line(1)) // set 1: drains the fill of line 2 into set 0
	if _, resident := c.Contains(line(2)); !resident {
		t.Fatalf("prefetch fill did not land")
	}
	c.Access(line(0)) // evicts the never-demanded line 2
	st := c.PrefetchStats()
	if st.Unused != 1 || st.Useful != 0 {
		t.Fatalf("unused eviction stats: %+v", st)
	}
}

func TestColdMissTracking(t *testing.T) {
	c := New(MustGeometry(64, 32, 1))
	c.Access(line(0)) // first touch: cold
	c.Access(line(2)) // first touch, evicts line 0: cold
	c.Access(line(0)) // conflict miss, line already seen: not cold
	if c.Misses() != 3 || c.ColdMisses() != 2 {
		t.Fatalf("misses=%d cold=%d, want 3/2", c.Misses(), c.ColdMisses())
	}
}

// TestPrefetchAbsorbsColdMiss: a useful prefetch is the line's first touch,
// so the line never shows up in the cold bucket — the property the FDIP
// figure's cold column is built on.
func TestPrefetchAbsorbsColdMiss(t *testing.T) {
	c := New(MustGeometry(1024, 32, 1))
	c.EnablePrefetch(8, 1)
	c.Prefetch(line(5))
	c.Access(line(9)) // drains the fill (cold miss of line 9 itself)
	if hit, _ := c.Access(line(5)); !hit {
		t.Fatalf("prefetched line not resident")
	}
	if c.ColdMisses() != 1 {
		t.Fatalf("cold=%d, want 1 (only the draining access's own miss)", c.ColdMisses())
	}
	// Any run with misses has at least one cold miss: the first demand
	// miss of a run is by definition compulsory.
	if c.Misses() > 0 && c.ColdMisses() == 0 {
		t.Fatalf("misses without cold misses")
	}
}

func TestPrefetchReset(t *testing.T) {
	c := New(MustGeometry(1024, 32, 1))
	c.EnablePrefetch(2, 5)
	c.Prefetch(line(1))
	c.Access(line(2))
	c.Reset()
	if st := c.PrefetchStats(); st != (PrefetchStats{}) {
		t.Fatalf("Reset kept prefetch stats: %+v", st)
	}
	if c.ColdMisses() != 0 {
		t.Fatalf("Reset kept cold misses")
	}
	if !c.PrefetchEnabled() {
		t.Fatalf("Reset disabled prefetching")
	}
	// The model still works after Reset.
	c.Prefetch(line(3))
	if st := c.PrefetchStats(); st.Issued != 1 {
		t.Fatalf("post-Reset issue: %+v", st)
	}
}
