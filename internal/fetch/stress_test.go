package fetch

import (
	"math/rand"
	"testing"

	"repro/internal/trace"
	"repro/internal/workload"
)

// TestStressBroadcastRandomWorkers hammers the broadcast fan-out with
// randomized worker counts, chunk sizes, and workloads, checking every
// round against the sequential (workers=1) replay. The seed is logged so a
// failure reproduces exactly; run under -race via `make stress`.
func TestStressBroadcastRandomWorkers(t *testing.T) {
	const seed = 0x6e6c7331 // fixed: stress variety comes from rounds, not runs
	rng := rand.New(rand.NewSource(seed))
	t.Logf("seed %#x", seed)

	rounds := 6
	if testing.Short() {
		rounds = 2
	}
	specs := workload.All()
	for round := 0; round < rounds; round++ {
		spec := specs[rng.Intn(len(specs))]
		insns := 20_000 + rng.Intn(40_000)
		chunk := 256 << rng.Intn(4) // 256..2048
		workers := 2 + rng.Intn(15) // 2..16

		tr := spec.MustTrace(insns)
		chunked := trace.Chunk(tr, chunk)

		seq, par := broadcastEngines()
		if n := BroadcastWorkers(chunked.Chunks(), 1, seq...); n != int64(tr.Len()) {
			t.Fatalf("round %d (%s): sequential replayed %d, want %d", round, spec.Name, n, tr.Len())
		}
		if n := BroadcastWorkers(chunked.Chunks(), workers, par...); n != int64(tr.Len()) {
			t.Fatalf("round %d (%s, workers=%d): replayed %d, want %d",
				round, spec.Name, workers, n, tr.Len())
		}
		for i := range seq {
			want := *seq[i].Counters()
			if got := *par[i].Counters(); got != want {
				t.Errorf("round %d: %s on %s with workers=%d chunk=%d diverges from sequential\n got %+v\nwant %+v",
					round, par[i].Name(), spec.Name, workers, chunk, got, want)
			}
		}
	}
}

// TestStressBroadcastSharedAnnotations repeats the randomized sweep over
// the mixed-line-size engine set, so every block carries one shared run
// annotation per line size, read concurrently by group oracles and by
// private engines on different workers.
func TestStressBroadcastSharedAnnotations(t *testing.T) {
	const seed = 0x6e6c7332
	rng := rand.New(rand.NewSource(seed))
	t.Logf("seed %#x", seed)

	rounds := 4
	if testing.Short() {
		rounds = 1
	}
	for round := 0; round < rounds; round++ {
		spec := workload.All()[rng.Intn(len(workload.All()))]
		insns := 20_000 + rng.Intn(20_000)
		workers := 2 + rng.Intn(7)

		tr := spec.MustTrace(insns)
		chunked := trace.Chunk(tr, 1024)

		seq, par := mixedLineEngines(), mixedLineEngines()
		BroadcastWorkers(chunked.Chunks(), 1, seq...)
		if n := BroadcastWorkers(chunked.Chunks(), workers, par...); n != int64(tr.Len()) {
			t.Fatalf("round %d (%s): replayed %d records, want %d", round, spec.Name, n, tr.Len())
		}
		for i := range seq {
			want := *seq[i].Counters()
			if got := *par[i].Counters(); got != want {
				t.Errorf("round %d: %s on %s workers=%d: fan-out diverges from workers=1\n got %+v\nwant %+v",
					round, par[i].Name(), spec.Name, workers, got, want)
			}
		}
	}
}
