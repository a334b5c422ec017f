package experiments

import (
	"testing"

	"repro/internal/btb"
	"repro/internal/cache"
	"repro/internal/fetch"
	"repro/internal/pht"
	"repro/internal/workload"
)

// newPHT builds the paper's direction predictor: 4096-entry gshare.
func newPHT() pht.Predictor { return pht.NewGShare(PHTEntries, PHTHistoryBits) }

// Golden regression values: exact event counts for fixed (workload, seed,
// architecture) configurations. Workloads, the executor, and the engines
// are all deterministic, so any change to these numbers means a behavioural
// change somewhere in the stack — intentional recalibrations must update
// the constants below *and* re-run the full experiment suite so
// EXPERIMENTS.md and results/experiments_2M.txt stay truthful.
func TestGoldenEventCounts(t *testing.T) {
	const n = 200_000
	tr := workload.Espresso().MustTrace(n)
	g := cache.MustGeometry(16*1024, LineBytes, 1)

	nls := fetch.NewNLSTableEngine(g, 1024, newPHT(), RASDepth)
	mn := fetch.Run(nls, tr)
	bt := fetch.NewBTBEngine(g, btb.Config{Entries: 128, Assoc: 1}, newPHT(), RASDepth)
	mb := fetch.Run(bt, tr)

	type golden struct {
		breaks, nlsMf, nlsMp, btbMf, btbMp, misses uint64
	}
	// Recorded from the calibrated build; see the comment above before
	// editing.
	want := golden{
		breaks: mn.Breaks,
		nlsMf:  mn.Misfetches, nlsMp: mn.Mispredicts,
		btbMf: mb.Misfetches, btbMp: mb.Mispredicts,
		misses: mn.ICacheMisses,
	}
	got := golden{mn.Breaks, mn.Misfetches, mn.Mispredicts,
		mb.Misfetches, mb.Mispredicts, mn.ICacheMisses}
	if got != want {
		t.Fatalf("golden self-check failed: %+v vs %+v", got, want)
	}

	// The actual pinned values. If this fails after an intentional
	// change, re-record: go test ./internal/experiments -run Golden -v
	pinned := golden{
		breaks: 36321,
		nlsMf:  84, nlsMp: 4154,
		btbMf: 378, btbMp: 4160,
		misses: 212,
	}
	t.Logf("current: breaks=%d nlsMf=%d nlsMp=%d btbMf=%d btbMp=%d misses=%d",
		got.breaks, got.nlsMf, got.nlsMp, got.btbMf, got.btbMp, got.misses)
	if got != pinned {
		t.Errorf("behaviour changed: got %+v, pinned %+v", got, pinned)
	}
}
