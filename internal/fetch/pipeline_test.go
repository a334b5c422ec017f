package fetch

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/btb"
	"repro/internal/cache"
	"repro/internal/metrics"
	"repro/internal/pht"
	"repro/internal/trace"
	"repro/internal/workload"
)

// pipelineEngines builds one engine set spanning several geometries, so
// the fan-out runs multiple per-geometry oracle goroutines for every block.
func pipelineEngines() []*Frontend {
	var engines []*Frontend
	for _, g := range []cache.Geometry{
		cache.MustGeometry(4*1024, 32, 1),
		cache.MustGeometry(8*1024, 32, 2),
		cache.MustGeometry(16*1024, 32, 4),
	} {
		engines = append(engines,
			NewNLSTableEngine(g, 512, pht.NewGShare(1024, 6), 32),
			NewNLSCacheEngine(g, 2, pht.NewGShare(1024, 6), 32),
			NewBTBEngine(g, btb.Config{Entries: 128, Assoc: 1}, pht.NewGShare(1024, 6), 32),
			NewJohnsonEngine(g),
		)
	}
	return engines
}

// pipelineReference returns the per-record Run counters of a fresh
// pipelineEngines set over tr.
func pipelineReference(tr *trace.Trace) []metrics.Counters {
	var want []metrics.Counters
	for _, e := range pipelineEngines() {
		want = append(want, *Run(e, tr))
	}
	return want
}

// checkWorkers broadcasts the chunked trace to a fresh pipelineEngines set at workers 1, 2 and 4 and
// checks every engine's counters against the per-record reference.
func checkWorkers(t *testing.T, label string, chunked *trace.Chunked, want []metrics.Counters) {
	t.Helper()
	for _, workers := range []int{1, 2, 4} {
		engines := pipelineEngines()
		if n := BroadcastWorkers(chunked.Chunks(), workers, engines...); n != int64(chunked.Len()) {
			t.Fatalf("%s workers=%d: replayed %d records, want %d", label, workers, n, chunked.Len())
		}
		for i, e := range engines {
			if got := *e.Counters(); got != want[i] {
				t.Errorf("%s workers=%d: %s diverges from Run\n got %+v\nwant %+v",
					label, workers, e.Name(), got, want[i])
			}
		}
	}
}

// TestBroadcastWorkersMatchRun: the fan-out leaves every engine of a
// multi-geometry set with the per-record Run counters at every worker
// count, across workloads.
func TestBroadcastWorkersMatchRun(t *testing.T) {
	for _, spec := range workload.All() {
		tr := spec.MustTrace(30_000)
		checkWorkers(t, spec.Name, trace.Chunk(tr, 1024), pipelineReference(tr))
	}
}

// BenchmarkBroadcastOraclePipeline runs the fan-out over a multi-geometry
// engine set (three oracle groups, twelve engines) on one program at
// workers=1 and workers=2. The ratio of the two Mstep/s figures is the
// fan-out's parallel speedup; on a single-core host they tie.
func BenchmarkBroadcastOraclePipeline(b *testing.B) {
	tr := workload.Gcc().MustTrace(1_000_000)
	chunked := trace.Chunk(tr, trace.DefaultChunkRecords)
	for _, workers := range []int{1, 2} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				engines := pipelineEngines()
				n := BroadcastWorkers(chunked.Chunks(), workers, engines...)
				if n != int64(tr.Len()) {
					b.Fatalf("replayed %d records, want %d", n, tr.Len())
				}
			}
			steps := float64(len(pipelineEngines())) * float64(tr.Len()) * float64(b.N)
			if s := b.Elapsed().Seconds(); s > 0 {
				b.ReportMetric(steps/s/1e6, "Mstep/s")
			}
		})
	}
}

// TestStressBroadcastAnnBufReuse hammers the fan-out under randomized
// workloads and chunk sizes while a churner goroutine recycles trace
// annotation buffers through the shared pools as fast as it can, poisoning
// every buffer it touches. If the fan-out ever recycled a group annotation
// still read by a worker — or handed two blocks aliasing slots/events
// storage — the churner's poison (and, under -race via `make stress`, the
// detector) exposes it; the counters must stay equal to the per-record
// reference regardless.
func TestStressBroadcastAnnBufReuse(t *testing.T) {
	const seed = 0x6e6c7333
	rng := rand.New(rand.NewSource(seed))
	t.Logf("seed %#x", seed)

	stop := make(chan struct{})
	var churn sync.WaitGroup
	churn.Add(1)
	go func() {
		defer churn.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			b := trace.GetAnnBuf(trace.DefaultChunkRecords)
			for i := range b {
				b[i] = 0xA5
			}
			trace.PutAnnBuf(b)
			e := trace.GetEvtBuf(trace.DefaultChunkRecords / 2)
			e = append(e, 0xA5A5A5A5)
			trace.PutEvtBuf(e)
		}
	}()
	defer churn.Wait()
	defer close(stop)

	rounds := 5
	if testing.Short() {
		rounds = 2
	}
	specs := workload.All()
	for round := 0; round < rounds; round++ {
		spec := specs[rng.Intn(len(specs))]
		insns := 20_000 + rng.Intn(30_000)
		chunk := 256 << rng.Intn(4) // 256..2048
		tr := spec.MustTrace(insns)
		label := fmt.Sprintf("round %d: %s chunk=%d", round, spec.Name, chunk)
		checkWorkers(t, label, trace.Chunk(tr, chunk), pipelineReference(tr))
	}
}
