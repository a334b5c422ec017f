package workload

import (
	"testing"

	"repro/internal/trace"
)

// TestSourceStreamsSameTrace: Spec.Source is seeded identically to
// Spec.Trace, so drawing the records chunk by chunk (as Spec.Stream does
// for every corpus-less replay) yields exactly the materialized trace.
func TestSourceStreamsSameTrace(t *testing.T) {
	const n = 40_000
	for _, spec := range All() {
		want, err := spec.Trace(n)
		if err != nil {
			t.Fatalf("%s: %v", spec.Name, err)
		}
		src, err := spec.Source()
		if err != nil {
			t.Fatalf("%s: %v", spec.Name, err)
		}
		cs := trace.NewSourceChunks(src, n, 777) // odd size: boundaries everywhere
		i := 0
		for blk := cs.NextChunk(); len(blk) > 0; blk = cs.NextChunk() {
			for _, r := range blk {
				if r != want.Records[i] {
					t.Fatalf("%s: streamed record %d differs", spec.Name, i)
				}
				i++
			}
		}
		if i != n {
			t.Fatalf("%s: streamed %d records, want %d", spec.Name, i, n)
		}
	}
}
