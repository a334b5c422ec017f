package arch

import (
	"strings"
	"testing"

	"repro/internal/cache"
	"repro/internal/fetch"
	"repro/internal/isa"
	"repro/internal/trace"
	"repro/internal/workload"
)

// envelopeArms are the paper's four architectures, the ones a job names.
func envelopeArms() []Spec {
	return []Spec{NLSTable(1024), NLSCache(NLSPerLine), BTB(128, 1), Johnson()}
}

// broadcastMatchesRun checks that a broadcast of every spec on g gives
// each engine the counters of a per-record Run over tr.
func broadcastMatchesRun(t *testing.T, tr *trace.Trace, g cache.Geometry, specs []Spec) {
	t.Helper()
	var engines []*fetch.Frontend
	for _, s := range specs {
		engines = append(engines, s.WithGeometry(g).MustBuild())
	}
	fetch.BroadcastWorkers(trace.Chunk(tr, 4096).Chunks(), 2, engines...)
	for i, s := range specs {
		want := fetch.Run(s.WithGeometry(g).MustBuild(), tr)
		if got := engines[i].Counters(); *got != *want {
			t.Errorf("%s on %v: broadcast misfetches %d, per-record Run %d",
				s.Predictor.Kind, g, got.Misfetches, want.Misfetches)
		}
	}
}

// TestValidateRejectsWideCaches: a cache of more than 128 ways is refused
// for every arm, naming assoc. gcc-like at 200k insns on an 8KB 256-way
// cache gave three of the four arms broadcast counters that differ from
// per-record Run, because the oracle keeps a way in 7 bits; at 128 ways,
// which Validate accepts, every arm matches.
func TestValidateRejectsWideCaches(t *testing.T) {
	wide := cache.MustGeometry(8*1024, LineBytes, 256)
	for _, s := range envelopeArms() {
		err := s.WithGeometry(wide).Validate()
		if err == nil || !strings.Contains(err.Error(), "assoc") {
			t.Errorf("%s on %v: Validate = %v, want an error naming assoc", s.Predictor.Kind, wide, err)
		}
	}
	tr := workload.Gcc().MustTrace(200_000)
	broadcastMatchesRun(t, tr, cache.MustGeometry(8*1024, LineBytes, MaxAssoc), envelopeArms())
}

// TestValidateRejectsManySets: an arm whose pointers name a set is refused
// on a cache of more than 65536 sets. A trace bouncing between two lines
// 2MB apart on a 4MB direct-mapped cache of 32-byte lines (131072 sets)
// gave the NLS-cache and Johnson arms one misfetch fewer from the broadcast
// than from per-record Run, because a break event keeps the set in 16
// bits. The BTB names no set, so it stays accepted and exact there.
func TestValidateRejectsManySets(t *testing.T) {
	big := cache.MustGeometry(4<<20, LineBytes, 1)
	var btbs []Spec
	for _, s := range append(envelopeArms(), Hybrid(1024, 128, 1), CoupledBTB(128, 1)) {
		err := s.WithGeometry(big).Validate()
		switch s.Predictor.Kind {
		case KindBTB, KindCoupledBTB:
			if err != nil {
				t.Errorf("%s on %v rejected: %v", s.Predictor.Kind, big, err)
			}
			btbs = append(btbs, s)
		default:
			if err == nil || !strings.Contains(err.Error(), "sets") {
				t.Errorf("%s on %v: Validate = %v, want an error naming the sets", s.Predictor.Kind, big, err)
			}
		}
	}
	if len(btbs) == 0 {
		t.Fatal("no BTB arm checked")
	}

	const a, b = isa.Addr(0x1000), isa.Addr(0x1000 + 2<<20)
	tr := &trace.Trace{Name: "bounce"}
	for range 5000 {
		tr.Records = append(tr.Records,
			trace.Record{PC: a, Kind: isa.UncondBranch, Taken: true, Target: b},
			trace.Record{PC: b, Kind: isa.UncondBranch, Taken: true, Target: a})
	}
	broadcastMatchesRun(t, tr, big, btbs)
}
