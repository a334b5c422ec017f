package obs

import (
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"repro/internal/arch"
	"repro/internal/cache"
	"repro/internal/fetch"
	"repro/internal/isa"
	"repro/internal/metrics"
	"repro/internal/pht"
	"repro/internal/ras"
	"repro/internal/workload"
)

func ev(pc isa.Addr, penalty fetch.PenaltyClass, cause fetch.Cause) fetch.BreakEvent {
	return fetch.BreakEvent{PC: pc, Kind: isa.CondBranch, Penalty: penalty, Cause: cause}
}

func TestAttributionAccumulation(t *testing.T) {
	a := NewAttribution()
	a.Break(ev(0x1000, fetch.PenaltyNone, fetch.CauseNone))
	a.Break(ev(0x1000, fetch.PenaltyMispredict, fetch.CauseDirWrong))
	a.Break(ev(0x2000, fetch.PenaltyMisfetch, fetch.CauseCold))
	a.Break(ev(0x2000, fetch.PenaltyMisfetch, fetch.CauseStalePointer))
	a.Break(ev(0x3000, fetch.PenaltyNone, fetch.CauseNone))

	p := metrics.Default()
	r := a.Report("test-arch", "test-prog", 0, p)
	if r.Breaks != 5 || r.Misfetches != 2 || r.Mispredicts != 1 {
		t.Fatalf("totals: %+v", r)
	}
	if r.StaticBranches != 3 || len(r.Top) != 3 {
		t.Fatalf("static branches: %+v", r)
	}
	// 2 misfetches (1 cycle) + 1 mispredict (4 cycles).
	if r.PenaltyCycles != 6 {
		t.Fatalf("penalty cycles = %v, want 6", r.PenaltyCycles)
	}
	// 0x1000 costs 4 cycles, 0x2000 costs 2, 0x3000 costs 0.
	if r.Top[0].PC != 0x1000 || r.Top[1].PC != 0x2000 || r.Top[2].PC != 0x3000 {
		t.Fatalf("offender order: %v %v %v", r.Top[0].PC, r.Top[1].PC, r.Top[2].PC)
	}
	if r.Causes[fetch.CauseDirWrong] != 1 || r.Causes[fetch.CauseCold] != 1 ||
		r.Causes[fetch.CauseStalePointer] != 1 {
		t.Fatalf("cause mix: %v", r.Causes)
	}
	if got := a.Report("a", "p", 2, p); len(got.Top) != 2 {
		t.Fatalf("topN truncation: %d rows", len(got.Top))
	}
}

// TestTableKeepsEveryCount: a packed Table reports exactly the per-branch
// counts the collector held, at the extremes of every field, and the zero
// Table reports no branches (with an empty, not nil, offender list).
func TestTableKeepsEveryCount(t *testing.T) {
	a := NewAttribution()
	big := &PCStats{PC: ^isa.Addr(0), Kind: isa.Return, Breaks: ^uint64(0),
		Misfetches: 1 << 40, Mispredicts: 1<<63 + 5, Polluted: 127}
	for c := range big.Causes {
		big.Causes[c] = uint64(c) << (7 * c)
	}
	a.byPC[big.PC] = big
	a.byPC[0] = &PCStats{Kind: isa.CondBranch, Breaks: 1}
	p := metrics.Default()
	want := []PCStats{*big, {Kind: isa.CondBranch, Breaks: 1}}
	if got := a.Table().Report("a", "p", 0, p).Top; !reflect.DeepEqual(got, want) {
		t.Fatalf("packed rows\n got %+v\nwant %+v", got, want)
	}
	// A truncated report owns its rows: it does not pin the rest.
	if got := a.Table().Report("a", "p", 1, p).Top; !reflect.DeepEqual(got, want[:1]) || cap(got) != len(got) {
		t.Fatalf("top-1 report: %+v with cap %d, want %+v with cap 1", got, cap(got), want[:1])
	}
	if r := (Table{}).Report("a", "p", 0, p); r.StaticBranches != 0 || r.Top == nil || len(r.Top) != 0 {
		t.Fatalf("zero Table report: %+v", r)
	}
}

func TestAttributionReportDeterministic(t *testing.T) {
	// Ties (equal penalty cycles) must order by PC, independent of map
	// iteration order.
	a := NewAttribution()
	for _, pc := range []isa.Addr{0x5000, 0x1000, 0x3000, 0x2000, 0x4000} {
		a.Break(ev(pc, fetch.PenaltyMisfetch, fetch.CauseCold))
	}
	p := metrics.Default()
	first := a.Report("a", "p", 0, p)
	for i := 0; i < 10; i++ {
		r := a.Report("a", "p", 0, p)
		for j := range r.Top {
			if r.Top[j].PC != first.Top[j].PC {
				t.Fatalf("iteration %d: nondeterministic order", i)
			}
		}
	}
	for j := 1; j < len(first.Top); j++ {
		if first.Top[j-1].PC >= first.Top[j].PC {
			t.Fatalf("ties not ordered by PC: %v", first.Top)
		}
	}
}

func TestRenderReportsAndJSON(t *testing.T) {
	a := NewAttribution()
	a.Break(ev(0x1000, fetch.PenaltyMispredict, fetch.CauseEvictionLoss))
	p := metrics.Default()
	r := a.Report("2/line NLS-cache", "micro", 10, p)

	text := RenderReports([]Report{r}, p)
	for _, want := range []string{"2/line NLS-cache", "eviction-loss=1", "0x00001000"} {
		if !strings.Contains(text, want) {
			t.Errorf("text report missing %q:\n%s", want, text)
		}
	}

	raw, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	var back struct {
		Causes map[string]uint64 `json:"causes"`
		Top    []struct {
			PC     string            `json:"pc"`
			Causes map[string]uint64 `json:"causes"`
		} `json:"top"`
	}
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatalf("report JSON does not round-trip: %v", err)
	}
	if back.Causes["eviction-loss"] != 1 || len(back.Top) != 1 || back.Top[0].PC != "0x00001000" {
		t.Fatalf("JSON shape: %s", raw)
	}
}

// TestAttributionGolden pins the attribution report for the paper's central
// comparison on a fixed workload seed: espresso-like, 200k instructions, an
// 8KB direct-mapped cache (small enough to thrash), NLS-table 1024 vs
// NLS-cache 2/line. The eviction-loss cause must be nonzero for the
// NLS-cache and zero for the NLS-table — §4.1's structural claim — and the
// exact mix is pinned like experiments' TestGoldenEventCounts: if this
// fails after an intentional change, re-record with
// go test ./internal/obs -run Golden -v.
func TestAttributionGolden(t *testing.T) {
	const n = 200_000
	tr := workload.Espresso().MustTrace(n)
	g := cache.MustGeometry(8*1024, 32, 1)
	newPHT := func() pht.Predictor {
		return pht.NewGShare(arch.PHTEntries, arch.PHTHistoryBits)
	}
	p := metrics.Default()

	run := func(e *fetch.Frontend, name string) Report {
		a := NewAttribution()
		e.AttachProbe(a)
		m := fetch.Run(e, tr)
		r := a.Report(name, "espresso-like", 5, p)
		// The probe contract: the attribution's totals restate the
		// engine's own counters exactly.
		if r.Breaks != m.Breaks || r.Misfetches != m.Misfetches || r.Mispredicts != m.Mispredicts {
			t.Fatalf("%s: attribution totals diverge from counters", name)
		}
		return r
	}

	table := run(fetch.NewNLSTableEngine(g, 1024, newPHT(), ras.DefaultDepth), "1024 NLS-table")
	coupled := run(fetch.NewNLSCacheEngine(g, 2, newPHT(), ras.DefaultDepth), "2/line NLS-cache")

	t.Logf("table:   mf=%d mp=%d causes=%s", table.Misfetches, table.Mispredicts, causeList(table.Causes))
	t.Logf("coupled: mf=%d mp=%d causes=%s", coupled.Misfetches, coupled.Mispredicts, causeList(coupled.Causes))

	// The acceptance criterion: state lost to eviction appears only for
	// the line-coupled organization.
	if table.Causes[fetch.CauseEvictionLoss] != 0 {
		t.Errorf("NLS-table reports %d eviction losses; its tag-less entries cannot be evicted",
			table.Causes[fetch.CauseEvictionLoss])
	}
	if coupled.Causes[fetch.CauseEvictionLoss] == 0 {
		t.Errorf("NLS-cache reports no eviction losses under an 8KB thrashing cache")
	}

	// Pinned mixes (see the comment above before editing).
	type golden struct {
		mf, mp, dirWrong, stale, evict, rasMiss, cold uint64
	}
	mix := func(r Report) golden {
		return golden{
			mf: r.Misfetches, mp: r.Mispredicts,
			dirWrong: r.Causes[fetch.CauseDirWrong],
			stale:    r.Causes[fetch.CauseStalePointer],
			evict:    r.Causes[fetch.CauseEvictionLoss],
			rasMiss:  r.Causes[fetch.CauseRASMiss],
			cold:     r.Causes[fetch.CauseCold],
		}
	}
	pinnedTable := golden{mf: 107, mp: 4154, dirWrong: 4153, stale: 70, evict: 0, rasMiss: 1, cold: 37}
	pinnedCoupled := golden{mf: 2280, mp: 4148, dirWrong: 4147, stale: 2201, evict: 46, rasMiss: 1, cold: 33}
	if got := mix(table); got != pinnedTable {
		t.Errorf("NLS-table mix changed: got %+v, pinned %+v", got, pinnedTable)
	}
	if got := mix(coupled); got != pinnedCoupled {
		t.Errorf("NLS-cache mix changed: got %+v, pinned %+v", got, pinnedCoupled)
	}
}
