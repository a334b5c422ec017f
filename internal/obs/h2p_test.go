package obs

import (
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/arch"
	"repro/internal/cache"
	"repro/internal/fetch"
	"repro/internal/isa"
	"repro/internal/pht"
	"repro/internal/ras"
	"repro/internal/workload"
)

// dirEv builds a dir-wrong mispredict event for RankH2P mechanics tests.
func dirEv(pc isa.Addr) fetch.BreakEvent {
	return ev(pc, fetch.PenaltyMispredict, fetch.CauseDirWrong)
}

func TestRankH2PMechanics(t *testing.T) {
	base, alt := NewAttribution(), NewAttribution()
	// 0x1000: 3 base, 1 alt (recovered 2). 0x2000: 1 base, 0 alt.
	// 0x3000: 0 base, 2 alt (a regression row). 0x4000: dir-clean both
	// sides — must not appear. Both sides see every branch, in the same
	// first-seen order, as two engines on one trace do.
	clean := func(pc isa.Addr) fetch.BreakEvent { return ev(pc, fetch.PenaltyNone, fetch.CauseNone) }
	for i := 0; i < 3; i++ {
		base.Break(dirEv(0x1000))
	}
	alt.Break(dirEv(0x1000))
	base.Break(dirEv(0x2000))
	alt.Break(clean(0x2000))
	base.Break(clean(0x3000))
	alt.Break(dirEv(0x3000))
	alt.Break(dirEv(0x3000))
	base.Break(ev(0x4000, fetch.PenaltyMisfetch, fetch.CauseCold))
	alt.Break(ev(0x4000, fetch.PenaltyMisfetch, fetch.CauseCold))

	k := RankH2P("p", "g", "t", base.Table(), alt.Table(), 0)
	if k.BaseTotal != 4 || k.AltTotal != 3 {
		t.Fatalf("totals: %+v", k)
	}
	if k.H2PBranches != 3 || len(k.Rows) != 3 {
		t.Fatalf("h2p branch count: %+v", k)
	}
	// Ordered by base dir-wrong desc, PC tiebreak: 0x1000(3), 0x2000(1),
	// 0x3000(0).
	if k.Rows[0].PC != 0x1000 || k.Rows[1].PC != 0x2000 || k.Rows[2].PC != 0x3000 {
		t.Fatalf("row order: %+v", k.Rows)
	}
	if k.Rows[0].Recovered() != 2 || k.Rows[2].Recovered() != -2 {
		t.Fatalf("recovered deltas: %+v", k.Rows)
	}
	if got := RankH2P("p", "g", "t", base.Table(), alt.Table(), 2); len(got.Rows) != 2 || cap(got.Rows) != len(got.Rows) {
		t.Fatalf("topN truncation: %d rows with cap %d, want 2 with cap 2", len(got.Rows), cap(got.Rows))
	}

	text := RenderH2P("H2P test", []H2PRanking{k})
	for _, want := range []string{"base=g alt=t", "dir-wrong 4 -> 3", "0x00001000"} {
		if !strings.Contains(text, want) {
			t.Errorf("render missing %q:\n%s", want, text)
		}
	}
	raw, err := json.Marshal(k)
	if err != nil {
		t.Fatal(err)
	}
	var back struct {
		Rows []struct {
			PC        string `json:"pc"`
			Recovered int64  `json:"recovered"`
		} `json:"rows"`
	}
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatalf("ranking JSON does not round-trip: %v", err)
	}
	if len(back.Rows) != 3 || back.Rows[0].PC != "0x00001000" || back.Rows[0].Recovered != 2 {
		t.Fatalf("JSON shape: %s", raw)
	}
}

// TestRankH2PUnpairedTables: tables whose rows name different PCs (two
// engines probed over different records) are refused, not ranked.
func TestRankH2PUnpairedTables(t *testing.T) {
	a, b := NewAttribution(), NewAttribution()
	a.Break(dirEv(0x1000))
	b.Break(dirEv(0x2000))
	for name, alt := range map[string]Table{"another branch": b.Table(), "fewer branches": {}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: RankH2P accepted tables that do not pair", name)
				}
			}()
			RankH2P("p", "g", "t", a.Table(), alt, 0)
		}()
	}
}

// TestH2PGolden pins the tentpole's acceptance criterion on a fixed
// workload seed: the equal-cost TAGE-lite arm recovers a nonzero share of
// the dir-wrong cause bucket against the paper's gshare on the identical
// 1024-entry NLS-table architecture (espresso-like, 200k instructions,
// paper 16KB direct cache). The exact totals are pinned like
// TestAttributionGolden: if this fails after an intentional change,
// re-record with go test ./internal/obs -run H2PGolden -v.
func TestH2PGolden(t *testing.T) {
	const n = 200_000
	tr := workload.Espresso().MustTrace(n)
	g := cache.MustGeometry(arch.DefaultCacheKB*1024, arch.LineBytes, 1)

	run := func(d pht.Predictor) Table {
		e := fetch.NewNLSTableEngine(g, 1024, d, ras.DefaultDepth)
		a := NewAttribution()
		e.AttachProbe(a)
		fetch.Run(e, tr)
		return a.Table()
	}
	gshare := run(pht.NewGShare(arch.PHTEntries, arch.PHTHistoryBits))
	tage, err := arch.TAGEPHT().Build()
	if err != nil {
		t.Fatal(err)
	}
	alt := run(tage)

	k := RankH2P("espresso-like", "gshare", "tage", gshare, alt, 8)
	t.Logf("dir-wrong %d -> %d (recovered %.1f%%, h2p-branches=%d)",
		k.BaseTotal, k.AltTotal, 100*k.RecoveredShare(), k.H2PBranches)
	for _, r := range k.Rows {
		t.Logf("  %s breaks=%d base=%d alt=%d", r.PC, r.Breaks, r.BaseDirWrong, r.AltDirWrong)
	}

	// The acceptance criterion: nonzero recovery at equal storage cost.
	if k.AltTotal >= k.BaseTotal {
		t.Fatalf("TAGE-lite recovers nothing: dir-wrong %d -> %d", k.BaseTotal, k.AltTotal)
	}
	// Pinned totals (see the comment above before editing).
	const pinnedBase, pinnedAlt = 4153, 2299
	if k.BaseTotal != pinnedBase || k.AltTotal != pinnedAlt {
		t.Errorf("h2p totals changed: got %d -> %d, pinned %d -> %d",
			k.BaseTotal, k.AltTotal, pinnedBase, pinnedAlt)
	}
}
