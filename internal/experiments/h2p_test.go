package experiments

import (
	"strings"
	"testing"

	"repro/internal/obs"
	"repro/internal/workload"
)

// TestH2PFigure exercises the probed h2p path end to end on a small run:
// one ranking per program, both arms labeled, and the tentpole's acceptance
// criterion — the equal-cost TAGE-lite arm recovers dir-wrong penalties the
// gshare arm pays — holding through the executor, not just the two-engine
// golden pair in package obs.
func TestH2PFigure(t *testing.T) {
	cfg := DefaultConfig(120_000)
	cfg.Programs = []workload.Spec{workload.Espresso(), workload.Li()}
	x := &Executor{R: NewRunner(cfg)}

	f, ok := FigureByName("h2p")
	if !ok {
		t.Fatal("h2p figure not registered")
	}
	if f.Probed == nil || len(f.Grid.Arms) != 0 {
		t.Fatal("h2p figure must probe its grid and declare no counter cells")
	}
	text, data, err := x.RenderFigure(f, nil)
	if err != nil {
		t.Fatal(err)
	}
	ranks, ok := data.([]obs.H2PRanking)
	if !ok {
		t.Fatalf("h2p data is %T, want []obs.H2PRanking", data)
	}
	if len(ranks) != len(cfg.Programs) {
		t.Fatalf("got %d rankings for %d programs", len(ranks), len(cfg.Programs))
	}
	var recoveredSomewhere bool
	for i, k := range ranks {
		if k.Program != cfg.Programs[i].Name {
			t.Errorf("ranking %d labeled %q, program is %q", i, k.Program, cfg.Programs[i].Name)
		}
		if !strings.Contains(k.BaseArch, "gshare") || !strings.Contains(k.AltArch, "tage") {
			t.Errorf("ranking %d arms %q vs %q; want gshare base, tage alt", i, k.BaseArch, k.AltArch)
		}
		if k.BaseTotal == 0 {
			t.Errorf("%s: gshare pays no dir-wrong penalties; the comparison is vacuous", k.Program)
		}
		if len(k.Rows) > H2PTopN {
			t.Errorf("%s: %d rows, cap is %d", k.Program, len(k.Rows), H2PTopN)
		}
		if k.AltTotal < k.BaseTotal {
			recoveredSomewhere = true
		}
	}
	if !recoveredSomewhere {
		t.Error("TAGE-lite recovered nothing on any program")
	}
	for _, want := range []string{"H2P:", "recovered", "base-dw"} {
		if !strings.Contains(text, want) {
			t.Errorf("figure text missing %q:\n%s", want, text)
		}
	}
}
