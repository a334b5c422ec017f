package experiments

import (
	"strings"
	"testing"

	"repro/internal/workload"
)

// prefetchTestConfig runs the prefetch grid on two paper workloads, big
// enough that the 8KB cache sees real capacity pressure.
func prefetchTestConfig() Config {
	cfg := DefaultConfig(200_000)
	cfg.Programs = []workload.Spec{workload.Li(), workload.Gcc()}
	return cfg
}

// TestPrefetchGolden pins the prefetch figure's headline claims (the
// `make prefetch-golden` gate):
//
//   - FDIP actually prefetches (useful fills > 0) and its run-ahead absorbs
//     compulsory misses: the cold bucket shrinks vs the no-prefetch arm on
//     every paper workload tested.
//   - Coverage orders FDIP > next-line > none: the predicted stream beats
//     the sequential heuristic.
//   - Prefetching perturbs nothing in the prediction accounting: Breaks and
//     CondDirWrong are bit-identical across the three arms per program.
func TestPrefetchGolden(t *testing.T) {
	cfg := prefetchTestConfig()
	f := prefetchFigure()

	store, err := OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	rs, err := (&Executor{R: NewRunner(cfg), Store: store}).Run(f)
	if err != nil {
		t.Fatal(err)
	}
	rows := rs.Rows(f.Grid)
	arms := len(f.Grid.Arms)
	if len(rows) != arms*len(cfg.Programs) {
		t.Fatalf("got %d rows, want %d", len(rows), arms*len(cfg.Programs))
	}

	coldImproved := 0
	for p, prog := range cfg.Programs {
		base, fdip := rows[p*arms].M, rows[p*arms+2].M
		nextline := rows[p*arms+1].M
		for a := 1; a < arms; a++ {
			m := rows[p*arms+a].M
			if m.Breaks != base.Breaks || m.CondDirWrong != base.CondDirWrong {
				t.Errorf("%s arm %q: prefetching perturbed prediction accounting: breaks %d/%d, dir-wrong %d/%d",
					prog.Name, rows[p*arms+a].Arch, m.Breaks, base.Breaks, m.CondDirWrong, base.CondDirWrong)
			}
		}
		if base.PrefIssued != 0 {
			t.Errorf("%s: no-prefetch arm issued %d prefetches", prog.Name, base.PrefIssued)
		}
		if fdip.PrefUseful == 0 {
			t.Errorf("%s: fdip arm produced no useful prefetches", prog.Name)
		}
		if base.ICacheColdMisses == 0 || base.ICacheMisses == 0 {
			t.Errorf("%s: baseline run never missed (cold=%d misses=%d); the grid's cache is not under pressure",
				prog.Name, base.ICacheColdMisses, base.ICacheMisses)
		}
		if fdip.ICacheColdMisses < base.ICacheColdMisses {
			coldImproved++
		}
		if !(fdip.PrefCoverage() > nextline.PrefCoverage()) {
			t.Errorf("%s: fdip coverage %.3f not above next-line %.3f",
				prog.Name, fdip.PrefCoverage(), nextline.PrefCoverage())
		}
		if fdip.ICacheMisses >= base.ICacheMisses {
			t.Errorf("%s: fdip misses %d did not improve on baseline %d",
				prog.Name, fdip.ICacheMisses, base.ICacheMisses)
		}
	}
	if coldImproved == 0 {
		t.Errorf("fdip reduced the cold bucket on no workload")
	}

	text, _, err := (&Executor{R: NewRunner(cfg), Store: store}).RenderFigure(f, rs)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"FDIP", "next-line", "cold"} {
		if !strings.Contains(text, want) {
			t.Errorf("rendered figure missing %q:\n%s", want, text)
		}
	}

	// Warm pass: every prefetch cell must round-trip the store (the cell
	// value encodes the prefetch counters).
	warm, err := (&Executor{R: NewRunner(cfg), Store: store}).Run(f)
	if err != nil {
		t.Fatal(err)
	}
	if warm.Simulated != 0 {
		t.Errorf("warm run re-simulated %d prefetch cells", warm.Simulated)
	}
	warmRows := warm.Rows(f.Grid)
	for i := range rows {
		if warmRows[i].M != rows[i].M {
			t.Errorf("cell %d: warm-loaded counters differ from cold run", i)
		}
	}
}
