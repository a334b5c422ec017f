// Custom workloads: the cfg statement DSL lets you describe a program's
// control structure directly — loops with trip counts, biased or periodic
// conditionals, call trees, indirect dispatch — and run any fetch
// architecture over its execution.
//
// This example hand-builds a tiny "image filter" shape: an outer row loop,
// an inner pixel loop with a boundary test and a rare error path calling a
// cold handler, and a per-row helper call. It then compares NLS-table and
// BTB fetch prediction over it.
//
//	go run ./examples/customworkload
package main

import (
	"fmt"
	"log"

	"repro/internal/arch"
	"repro/internal/cache"
	"repro/internal/cfg"
	"repro/internal/exec"
	"repro/internal/fetch"
	"repro/internal/metrics"
	"repro/internal/trace"
)

func main() {
	const (
		mainProc = cfg.ProcID(0)
		rowProc  = cfg.ProcID(1)
		coldProc = cfg.ProcID(2)
	)

	// main: for 64 rows { process(row) }
	mainBody := []cfg.Stmt{
		cfg.Straight{N: 6},
		cfg.Loop{Trip: 64, Body: []cfg.Stmt{
			cfg.Straight{N: 3},
			cfg.CallTo{Callee: rowProc},
		}},
	}

	// process: for 48 pixels { boundary test; rare error -> cold handler }
	rowBody := []cfg.Stmt{
		cfg.Straight{N: 4},
		cfg.Loop{Trip: 48, Body: []cfg.Stmt{
			cfg.Straight{N: 5},
			// Boundary pixels every 16th iteration: perfectly
			// periodic, so a two-level predictor nails it.
			cfg.If{
				Cond: cfg.Behavior{Kind: cfg.BehaviorPattern,
					Pattern: boundaryPattern(16)},
				Then: []cfg.Stmt{cfg.Straight{N: 4}},
			},
			// A rare error path into cold code (taken = skip).
			cfg.If{
				Cond: cfg.BiasBehavior(0.995),
				Then: []cfg.Stmt{cfg.CallTo{Callee: coldProc}},
			},
		}},
	}

	coldBody := []cfg.Stmt{
		cfg.Straight{N: 30},
		cfg.If{Cond: cfg.BiasBehavior(0.5), Then: []cfg.Stmt{cfg.Straight{N: 12}}},
	}

	prog, err := cfg.BuildProgram("imagefilter", 0,
		[]string{"main", "process_row", "error_handler"},
		[][]cfg.Stmt{mainBody, rowBody, coldBody})
	if err != nil {
		log.Fatal(err)
	}
	tr, err := exec.Trace(prog, 7, 500_000)
	if err != nil {
		log.Fatal(err)
	}
	st := trace.ComputeStats(tr)
	fmt.Printf("program: %d procs, %d blocks, %d static cond sites\n",
		len(prog.Procs), prog.NumBlocks(), prog.StaticCondSites())
	fmt.Printf("trace:   %%breaks %.1f, %%taken %.1f, Q-90 %d sites\n\n",
		st.PctBreaks(), st.PctCondTaken(), st.Q90)

	g := cache.MustGeometry(8*1024, 32, 1)
	p := metrics.Default()
	for _, eng := range []*fetch.Frontend{
		arch.NLSTable(1024).WithGeometry(g).MustBuild(),
		arch.BTB(128, 1).WithGeometry(g).MustBuild(),
	} {
		m := fetch.Run(eng, tr)
		fmt.Printf("%-36s BEP %.4f (mf %.4f, mp %.4f), cond-acc %.1f%%\n",
			eng.Name(), m.BEP(p), m.MisfetchBEP(p), m.MispredictBEP(p),
			100*m.CondAccuracy())
	}
	_ = mainProc
}

// boundaryPattern is true once every period executions.
func boundaryPattern(period int) []bool {
	pat := make([]bool, period)
	pat[period-1] = true
	return pat
}
