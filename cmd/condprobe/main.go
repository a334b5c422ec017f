// Command condprobe is a workload diagnostic: it runs a standalone
// direction predictor over an analogue's conditional-branch stream and
// attributes mispredictions to branch sites and their CFG behaviors (loop
// backedges, duty-cycle patterns, biased guards). It was used to calibrate
// the workload generators so the paper's PHT achieves era-realistic
// accuracy (see EXPERIMENTS.md), and remains useful when adding analogues.
//
// Usage:
//
//	condprobe -workload gcc [-n 2000000] [-pht gshare|bimodal] [-hist 6] [-top 12]
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"

	"repro/internal/cfg"
	"repro/internal/exec"
	"repro/internal/isa"
	"repro/internal/pht"
	"repro/internal/trace"
	"repro/internal/workload"
)

func main() {
	var (
		wl        = flag.String("workload", "gcc", "workload analogue name")
		n         = flag.Int("n", 1_000_000, "instructions to execute")
		predictor = flag.String("pht", "gshare", "direction predictor: gshare or bimodal")
		hist      = flag.Int("hist", 6, "gshare history bits (0 = full index width)")
		top       = flag.Int("top", 12, "behavior classes and sites to print")
	)
	flag.Parse()

	spec, ok := workload.ByName(*wl)
	if !ok {
		fatal(fmt.Errorf("unknown workload %q", *wl))
	}
	p, err := spec.Program()
	if err != nil {
		fatal(err)
	}

	// Map conditional terminator addresses to behavior descriptions.
	desc := map[isa.Addr]string{}
	for _, pr := range p.Procs {
		for _, b := range pr.Blocks {
			if b.Term.Kind != isa.CondBranch {
				continue
			}
			switch bh := b.Term.Behavior; bh.Kind {
			case cfg.BehaviorLoop:
				desc[b.TermAddr()] = fmt.Sprintf("loop trip=%d", bh.Trip)
			case cfg.BehaviorBias:
				desc[b.TermAddr()] = fmt.Sprintf("bias p=%.2f", bh.P)
			case cfg.BehaviorPattern:
				desc[b.TermAddr()] = fmt.Sprintf("pattern len=%d", len(bh.Pattern))
			}
		}
	}

	e, err := exec.New(p, spec.Seed^0x9e3779b97f4a7c15)
	if err != nil {
		fatal(err)
	}
	var g pht.Predictor
	switch *predictor {
	case "bimodal":
		g = pht.NewBimodal(4096)
	case "gshare":
		g = pht.NewGShare(4096, *hist)
	default:
		fatal(fmt.Errorf("unknown predictor %q", *predictor))
	}

	type tally struct{ execs, wrong uint64 }
	sites := map[isa.Addr]*tally{}
	var execs, wrong uint64
	e.Run(*n, func(r trace.Record) {
		if r.Kind != isa.CondBranch {
			return
		}
		s := sites[r.PC]
		if s == nil {
			s = &tally{}
			sites[r.PC] = s
		}
		s.execs++
		execs++
		if g.Query(r.PC) != r.Taken {
			s.wrong++
			wrong++
		}
		g.Resolve(r.PC, 0, r.Taken)
	})
	if execs == 0 {
		fatal(fmt.Errorf("no conditional branches executed"))
	}

	fmt.Printf("%s with %s: conds=%d accuracy=%.2f%% restarts=%d (pass ≈ %d insns)\n",
		spec.Name, g.Name(), execs, 100*(1-float64(wrong)/float64(execs)),
		e.Restarts(), uint64(*n)/(e.Restarts()+1))

	// Aggregate by behavior class.
	agg := map[string]*tally{}
	for a, s := range sites {
		d := desc[a]
		if d == "" {
			d = "(unattributed)"
		}
		t := agg[d]
		if t == nil {
			t = &tally{}
			agg[d] = t
		}
		t.execs += s.execs
		t.wrong += s.wrong
	}
	keys := make([]string, 0, len(agg))
	for k := range agg {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return agg[keys[i]].wrong > agg[keys[j]].wrong })
	fmt.Printf("\nbehavior classes by mispredictions (top %d):\n", *top)
	for i, k := range keys {
		if i >= *top {
			break
		}
		t := agg[k]
		fmt.Printf("  %-18s execs=%8d wrong=%7d acc=%5.1f%% share=%4.1f%%\n",
			k, t.execs, t.wrong, 100*(1-float64(t.wrong)/float64(t.execs)),
			100*float64(t.wrong)/float64(wrong))
	}

	type site struct {
		a isa.Addr
		t *tally
	}
	list := make([]site, 0, len(sites))
	for a, s := range sites {
		list = append(list, site{a, s})
	}
	sort.Slice(list, func(i, j int) bool { return list[i].t.wrong > list[j].t.wrong })
	fmt.Printf("\nworst sites (top %d):\n", *top)
	for i := 0; i < *top && i < len(list); i++ {
		it := list[i]
		fmt.Printf("  %s %-18s execs=%8d wrong=%7d\n", it.a, desc[it.a], it.t.execs, it.t.wrong)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "condprobe:", err)
	os.Exit(1)
}
