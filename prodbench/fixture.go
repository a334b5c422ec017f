package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"sort"

	"repro/internal/arch"
	"repro/internal/experiments"
	"repro/internal/fetch"
	"repro/internal/metrics"
	"repro/internal/trace"
	"repro/internal/workload"
	"repro/internal/xrand"
)

// paperInsns is the paper matrix's per-program instruction budget.
const paperInsns = 2_000_000

// seededSpecs returns the six Table-1 analogues with every Spec.Seed
// perturbed by the benchmark seed: the same seed gives the same programs
// and traces, another seed gives programs with the same calibrated
// parameters but different code. A perturbation whose program fails to
// generate is replaced by the next one the seed's stream yields, so every
// seed produces six valid workloads.
func seededSpecs(seed uint64) ([]workload.Spec, error) {
	rng := xrand.New(seed)
	specs := workload.All()
	for i := range specs {
		base := specs[i].Seed
		for try := 0; ; try++ {
			specs[i].Seed = base ^ rng.Uint64()
			if _, err := specs[i].Program(); err == nil {
				break
			} else if try == 15 {
				return nil, fmt.Errorf("workload %s: no valid perturbation in 16 tries: %w", specs[i].Name, err)
			}
		}
	}
	return specs, nil
}

// paperConfig is the paper's run configuration over seeded workloads.
func paperConfig(specs []workload.Spec, insns int) experiments.Config {
	return experiments.Config{Insns: insns, Programs: specs, Penalties: metrics.Default()}
}

// The four arm kinds of the paper matrix, in the order the per-kind replay
// metrics name them.
var paperKinds = []struct {
	metric string
	arm    experiments.Arm
}{
	{"fetch.replay_nls_cache_s", experiments.Arm{Name: "NLS-cache", Spec: arch.NLSCache(experiments.NLSPerLine)}},
	{"fetch.replay_nls_table_s", experiments.Arm{Name: "1024 NLS-table", Spec: arch.NLSTable(1024)}},
	{"fetch.replay_btb_s", experiments.Arm{Name: "128-entry direct BTB", Spec: arch.BTB(128, 1)}},
	{"fetch.replay_johnson_s", experiments.Arm{Name: "Johnson 1-bit", Spec: arch.Johnson()}},
}

// paperGrid is the paper matrix: the four arm kinds on every paper cache
// (24 cells per program, 144 over the six programs).
func paperGrid() experiments.Grid {
	g := experiments.Grid{Name: "paper"}
	for _, k := range paperKinds {
		a := k.arm
		a.Caches = experiments.PaperCaches()
		g.Arms = append(g.Arms, a)
	}
	return g
}

// uniqueCells returns the distinct cells of grids over cfg's programs, in
// first-appearance order, with their content keys.
func uniqueCells(cfg experiments.Config, grids []experiments.Grid) ([]experiments.Cell, []string) {
	var cells []experiments.Cell
	var keys []string
	seen := map[string]bool{}
	for _, g := range grids {
		for _, c := range g.Cells(cfg.Programs) {
			k := c.Key(cfg)
			if !seen[k] {
				seen[k] = true
				cells = append(cells, c)
				keys = append(keys, k)
			}
		}
	}
	return cells, keys
}

// cellRows maps every cell of grids to its counters in rs, by content key.
func cellRows(rs *experiments.ResultSet, cfg experiments.Config, grids []experiments.Grid) map[string]metrics.Counters {
	out := map[string]metrics.Counters{}
	for _, g := range grids {
		rows := rs.Rows(g)
		for i, c := range g.Cells(cfg.Programs) {
			out[c.Key(cfg)] = rows[i].M
		}
	}
	return out
}

// rowsDigest hashes a key→counters map in key order; equal digests mean
// bit-identical rows.
func rowsDigest(rows map[string]metrics.Counters) string {
	keys := make([]string, 0, len(rows))
	for k := range rows {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	h := sha256.New()
	for _, k := range keys {
		buf, err := json.Marshal(rows[k])
		if err != nil {
			panic(err) // Counters holds only integers
		}
		h.Write([]byte(k))
		h.Write(buf)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// compareRows counts one attempted operation per cell of want and one
// failure per cell of want that got is missing or holds different
// counters for. Cells of got that want lacks are not compared.
func compareRows(rep *report, what string, want, got map[string]metrics.Counters) {
	rep.attempt(len(want))
	for k, w := range want {
		if g, ok := got[k]; !ok {
			rep.fail("%s: cell %s missing", what, k[:12])
		} else if g != w {
			rep.fail("%s: cell %s counters differ", what, k[:12])
		}
	}
}

// armKind names what selects a cell's replay path: predictor kind,
// direction predictor, wrong-path pollution and prefetcher. The geometry
// is left out, so one sampled cell per kind covers every code path.
func armKind(s arch.Spec) string {
	k := s.Predictor.Kind + "/" + s.PHT.Kind
	if s.Pollution {
		k += "/pollution"
	}
	if s.Prefetch != nil {
		k += "/prefetch-" + s.Prefetch.Kind
	}
	return k
}

// referenceSample picks one seeded cell of every arm kind among cells, in
// kind order.
func referenceSample(cells []experiments.Cell, seed uint64) []experiments.Cell {
	byKind := map[string][]experiments.Cell{}
	var kinds []string
	for _, c := range cells {
		k := armKind(c.Spec)
		if byKind[k] == nil {
			kinds = append(kinds, k)
		}
		byKind[k] = append(byKind[k], c)
	}
	sort.Strings(kinds)
	rng := xrand.New(seed ^ 0x5eed_ce11)
	out := make([]experiments.Cell, len(kinds))
	for i, k := range kinds {
		out[i] = byKind[k][rng.Intn(len(byKind[k]))]
	}
	return out
}

// referenceCounters replays one cell through the per-record reference:
// fetch.Run, except for prefetching (decoupled) frontends, whose run-ahead
// is bounded by the replay block, so their reference is per-engine block
// replay at the executor's chunk size.
func referenceCounters(c experiments.Cell, t *trace.Trace) (metrics.Counters, error) {
	e, err := c.Spec.Build()
	if err != nil {
		return metrics.Counters{}, err
	}
	if c.Spec.Prefetch != nil {
		return *fetch.RunChunks(e, trace.Chunk(t, trace.DefaultChunkRecords).Chunks()), nil
	}
	return *fetch.Run(e, t), nil
}

// referenceRows computes the reference counters of every sampled cell,
// generating each program's trace once.
func referenceRows(cfg experiments.Config, sample []experiments.Cell) (map[string]metrics.Counters, error) {
	traces := map[string]*trace.Trace{}
	out := map[string]metrics.Counters{}
	for _, c := range sample {
		t := traces[c.Prog.Name]
		if t == nil {
			var err error
			if t, err = c.Prog.Trace(cfg.Insns); err != nil {
				return nil, err
			}
			traces[c.Prog.Name] = t
		}
		m, err := referenceCounters(c, t)
		if err != nil {
			return nil, fmt.Errorf("reference %s/%s: %w", c.Prog.Name, c.Arm, err)
		}
		out[c.Key(cfg)] = m
	}
	return out, nil
}
