package experiments

import (
	"fmt"

	"repro/internal/arch"
	"repro/internal/cache"
	"repro/internal/fetch"
	"repro/internal/obs"
)

// AttributionTopN is the offender-table depth the attribution figure and
// nlssim -attribute report per (arch, program) run.
const AttributionTopN = 5

// AttributionGrid is the cause-mix comparison the attribution figure
// explains: the paper's equal-cost contenders side by side on an 8KB
// direct-mapped cache. The small cache is deliberate — it displaces hot
// lines, which is the only condition under which the line-coupled designs'
// "state lost to eviction" cause can appear, so the figure separates the
// architectures by *why* they pay rather than just how much (§4.1, §6.1).
func AttributionGrid() Grid {
	cache8K := []cache.Geometry{cache.MustGeometry(8*1024, LineBytes, 1)}
	arms := []Arm{
		{Name: "NLS-cache 2/line", Spec: arch.NLSCache(NLSPerLine), Caches: cache8K},
		{Name: "1024 NLS-table", Spec: arch.NLSTable(1024), Caches: cache8K},
		{Name: "128-entry direct BTB", Spec: arch.BTB(128, 1), Caches: cache8K},
		{Name: "coupled 128-entry BTB", Spec: arch.CoupledBTB(128, 1), Caches: cache8K},
		{Name: "Johnson 1-bit", Spec: arch.Johnson(), Caches: cache8K},
		{Name: "512 NLS+64 BTB hybrid", Spec: arch.Hybrid(512, 64, 1), Caches: cache8K},
	}
	return Grid{Name: "attribution", Arms: arms}
}

// RunAttribution replays each program once through probe-attached engines
// for every cell of the grid and returns one attribution report per cell,
// in cell order (program-major, arm-major). Unlike RunGrids, results never
// come from or go to the store: attribution is an event-stream product, not
// a counter row, and the store only holds counters. The replay runs on
// the executor's program pool (forPrograms), and engines are owned by
// exactly one broadcast worker, so the per-engine Attribution collectors
// need no locking.
func (x *Executor) RunAttribution(g Grid, topN int) ([]obs.Report, error) {
	r := x.R
	cfg := r.Cfg
	cells := g.cells(cfg.Programs)
	cpp := g.cellsPerProgram()
	reports := make([]obs.Report, len(cells))

	progs := make([]int, len(cfg.Programs))
	for i := range progs {
		progs[i] = i
	}
	err := forPrograms(progs, func(i, perProg int) error {
		progCells := cells[i*cpp : (i+1)*cpp]
		_, err := r.replayProgram(i, runLineBytes(progCells), func(src replaySource) (int64, error) {
			engines := make([]fetch.Engine, len(progCells))
			atts := make([]*obs.Attribution, len(progCells))
			for j, c := range progCells {
				e, err := c.Spec.Build()
				if err != nil {
					return 0, fmt.Errorf("cell %s/%s: %w", c.Prog.Name, c.Arm, err)
				}
				pa, ok := e.(fetch.ProbeAttacher)
				if !ok {
					return 0, fmt.Errorf("cell %s/%s: engine %T accepts no probe", c.Prog.Name, c.Arm, e)
				}
				atts[j] = obs.NewAttribution()
				pa.AttachProbe(atts[j])
				engines[j] = e
			}
			n := fetch.BroadcastWorkers(src.Chunks, perProg, engines...)
			// reports slots are disjoint per program; no lock needed.
			for j, c := range progCells {
				reports[i*cpp+j] = atts[j].Report(c.Arm, c.Prog.Name, topN, cfg.Penalties)
			}
			return n, nil
		})
		return err
	})
	if err != nil {
		return nil, err
	}
	return reports, nil
}
