package experiments

import (
	"repro/internal/arch"
	"repro/internal/cache"
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

// RunAttribution runs g as a probed grid (see Figure.Probed) and returns
// one attribution report per cell, in cell order (program-major,
// arm-major), with topN offenders each (all of them for topN <= 0). It is
// Executor.Run of a figure that only probes g, and it replaces the
// Runner's SweepStats like any run; nothing is read from or written to the
// store.
func (x *Executor) RunAttribution(g Grid, topN int) ([]obs.Report, error) {
	f := Figure{Name: g.Name, Probed: &g}
	rs, err := x.Run(f)
	if err != nil {
		return nil, err
	}
	return rs.Context(f).Reports(topN), nil
}
