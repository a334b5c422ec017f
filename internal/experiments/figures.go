package experiments

import (
	"fmt"

	"repro/internal/arch"
	"repro/internal/btb"
	"repro/internal/cache"
	"repro/internal/multiissue"
	"repro/internal/obs"
	"repro/internal/trace"
)

// A Figure is one deliverable of the evaluation: a name (the CLI's -only
// key), the Grid of cells it needs, whether it also needs the per-program
// replay statistics (Table 1, fetch-block counts), and a pure renderer
// from the resolved RenderContext to the display text plus the rows behind
// the -json report. The registry below is the entire experiment matrix;
// one Executor.Run over any subset simulates each distinct cell once and
// each program's trace at most once, however many figures share them.
type Figure struct {
	Name      string
	Grid      Grid
	NeedsInfo bool
	Render    func(RenderContext) (text string, data any)
	// Probed, when set, replaces Render: the figure drives its own
	// probe-attached replay against the executor instead of resolving
	// stored grid cells (attribution is an event-stream product the
	// counter store cannot serve). Grid stays empty for such figures.
	Probed func(*Executor) (text string, data any, err error)
}

// Figures returns the full registry in presentation order (the order the
// `-exp all` run prints).
func Figures() []Figure {
	return []Figure{
		table1Figure(),
		fig3Figure(),
		fig4Figure(),
		fig5Figure(),
		fig6Figure(),
		fig7Figure(),
		fig8Figure(),
		perLineFigure(),
		coupledFigure(),
		phtFigure(),
		widthFigure(),
		pollutionFigure(),
		hybridFigure(),
		prefetchFigure(),
		attributionFigure(),
		h2pFigure(),
	}
}

// FigureByName looks a figure up by its CLI name.
func FigureByName(name string) (Figure, bool) {
	for _, f := range Figures() {
		if f.Name == name {
			return f, true
		}
	}
	return Figure{}, false
}

// RenderFigure renders one figure of a finished run: Probed figures replay
// through the executor, everything else resolves against the result set.
// This is the uniform dispatch the CLIs use after Executor.Run.
func (x *Executor) RenderFigure(f Figure, rs *ResultSet) (string, any, error) {
	if f.Probed != nil {
		return f.Probed(x)
	}
	text, data := f.Render(rs.Context(f))
	return text, data, nil
}

// cache16KDirect is the figure suite's reference cache configuration.
func cache16KDirect() []cache.Geometry {
	return []cache.Geometry{cache.MustGeometry(16*1024, LineBytes, 1)}
}

// table1Figure reproduces Table 1 — the measured attributes of each
// generated trace — from the replay pass itself (no grid cells).
func table1Figure() Figure {
	return Figure{
		Name:      "table1",
		Grid:      Grid{Name: "table1"},
		NeedsInfo: true,
		Render: func(ctx RenderContext) (string, any) {
			rows := make([]*trace.Stats, len(ctx.Infos))
			for i, info := range ctx.Infos {
				rows[i] = info.Stats
			}
			out := trace.FormatTable(rows)
			return "Table 1: measured attributes of the traced programs\n" + out, out
		},
	}
}

// fig3Figure reproduces Figure 3 (pure area model, no simulation).
func fig3Figure() Figure {
	return Figure{
		Name: "fig3",
		Grid: Grid{Name: "fig3"},
		Render: func(RenderContext) (string, any) {
			rows := Fig3()
			return RenderFig3(rows), rows
		},
	}
}

// fig4Figure reproduces Figure 4: average BEP of the NLS-cache and the
// three NLS-table sizes over the paper's cache configurations.
func fig4Figure() Figure {
	arms := []Arm{{Name: "NLS-cache", Spec: arch.NLSCache(NLSPerLine), Caches: PaperCaches()}}
	for _, n := range NLSTableSizes {
		arms = append(arms, Arm{
			Name: fmt.Sprintf("%d NLS-table", n), Spec: arch.NLSTable(n), Caches: PaperCaches(),
		})
	}
	return Figure{
		Name: "fig4",
		Grid: Grid{Name: "fig4", Arms: arms},
		Render: func(ctx RenderContext) (string, any) {
			avgs := Averages(ctx.Rows, ctx.Cfg.Penalties)
			return RenderAverages("Figure 4: average BEP, NLS-cache vs NLS-table", avgs), avgRows(avgs)
		},
	}
}

// btbVsNLSArms is the shared arm set of Figures 5 and 7: the four BTB
// organizations on one cache (BTB BEP is cache-independent) and the
// 1024-entry NLS-table on every paper cache. Declaring the same arms in
// both grids costs nothing — the executor dedupes cells by content key.
func btbVsNLSArms() []Arm {
	var arms []Arm
	for _, cfg := range BTBConfigs() {
		arms = append(arms, Arm{
			Name: cfg.String(), Spec: arch.BTB(cfg.Entries, cfg.Assoc), Caches: cache16KDirect(),
		})
	}
	return append(arms, Arm{Name: "1024 NLS-table", Spec: arch.NLSTable(1024), Caches: PaperCaches()})
}

// fig5Figure reproduces Figure 5: average BEP of the four BTB
// organizations and the 1024-entry NLS-table.
func fig5Figure() Figure {
	return Figure{
		Name: "fig5",
		Grid: Grid{Name: "fig5", Arms: btbVsNLSArms()},
		Render: func(ctx RenderContext) (string, any) {
			avgs := Averages(ctx.Rows, ctx.Cfg.Penalties)
			return RenderAverages("Figure 5: average BEP, BTB vs 1024 NLS-table", avgs), avgRows(avgs)
		},
	}
}

// fig6Figure reproduces Figure 6 (pure timing model, no simulation).
func fig6Figure() Figure {
	return Figure{
		Name: "fig6",
		Grid: Grid{Name: "fig6"},
		Render: func(RenderContext) (string, any) {
			rows := Fig6()
			return RenderFig6(rows), rows
		},
	}
}

// fig7Figure reproduces Figure 7: the per-program BEP comparison over the
// same cells as Figure 5.
func fig7Figure() Figure {
	return Figure{
		Name: "fig7",
		Grid: Grid{Name: "fig7", Arms: btbVsNLSArms()},
		Render: func(ctx RenderContext) (string, any) {
			p := ctx.Cfg.Penalties
			data := map[string][]resultRow{}
			for _, res := range ctx.Rows {
				data[res.Program] = append(data[res.Program], resultRow{
					Program: res.Program, Arch: res.Arch, Cache: res.Cache().String(),
					MfBEP: res.M.MisfetchBEP(p), MpBEP: res.M.MispredictBEP(p),
					BEP: res.M.BEP(p),
				})
			}
			return RenderFig7(ctx.Rows, len(ctx.Cfg.Programs), p), data
		},
	}
}

// fig8Figure reproduces Figure 8: average CPI for the BTB organizations
// and the 1024-entry NLS-table over each cache configuration. Unlike BEP,
// CPI depends on the cache for every architecture (the 5-cycle miss
// penalty), so everything runs on all configurations.
func fig8Figure() Figure {
	var arms []Arm
	for _, cfg := range BTBConfigs() {
		arms = append(arms, Arm{
			Name: cfg.String(), Spec: arch.BTB(cfg.Entries, cfg.Assoc), Caches: PaperCaches(),
		})
	}
	arms = append(arms, Arm{Name: "1024 NLS-table", Spec: arch.NLSTable(1024), Caches: PaperCaches()})
	return Figure{
		Name: "fig8",
		Grid: Grid{Name: "fig8", Arms: arms},
		Render: func(ctx RenderContext) (string, any) {
			avgs := Averages(ctx.Rows, ctx.Cfg.Penalties)
			return RenderCPI(avgs), avgRows(avgs)
		},
	}
}

// perLineFigure evaluates the NLS-cache with 1, 2, 4 predictors per line
// (§5.1: "we used one to four NLS predictors per cache line ... two NLS
// predictors per cache line gave performance comparable to the
// NLS-table").
func perLineFigure() Figure {
	caches := []cache.Geometry{
		cache.MustGeometry(8*1024, LineBytes, 1),
		cache.MustGeometry(16*1024, LineBytes, 1),
	}
	var arms []Arm
	for _, per := range []int{1, 2, 4} {
		arms = append(arms, Arm{
			Name: fmt.Sprintf("NLS-cache %d/line", per), Spec: arch.NLSCache(per), Caches: caches,
		})
	}
	arms = append(arms, Arm{Name: "1024 NLS-table", Spec: arch.NLSTable(1024), Caches: caches})
	return Figure{
		Name: "perline",
		Grid: Grid{Name: "perline", Arms: arms},
		Render: func(ctx RenderContext) (string, any) {
			avgs := Averages(ctx.Rows, ctx.Cfg.Penalties)
			return RenderAverages("Ablation: NLS-cache predictors per line (§5.1)", avgs), avgRows(avgs)
		},
	}
}

// coupledFigure compares the decoupled BTB+PHT design against the coupled
// (Pentium-style) BTB with per-entry 2-bit counters, and against Johnson's
// coupled one-bit successor-index design — isolating the value of
// decoupling, the design decision both the paper and its predecessor
// emphasize. Both 128-entry and 32-entry BTBs are swept: the coupled
// design's weakness — a branch evicted from the BTB also loses its
// direction state and falls back to static prediction — scales with BTB
// capacity pressure, so the small configuration shows it starkly.
func coupledFigure() Figure {
	var arms []Arm
	for _, entries := range []int{128, 32} {
		arms = append(arms,
			Arm{Name: btb.Config{Entries: entries, Assoc: 1}.String(),
				Spec: arch.BTB(entries, 1), Caches: cache16KDirect()},
			Arm{Name: fmt.Sprintf("coupled %d-entry BTB", entries),
				Spec: arch.CoupledBTB(entries, 1), Caches: cache16KDirect()},
		)
	}
	arms = append(arms,
		Arm{Name: "Johnson 1-bit", Spec: arch.Johnson(), Caches: cache16KDirect()},
		Arm{Name: "1024 NLS-table", Spec: arch.NLSTable(1024), Caches: cache16KDirect()},
	)
	return Figure{
		Name: "coupled",
		Grid: Grid{Name: "coupled", Arms: arms},
		Render: func(ctx RenderContext) (string, any) {
			avgs := Averages(ctx.Rows, ctx.Cfg.Penalties)
			return RenderAverages("Ablation: decoupled vs coupled designs (§2, §6.2)", avgs), avgRows(avgs)
		},
	}
}

// phtKinds are the direction predictors of the PHT ablation: the paper's
// gshare, the pure-global GAs degenerate scheme, a per-address bimodal
// table, a one-bit table, and static not-taken.
func phtKinds() []struct {
	name string
	pht  arch.PHTSpec
} {
	return []struct {
		name string
		pht  arch.PHTSpec
	}{
		{"gshare-4096", arch.PaperPHT()},
		{"GAs-4096", arch.PHTSpec{Kind: "gas", Entries: PHTEntries}},
		{"bimodal-4096", arch.PHTSpec{Kind: "bimodal", Entries: PHTEntries}},
		{"1bit-4096", arch.PHTSpec{Kind: "1bit", Entries: PHTEntries}},
		{"static-not-taken", arch.PHTSpec{Kind: "static-not-taken"}},
	}
}

// phtArchs are the two equal-cost architectures each direction predictor
// is paired with (§5.1's methodological requirement: the PHT is
// architecturally identical across NLS and BTB in every row).
func phtArchs() []struct {
	name string
	base arch.Spec
} {
	return []struct {
		name string
		base arch.Spec
	}{
		{"1024 NLS-table", arch.NLSTable(1024)},
		{"128-entry direct BTB", arch.BTB(128, 1)},
	}
}

// phtFigure runs both architectures under different direction predictors
// of equal entry count.
func phtFigure() Figure {
	kinds, archs := phtKinds(), phtArchs()
	var arms []Arm
	for _, k := range kinds {
		for _, a := range archs {
			spec := a.base
			spec.PHT = k.pht
			arms = append(arms, Arm{
				Name: fmt.Sprintf("%s (%s)", a.name, k.name), Spec: spec, Caches: cache16KDirect(),
			})
		}
	}
	return Figure{
		Name: "pht",
		Grid: Grid{Name: "pht", Arms: arms},
		Render: func(ctx RenderContext) (string, any) {
			var rows []PHTRow
			arm := 0
			for _, k := range kinds {
				for _, a := range archs {
					var accSum, bepSum float64
					armRows := ctx.ArmRows(arm)
					for _, res := range armRows {
						accSum += res.M.CondAccuracy()
						bepSum += res.M.BEP(ctx.Cfg.Penalties)
					}
					n := float64(len(armRows))
					rows = append(rows, PHTRow{
						PHT: k.name, Arch: a.name,
						CondAcc: accSum / n, BEP: bepSum / n, SizeBits: phtSizeBits(k.pht),
					})
					arm++
				}
			}
			return RenderPHTSweep(rows), rows
		},
	}
}

// phtSizeBits returns the storage cost of a direction predictor spec. The
// ablation's specs are static and valid, so Build cannot fail.
func phtSizeBits(s arch.PHTSpec) int {
	dir, err := s.Build()
	if err != nil {
		panic(err)
	}
	return dir.SizeBits()
}

// widthFigure evaluates the equal-cost 1024-entry NLS-table and 128-entry
// BTB under fetch widths 1–8 (averaged over programs). The paper argues
// penalties grow in importance with issue width and that nothing in NLS is
// hostile to wide fetch; the sweep quantifies both: penalty share rises
// with W for every architecture, and the NLS-vs-BTB IPC gap widens. The
// penalty events are width-independent, so each architecture costs one
// cell per program; the per-width fetch-block counts come from the replay
// pass (ProgramInfo), making the width axis pure arithmetic.
func widthFigure() Figure {
	arms := []Arm{
		{Name: "1024 NLS-table", Spec: arch.NLSTable(1024), Caches: cache16KDirect()},
		{Name: btb.Config{Entries: 128, Assoc: 1}.String(), Spec: arch.BTB(128, 1), Caches: cache16KDirect()},
	}
	return Figure{
		Name:      "width",
		Grid:      Grid{Name: "width", Arms: arms},
		NeedsInfo: true,
		Render: func(ctx RenderContext) (string, any) {
			var rows []WidthRow
			for arm := range arms {
				armRows := ctx.ArmRows(arm)
				for _, width := range FetchWidths() {
					var ipcSum, shareSum float64
					for i, res := range armRows {
						r := multiissue.EvaluateBlocks(ctx.Infos[i].FetchBlocks[width], &res.M,
							multiissue.Config{Width: width, LineBytes: LineBytes}, ctx.Cfg.Penalties)
						ipcSum += r.IPC
						shareSum += r.PenaltyShare
					}
					n := float64(len(armRows))
					rows = append(rows, WidthRow{
						Arch: armRows[0].Arch, Width: width,
						IPC: ipcSum / n, PenaltyShare: shareSum / n,
					})
				}
			}
			return RenderWidthSweep(rows), rows
		},
	}
}

// pollutionFigure quantifies the §5.2 remark that the architectures "may
// fetch different instructions, even for the same cache organization":
// wrong-path fetches touch the cache, raising the miss rate — and, for the
// NLS architecture only, feeding back into fetch prediction (displaced
// lines invalidate pointers).
func pollutionFigure() Figure {
	cache8K := []cache.Geometry{cache.MustGeometry(8*1024, LineBytes, 1)}
	variants := []struct {
		name string
		spec arch.Spec
	}{
		{"1024 NLS-table", arch.NLSTable(1024)},
		{"128-entry direct BTB", arch.BTB(128, 1)},
	}
	var arms []Arm
	for _, v := range variants {
		polluted := v.spec
		polluted.Pollution = true
		arms = append(arms,
			Arm{Name: v.name, Spec: v.spec, Caches: cache8K},
			Arm{Name: v.name + " (polluted)", Spec: polluted, Caches: cache8K},
		)
	}
	return Figure{
		Name: "pollution",
		Grid: Grid{Name: "pollution", Arms: arms},
		Render: func(ctx RenderContext) (string, any) {
			p := ctx.Cfg.Penalties
			var rows []PollutionRow
			for i, v := range variants {
				row := PollutionRow{Arch: v.name}
				for j, pollute := range []bool{false, true} {
					var miss, mf, cpi float64
					armRows := ctx.ArmRows(2*i + j)
					for _, res := range armRows {
						miss += res.M.ICacheMissRate()
						mf += res.M.MisfetchBEP(p)
						cpi += res.M.CPI(p)
					}
					n := float64(len(armRows))
					if pollute {
						row.PollutedMissRate = miss / n
						row.PollutedMisfetch = mf / n
						row.PollutedCPI = cpi / n
					} else {
						row.CleanMissRate = miss / n
						row.CleanMisfetchBEP = mf / n
						row.CleanCPI = cpi / n
					}
				}
				rows = append(rows, row)
			}
			return RenderPollutionSweep(rows, p), rows
		},
	}
}

// hybridFigure is the equal-cost comparison for the hybrid NLS+BTB
// predictor (satellite of the grid refactor): the hybrid keeps the
// NLS-table's cache-relative pointer as the first-class target source and
// falls back to a small BTB for lines the cache has displaced. Its
// neighbours in predictor-cost space bracket it from both sides — the two
// pure NLS-tables and the two pure direct BTBs — so the row shows what the
// fallback buys at what cost. Only the hybrid cell is new; the four
// comparison arms reuse cells other figures already simulate.
func hybridFigure() Figure {
	arms := []Arm{
		{Name: btb.Config{Entries: 128, Assoc: 1}.String(), Spec: arch.BTB(128, 1), Caches: cache16KDirect()},
		{Name: btb.Config{Entries: 256, Assoc: 1}.String(), Spec: arch.BTB(256, 1), Caches: cache16KDirect()},
		{Name: "512 NLS-table", Spec: arch.NLSTable(512), Caches: cache16KDirect()},
		{Name: "1024 NLS-table", Spec: arch.NLSTable(1024), Caches: cache16KDirect()},
		{Name: "512 NLS+64 BTB hybrid", Spec: arch.Hybrid(512, 64, 1), Caches: cache16KDirect()},
	}
	return Figure{
		Name: "hybrid",
		Grid: Grid{Name: "hybrid", Arms: arms},
		Render: func(ctx RenderContext) (string, any) {
			p := ctx.Cfg.Penalties
			rows := make([]HybridRow, 0, len(arms))
			for arm := range arms {
				armRows := ctx.ArmRows(arm)
				var mf, mp float64
				for _, res := range armRows {
					mf += res.M.MisfetchBEP(p)
					mp += res.M.MispredictBEP(p)
				}
				n := float64(len(armRows))
				rows = append(rows, HybridRow{
					Arch:  armRows[0].Arch,
					MfBEP: mf / n, MpBEP: mp / n, BEP: (mf + mp) / n,
					SizeBits: specSizeBits(armRows[0].Spec),
				})
			}
			return RenderHybrid(rows), rows
		},
	}
}

// attributionFigure compares *why* each equal-cost configuration pays its
// penalty cycles — the per-branch cause taxonomy of the fetch probe
// (dir-wrong, stale pointers, state lost to line eviction, RAS misses, BTB
// conflicts, cold branches) aggregated into a cause matrix. It is the only
// Probed figure: the executor replays the AttributionGrid with probe-attached
// engines rather than resolving stored counter cells.
func attributionFigure() Figure {
	g := AttributionGrid()
	return Figure{
		Name: "attribution",
		Grid: Grid{Name: "attribution"}, // no stored cells; Probed replays itself
		Probed: func(x *Executor) (string, any, error) {
			reports, err := x.RunAttribution(g, AttributionTopN)
			if err != nil {
				return "", nil, err
			}
			text := obs.RenderCauseMatrix(
				"Attribution: penalty-cause mix across equal-cost configs (8KB direct i-cache)",
				reports)
			return text, reports, nil
		},
	}
}

// specSizeBits returns the target-predictor storage cost of a spec by
// building its engine (cheap: table allocation only, no simulation).
func specSizeBits(s arch.Spec) int { return s.MustBuild().PredictorSizeBits() }
