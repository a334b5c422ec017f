package experiments

import (
	"repro/internal/arch"
	"repro/internal/obs"
)

// H2PTopN is the per-program branch-ranking depth the h2p figure and
// nlssim -h2p print.
const H2PTopN = 8

// H2PGrid is the hard-to-predict-branch comparison (DESIGN.md §13): the
// paper's headline 1024-entry NLS-table carrying its gshare PHT against the
// identical architecture with the equal-cost TAGE-lite direction predictor
// (8198 vs 8256 bits). Same target predictor, same cache, same trace — the
// only degree of freedom is direction prediction, so any movement in the
// dir-wrong cause bucket is the direction seam's doing.
func H2PGrid() Grid {
	tage := arch.NLSTable(1024)
	tage.PHT = arch.TAGEPHT()
	return Grid{Name: "h2p", Arms: []Arm{
		{Name: "1024 NLS-table (gshare)", Spec: arch.NLSTable(1024)},
		{Name: "1024 NLS-table (tage)", Spec: tage},
	}}
}

// h2pFigure ranks the branches gshare keeps mispredicting and measures how
// much of that dir-wrong tail the equal-cost TAGE-lite arm recovers. Like
// the attribution figure it probes its grid: the comparison is an
// event-stream product (per-PC cause counts), not a stored counter row.
// Cells come in program-major order, two arms per program, and each
// ranking pairs the two arms' full per-PC tables, so the alt side of every
// base-heavy branch is counted.
func h2pFigure() Figure {
	g := H2PGrid()
	return Figure{
		Name:   "h2p",
		Grid:   Grid{Name: "h2p"}, // no counter cells
		Probed: &g,
		Render: func(ctx RenderContext) (string, any) {
			ranks := make([]obs.H2PRanking, len(ctx.probes)/2)
			for p := range ranks {
				ranks[p] = ctx.RankH2P(2*p, 2*p+1, H2PTopN)
			}
			text := obs.RenderH2P(
				"H2P: dir-wrong recovery, equal-cost gshare vs TAGE-lite (1024 NLS-table)",
				ranks)
			return text, ranks
		},
	}
}
