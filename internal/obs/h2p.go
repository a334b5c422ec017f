package obs

import (
	"encoding/json"
	"fmt"
	"sort"
	"strings"

	"repro/internal/fetch"
	"repro/internal/isa"
)

// H2P ("hard to predict") pairs two attribution reports of the same program
// — a base direction predictor and an alternative — and ranks the static
// branches by how much of the dir-wrong cause bucket each predictor pays on
// them. The h2p figure feeds it the equal-cost gshare vs TAGE-lite arms
// (DESIGN.md §13): the tail of branches a short-history gshare keeps
// missing is exactly the population a geometric-history predictor exists to
// recover, and the per-PC delta column shows where the recovery lands.

// H2PRow is one static branch's dir-wrong cost under both predictors.
type H2PRow struct {
	PC     isa.Addr
	Breaks uint64 // executions of the branch (base run; identical in alt)
	// BaseDirWrong and AltDirWrong count penalized dir-wrong executions
	// under each predictor.
	BaseDirWrong uint64
	AltDirWrong  uint64
}

// Recovered returns how many dir-wrong penalties the alternative predictor
// removed on this branch (negative when it regressed the branch).
func (r H2PRow) Recovered() int64 {
	return int64(r.BaseDirWrong) - int64(r.AltDirWrong)
}

// MarshalJSON renders the row with a hex PC, matching PCStats.
func (r H2PRow) MarshalJSON() ([]byte, error) {
	return json.Marshal(struct {
		PC           string `json:"pc"`
		Breaks       uint64 `json:"breaks"`
		BaseDirWrong uint64 `json:"base_dir_wrong"`
		AltDirWrong  uint64 `json:"alt_dir_wrong"`
		Recovered    int64  `json:"recovered"`
	}{r.PC.String(), r.Breaks, r.BaseDirWrong, r.AltDirWrong, r.Recovered()})
}

// H2PRanking is the paired comparison for one program.
type H2PRanking struct {
	Program  string `json:"program"`
	BaseArch string `json:"base_arch"`
	AltArch  string `json:"alt_arch"`
	// BaseTotal and AltTotal are the whole-run dir-wrong bucket sizes.
	BaseTotal uint64 `json:"base_dir_wrong_total"`
	AltTotal  uint64 `json:"alt_dir_wrong_total"`
	// H2PBranches counts static branches that were dir-wrong at least
	// once under either predictor.
	H2PBranches int `json:"h2p_branches"`
	// Rows holds the top branches by base dir-wrong count, descending
	// (ties by PC ascending, so rankings are deterministic).
	Rows []H2PRow `json:"rows"`
}

// RecoveredShare returns the fraction of the base dir-wrong bucket the
// alternative removed (0 when the base bucket is empty).
func (k H2PRanking) RecoveredShare() float64 {
	if k.BaseTotal == 0 {
		return 0
	}
	return float64(int64(k.BaseTotal)-int64(k.AltTotal)) / float64(k.BaseTotal)
}

// RankH2P pairs the packed counts of two engines on the same program and
// returns the per-PC dir-wrong ranking, keeping the top n rows (n <= 0
// keeps all). Engines probed from the first record number the program's
// breaks alike (fetch.BreakEvent.Site), so their tables list the same PCs
// in the same order and pair row by row. RankH2P panics on tables that do
// not pair up so, which only engines probed over different records give.
func RankH2P(program, baseArch, altArch string, base, alt Table, n int) H2PRanking {
	k := H2PRanking{Program: program, BaseArch: baseArch, AltArch: altArch}
	if base.branches != alt.branches {
		panic(fmt.Sprintf("obs: h2p tables of %s count %d and %d branches", program, base.branches, alt.branches))
	}
	rows := []H2PRow{}
	b, a := rowCursor{rest: base.rows}, rowCursor{rest: alt.rows}
	for range base.branches {
		bs, as := b.next(), a.next()
		if bs.PC != as.PC {
			panic(fmt.Sprintf("obs: h2p tables of %s pair %v with %v", program, bs.PC, as.PC))
		}
		row := H2PRow{PC: bs.PC, Breaks: bs.Breaks,
			BaseDirWrong: bs.Causes[fetch.CauseDirWrong], AltDirWrong: as.Causes[fetch.CauseDirWrong]}
		k.BaseTotal += row.BaseDirWrong
		k.AltTotal += row.AltDirWrong
		if row.BaseDirWrong != 0 || row.AltDirWrong != 0 {
			rows = append(rows, row)
		}
	}
	k.H2PBranches = len(rows)
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].BaseDirWrong != rows[j].BaseDirWrong {
			return rows[i].BaseDirWrong > rows[j].BaseDirWrong
		}
		return rows[i].PC < rows[j].PC
	})
	if n > 0 && len(rows) > n {
		// Copy the top n out: a slice of rows would keep every ranked
		// branch of the program alive with the ranking.
		rows = append(make([]H2PRow, 0, n), rows[:n]...)
	}
	k.Rows = rows
	return k
}

// RenderH2P formats the per-program rankings (the nlssim -h2p view and the
// h2p figure body). The format is pinned by the h2p golden test.
func RenderH2P(title string, ranks []H2PRanking) string {
	var b strings.Builder
	b.WriteString(title + "\n")
	for _, k := range ranks {
		fmt.Fprintf(&b, "%s: base=%s alt=%s dir-wrong %d -> %d (recovered %.1f%%, h2p-branches=%d)\n",
			k.Program, k.BaseArch, k.AltArch, k.BaseTotal, k.AltTotal,
			100*k.RecoveredShare(), k.H2PBranches)
		if len(k.Rows) == 0 {
			continue
		}
		b.WriteString("  pc              breaks    base-dw     alt-dw  recovered\n")
		for _, r := range k.Rows {
			fmt.Fprintf(&b, "  %s %9d %10d %10d %+10d\n",
				r.PC, r.Breaks, r.BaseDirWrong, r.AltDirWrong, r.Recovered())
		}
	}
	return b.String()
}
