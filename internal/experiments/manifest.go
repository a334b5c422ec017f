package experiments

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"time"
)

// ManifestSchema identifies the run-manifest JSON layout; bump it when the
// shape changes incompatibly.
const ManifestSchema = "nls-run/v1"

// DefaultManifestDir is where the CLIs write run manifests.
func DefaultManifestDir() string { return filepath.Join("results", "runs") }

// BuildEnv records the toolchain that produced a run, from the binary's own
// embedded build info.
type BuildEnv struct {
	GoVersion string `json:"go_version"`
	Module    string `json:"module,omitempty"`
	Revision  string `json:"vcs_revision,omitempty"`
	Modified  bool   `json:"vcs_modified,omitempty"`
}

// String renders the build environment as the one-line `-version` output
// the CLIs share: module, Go version, and the VCS revision when the binary
// carries one (a trailing + marks a dirty tree).
func (e BuildEnv) String() string {
	mod := e.Module
	if mod == "" {
		mod = "(devel)"
	}
	rev := e.Revision
	if rev == "" {
		rev = "unknown"
	} else if len(rev) > 12 {
		rev = rev[:12]
	}
	if e.Modified {
		rev += "+"
	}
	return fmt.Sprintf("%s %s (rev %s)", mod, e.GoVersion, rev)
}

// ReadBuildEnv reads the running binary's build information. Everything
// beyond the Go version is best-effort: test binaries and `go run` builds
// carry no VCS stamps.
func ReadBuildEnv() BuildEnv {
	env := BuildEnv{GoVersion: runtime.Version()}
	if bi, ok := debug.ReadBuildInfo(); ok {
		env.Module = bi.Main.Path
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				env.Revision = s.Value
			case "vcs.modified":
				env.Modified = s.Value == "true"
			}
		}
	}
	return env
}

// RunStats is a run's accounting, the one record of what a run did: how
// many unique counter cells it gathered (TotalCells), how many of them the
// store served (Loaded) and how many were simulated (Simulated), how many
// requests another grid's identical cell satisfied (Deduped), how many
// program traces were replayed (Replays: at most one per program, for its
// pending counter cells and its probed cells alike) and how many trace
// records that drew (Records), and the wall time since the replay began
// (Elapsed). Executor.run fills it in the ResultSet and hands a copy to
// Executor.Progress after each program; Record is its wire form.
type RunStats struct {
	TotalCells int           `json:"total_cells"`
	Loaded     int           `json:"cells_loaded"`
	Simulated  int           `json:"cells_simulated"`
	Deduped    int           `json:"cells_deduped"`
	Replays    int           `json:"trace_replays"`
	Records    int64         `json:"records_replayed"`
	Elapsed    time.Duration `json:"-"`
}

// RecordsPerSec returns the replay throughput in records per second, 0
// before any wall time has accumulated.
func (s RunStats) RecordsPerSec() float64 {
	if s.Elapsed <= 0 {
		return 0
	}
	return float64(s.Records) / s.Elapsed.Seconds()
}

// RunRecord is RunStats on the wire, with the elapsed time in seconds and
// the replay throughput: the keys of the run manifest, which nlstables'
// -json sweep_throughput object and nlsserve's streamed progress lines
// share.
type RunRecord struct {
	RunStats
	Seconds   float64 `json:"seconds"`
	RecPerSec float64 `json:"records_per_sec"`
}

// Record returns the wire form of s.
func (s RunStats) Record() RunRecord {
	return RunRecord{RunStats: s, Seconds: s.Elapsed.Seconds(), RecPerSec: s.RecordsPerSec()}
}

// RunManifest is the telemetry record of one executor run: what was asked
// for, the run's accounting (what the store served vs what was simulated,
// how fast the replay went), where the wall time of each stage and each
// simulated cell was spent, and which toolchain built the binary.
// nlstables writes one per run under results/runs/ so result and
// performance trajectories can be tracked across commits without scraping
// the report text.
type RunManifest struct {
	Schema          string    `json:"schema"`
	CreatedAt       time.Time `json:"created_at"`
	Command         []string  `json:"command,omitempty"`
	InsnsPerProgram int       `json:"insns_per_program"`
	Figures         []string  `json:"figures,omitempty"`
	Build           BuildEnv  `json:"build"`

	RunRecord

	// Stages is the run's per-executor-stage wall time (gather,
	// gen-corpus, trace-gen, replay, store-save); Cells is the per-cell
	// engine wall time (simulated cells only).
	Stages []StageSpan  `json:"stages,omitempty"`
	Cells  []CellTiming `json:"cells,omitempty"`
}

// NewRunManifest assembles the manifest of a finished run from its result
// set alone. figures names what was rendered; command is the CLI
// invocation (os.Args).
func NewRunManifest(rs *ResultSet, figures, command []string) RunManifest {
	return RunManifest{
		Schema:          ManifestSchema,
		CreatedAt:       time.Now(),
		Command:         command,
		InsnsPerProgram: rs.cfg.Insns,
		Figures:         figures,
		Build:           ReadBuildEnv(),
		RunRecord:       rs.Record(),
		Stages:          rs.Stages,
		Cells:           rs.Timings,
	}
}

// Write persists the manifest under dir as <timestamp>.json (nanosecond
// resolution, so concurrent runs cannot collide in practice) and returns
// the written path.
func (m RunManifest) Write(dir string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	name := m.CreatedAt.UTC().Format("20060102T150405.000000000Z") + ".json"
	path := filepath.Join(dir, name)
	buf, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return "", err
	}
	if err := os.WriteFile(path, append(buf, '\n'), 0o644); err != nil {
		return "", err
	}
	return path, nil
}
