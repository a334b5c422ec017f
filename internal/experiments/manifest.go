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

// RunManifest is the telemetry record of one executor run: what was asked
// for, what the store served vs what was simulated, how fast the replay
// went, where the wall time of each simulated cell was spent, and which
// toolchain built the binary. nlstables writes one per run under
// results/runs/ so result and performance trajectories can be tracked
// across commits without scraping the report text.
type RunManifest struct {
	Schema          string    `json:"schema"`
	CreatedAt       time.Time `json:"created_at"`
	Command         []string  `json:"command,omitempty"`
	InsnsPerProgram int       `json:"insns_per_program"`
	Figures         []string  `json:"figures,omitempty"`
	Build           BuildEnv  `json:"build"`

	// Store accounting: Loaded cells were served by the content-addressed
	// store (hits), Simulated were replayed this run (misses), Deduped
	// were requested by more than one grid and gathered once.
	CellsLoaded    int `json:"cells_loaded"`
	CellsSimulated int `json:"cells_simulated"`
	CellsDeduped   int `json:"cells_deduped"`
	// Replays counts program traces actually replayed: at most one per
	// program, for its pending counter cells and its probed cells (0 on
	// a warm run without probed figures).
	Replays int `json:"trace_replays"`

	// Replay throughput over the whole run.
	Records   int64   `json:"records_replayed"`
	Seconds   float64 `json:"seconds"`
	RecPerSec float64 `json:"records_per_sec"`

	// Stages is the run's per-executor-stage wall time (gather,
	// gen-corpus, trace-gen, replay, store-save); Cells is the per-cell
	// engine wall time (simulated cells only).
	Stages []StageSpan  `json:"stages,omitempty"`
	Cells  []CellTiming `json:"cells,omitempty"`
}

// NewRunManifest assembles the manifest of a finished run from the
// executor's sweep statistics and the result set's accounting. figures
// names what was rendered; command is the CLI invocation (os.Args).
func NewRunManifest(x *Executor, rs *ResultSet, figures, command []string) RunManifest {
	s := x.R.LastSweepStats()
	return RunManifest{
		Schema:          ManifestSchema,
		CreatedAt:       time.Now(),
		Command:         command,
		InsnsPerProgram: x.R.Cfg.Insns,
		Figures:         figures,
		Build:           ReadBuildEnv(),
		CellsLoaded:     rs.Loaded,
		CellsSimulated:  rs.Simulated,
		CellsDeduped:    rs.Deduped,
		Replays:         s.Replays,
		Records:         s.Records,
		Seconds:         s.Elapsed.Seconds(),
		RecPerSec:       s.RecordsPerSec(),
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
