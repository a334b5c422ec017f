package experiments

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/arch"
	"repro/internal/workload"
)

// TestRecordsPerSecGuardsZeroElapsed pins the derived-rate guard: a
// snapshot taken before any wall time has accumulated (or with a clock
// anomaly driving Elapsed negative) reports 0, never Inf or NaN.
func TestRecordsPerSecGuardsZeroElapsed(t *testing.T) {
	cases := []struct {
		name string
		s    SweepStats
		want float64
	}{
		{"zero elapsed", SweepStats{Records: 1000}, 0},
		{"negative elapsed", SweepStats{Records: 1000, Elapsed: -time.Second}, 0},
		{"zero records", SweepStats{Elapsed: time.Second}, 0},
		{"normal", SweepStats{Records: 3000, Elapsed: 2 * time.Second}, 1500},
	}
	for _, c := range cases {
		if got := c.s.RecordsPerSec(); got != c.want {
			t.Errorf("%s: RecordsPerSec() = %g, want %g", c.name, got, c.want)
		}
	}
}

// TestBuildEnvString covers the -version rendering the CLIs share.
func TestBuildEnvString(t *testing.T) {
	e := BuildEnv{GoVersion: "go1.24.0", Module: "repro",
		Revision: "0123456789abcdef0123", Modified: true}
	got := e.String()
	for _, want := range []string{"repro", "go1.24.0", "0123456789ab+"} {
		if !strings.Contains(got, want) {
			t.Errorf("BuildEnv.String() = %q, missing %q", got, want)
		}
	}
	if strings.Contains(got, "0123456789abc") {
		t.Errorf("revision not truncated to 12 chars: %q", got)
	}
	bare := BuildEnv{GoVersion: "go1.24.0"}
	if s := bare.String(); !strings.Contains(s, "unknown") {
		t.Errorf("bare BuildEnv.String() = %q, want a rev placeholder", s)
	}

	if live := ReadBuildEnv(); live.GoVersion == "" {
		t.Error("ReadBuildEnv returned an empty Go version")
	}
}

// TestManifestCarriesStageSpans: a store-backed run produces all five
// executor stage spans and they survive the manifest's JSON round trip.
func TestManifestCarriesStageSpans(t *testing.T) {
	store, err := OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig(20_000)
	cfg.Programs = []workload.Spec{workload.Li()}
	x := &Executor{R: NewRunner(cfg), Store: store}
	g := Grid{Name: "manifest-stages", Arms: []Arm{
		{Name: "base", Spec: arch.NLSTable(1024), Caches: cache16KDirect()},
	}}
	rs, err := x.RunGrids(false, g)
	if err != nil {
		t.Fatal(err)
	}

	m := NewRunManifest(x, rs, []string{"manifest-stages"}, []string{"test"})
	if len(m.Stages) != 5 {
		t.Fatalf("manifest has %d stages, want 5: %+v", len(m.Stages), m.Stages)
	}
	byName := map[string]float64{}
	for _, sp := range m.Stages {
		byName[sp.Stage] = sp.Seconds
	}
	for _, stage := range []string{"gather", "gen-corpus", "trace-gen", "replay", "store-save"} {
		if _, ok := byName[stage]; !ok {
			t.Errorf("manifest missing stage %q", stage)
		}
	}
	if byName["replay"] <= 0 {
		t.Errorf("cold run replay span = %g, want > 0", byName["replay"])
	}

	dir := t.TempDir()
	path, err := m.Write(dir)
	if err != nil {
		t.Fatal(err)
	}
	buf, err := os.ReadFile(filepath.Join(dir, filepath.Base(path)))
	if err != nil {
		t.Fatal(err)
	}
	var back RunManifest
	if err := json.Unmarshal(buf, &back); err != nil {
		t.Fatal(err)
	}
	if len(back.Stages) != len(m.Stages) {
		t.Errorf("round-tripped %d stages, want %d", len(back.Stages), len(m.Stages))
	}
}

// TestManifestCountsOneReplayPerProgram: probed figures join the run's
// single replay per program. A cold Run(Figures()...) and a warm one, whose
// counter cells all come from the store, each replay every program exactly
// once — the warm one for the probed cells alone — and the manifest reads
// the count and the records from the Runner's stats.
func TestManifestCountsOneReplayPerProgram(t *testing.T) {
	store, err := OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig(20_000)
	cfg.Programs = []workload.Spec{workload.Li(), workload.Gcc()}
	wantRecords := int64(len(cfg.Programs)) * int64(cfg.Insns)
	for _, run := range []string{"cold", "warm"} {
		x := &Executor{R: NewRunner(cfg), Store: store}
		rs, err := x.Run(Figures()...)
		if err != nil {
			t.Fatal(err)
		}
		if run == "warm" && rs.Simulated != 0 {
			t.Errorf("warm run simulated %d counter cells, want 0", rs.Simulated)
		}
		s := x.R.LastSweepStats()
		if rs.Replays != len(cfg.Programs) || s.Replays != len(cfg.Programs) || s.Records != wantRecords {
			t.Errorf("%s run: rs.Replays=%d stats replays=%d records=%d, want %d, %d, %d",
				run, rs.Replays, s.Replays, s.Records, len(cfg.Programs), len(cfg.Programs), wantRecords)
		}
		if s.Elapsed <= 0 {
			t.Errorf("%s run elapsed = %v, want > 0", run, s.Elapsed)
		}
		m := NewRunManifest(x, rs, []string{"all"}, []string{"test"})
		if m.Replays != len(cfg.Programs) || m.Records != wantRecords {
			t.Errorf("%s manifest: trace_replays=%d records_replayed=%d, want %d, %d",
				run, m.Replays, m.Records, len(cfg.Programs), wantRecords)
		}
	}
}
