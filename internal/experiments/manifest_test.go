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

// TestManifestCountsAttributionReplays: a probed figure replays every
// program itself, so after a fully warm RunGrids (no replay) a
// RunAttribution must leave one replay per program and programs × insns
// records in the Runner's stats, and the manifest must read them there.
func TestManifestCountsAttributionReplays(t *testing.T) {
	store, err := OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig(20_000)
	cfg.Programs = []workload.Spec{workload.Li(), workload.Gcc()}
	g := Grid{Name: "manifest-attribution", Arms: []Arm{
		{Name: "base", Spec: arch.NLSTable(1024), Caches: cache16KDirect()},
	}}
	if _, err := (&Executor{R: NewRunner(cfg), Store: store}).RunGrids(false, g); err != nil {
		t.Fatal(err)
	}

	x := &Executor{R: NewRunner(cfg), Store: store}
	rs, err := x.RunGrids(false, g)
	if err != nil {
		t.Fatal(err)
	}
	if rs.Replays != 0 {
		t.Fatalf("warm run replayed %d programs, want 0", rs.Replays)
	}
	if _, err := x.RunAttribution(AttributionGrid(), 0); err != nil {
		t.Fatal(err)
	}
	s := x.R.LastSweepStats()
	wantRecords := int64(len(cfg.Programs)) * int64(cfg.Insns)
	if s.Replays != len(cfg.Programs) || s.Records != wantRecords {
		t.Errorf("stats after attribution: replays=%d records=%d, want %d, %d",
			s.Replays, s.Records, len(cfg.Programs), wantRecords)
	}
	if s.Elapsed <= 0 {
		t.Errorf("attribution elapsed = %v, want > 0", s.Elapsed)
	}
	m := NewRunManifest(x, rs, []string{"attribution"}, []string{"test"})
	if m.Replays != len(cfg.Programs) || m.Records != wantRecords {
		t.Errorf("manifest: trace_replays=%d records_replayed=%d, want %d, %d",
			m.Replays, m.Records, len(cfg.Programs), wantRecords)
	}
}
