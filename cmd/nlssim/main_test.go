package main

import (
	"bytes"
	"encoding/json"
	"os/exec"
	"path/filepath"
	"testing"

	"repro/internal/arch"
	"repro/internal/workload"
)

// buildBinary compiles this command into dir and returns the binary path.
func buildBinary(t *testing.T, dir string) string {
	t.Helper()
	bin := filepath.Join(dir, "nlssim")
	cmd := exec.Command("go", "build", "-o", bin, ".")
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return bin
}

// TestJSONStdoutPurity pins the -json contract: stdout carries exactly one
// JSON document and diagnostics stay on stderr, including with -attribute
// (the attribution reports embed in the same document).
func TestJSONStdoutPurity(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the real binary")
	}
	dir := t.TempDir()
	bin := buildBinary(t, dir)

	cmd := exec.Command(bin, "-json", "-attribute",
		"-workload", "espresso", "-n", "30000", "-arch", "nls-cache", "-store", "")
	cmd.Dir = dir
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	if err := cmd.Run(); err != nil {
		t.Fatalf("nlssim: %v\nstderr:\n%s", err, stderr.String())
	}

	var out struct {
		Engine   string `json:"engine"`
		Workload string `json:"workload"`
		Counters struct {
			Breaks uint64 `json:"breaks"`
		} `json:"counters"`
		Attribution []struct {
			Arch   string            `json:"arch"`
			Breaks uint64            `json:"breaks"`
			Causes map[string]uint64 `json:"causes"`
		} `json:"attribution"`
	}
	dec := json.NewDecoder(bytes.NewReader(stdout.Bytes()))
	if err := dec.Decode(&out); err != nil {
		t.Fatalf("stdout is not JSON: %v\nstdout:\n%s", err, stdout.String())
	}
	if dec.More() {
		t.Errorf("stdout carries more than one JSON document:\n%s", stdout.String())
	}
	if out.Workload != "espresso-like" || out.Counters.Breaks == 0 {
		t.Errorf("result shape wrong: %+v", out)
	}
	if len(out.Attribution) != 1 || out.Attribution[0].Breaks != out.Counters.Breaks {
		t.Errorf("attribution must restate the run's counters: %+v vs breaks=%d",
			out.Attribution, out.Counters.Breaks)
	}
	if len(out.Attribution) == 1 && len(out.Attribution[0].Causes) == 0 {
		t.Error("attribution report carries no causes")
	}
}

// TestAttributeH2PReplaysOnce: the counter cell, the -attribute arm and
// the -h2p pair share one executor run, so every flag combination
// replays the workload once — and a store-served cell with probes still
// replays once, for the probes alone — while the probed reports restate
// the cell's counters.
func TestAttributeH2PReplaysOnce(t *testing.T) {
	const insns = 30_000
	s, _ := arch.Lookup("nls-table-1024")
	store := t.TempDir()
	for _, run := range []string{"cold", "warm"} {
		res, err := simulate(workload.Li(), s, "nls", insns, store, false, true, true)
		if err != nil {
			t.Fatal(err)
		}
		if res.stats.Replays != 1 || res.stats.Records != insns {
			t.Errorf("%s run: %d replays drawing %d records, want 1 drawing %d",
				run, res.stats.Replays, res.stats.Records, insns)
		}
		if want := map[string]int{"cold": 0, "warm": 1}[run]; res.stats.Loaded != want {
			t.Errorf("%s run loaded %d cells, want %d", run, res.stats.Loaded, want)
		}
		if len(res.reports) != 1 || res.reports[0].Breaks != res.m.Breaks ||
			res.reports[0].Mispredicts != res.m.Mispredicts {
			t.Errorf("%s run: attribution %+v does not restate the counters %+v", run, res.reports, res.m)
		}
		if len(res.ranks) != 1 {
			t.Errorf("%s run: %d h2p rankings, want 1", run, len(res.ranks))
		}
	}
}
