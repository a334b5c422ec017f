package experiments

import (
	"bytes"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"testing"

	"repro/internal/arch"
	"repro/internal/cache"
	"repro/internal/trace"
	"repro/internal/workload"
)

func corpusTestConfig() Config {
	cfg := DefaultConfig(15_000)
	cfg.Programs = []workload.Spec{workload.Li(), workload.Espresso()}
	return cfg
}

func corpusSweep(t *testing.T, x *Executor) []Row {
	t.Helper()
	g := Grid{Name: "corpus-smoke", Arms: []Arm{
		{Name: "nls", Spec: arch.NLSTable(512), Caches: []cache.Geometry{
			cache.MustGeometry(8*1024, LineBytes, 1),
			cache.MustGeometry(16*1024, LineBytes, 4),
		}},
		{Name: "btb", Spec: arch.BTB(128, 1), Caches: []cache.Geometry{
			cache.MustGeometry(8*1024, LineBytes, 1),
		}},
	}}
	rs, err := x.RunGrids(false, g)
	if err != nil {
		t.Fatal(err)
	}
	return rs.Rows(g)
}

// TestCorpusRoundTripSmoke is the corpus round-trip gate run by `make
// verify`: a run with a corpus directory builds the content-keyed corpus
// file; a second, fresh run reopens that file, decodes every trace from it
// (no regeneration), and must produce bit-identical sweep rows.
func TestCorpusRoundTripSmoke(t *testing.T) {
	cfg := corpusTestConfig()
	dir := t.TempDir()

	// Baseline: no corpus anywhere near the run.
	base := &Executor{R: NewRunner(cfg)}
	want := corpusSweep(t, base)

	// First corpus run: builds the file.
	x1 := &Executor{R: NewRunner(cfg), CorpusDir: dir}
	got1 := corpusSweep(t, x1)
	defer x1.R.CloseCorpus()

	path := CorpusPath(dir, cfg)
	if _, err := os.Stat(path); err != nil {
		t.Fatalf("first corpus run did not build %s: %v", path, err)
	}

	// Second corpus run in a fresh runner: must decode, not regenerate.
	x2 := &Executor{R: NewRunner(cfg), CorpusDir: dir}
	got2 := corpusSweep(t, x2)
	defer x2.R.CloseCorpus()
	if x2.R.attachedCorpus() == nil {
		t.Fatal("second run did not attach the corpus")
	}

	if len(want) != len(got1) || len(want) != len(got2) {
		t.Fatalf("row counts diverge: %d / %d / %d", len(want), len(got1), len(got2))
	}
	for i := range want {
		if got1[i].M != want[i].M {
			t.Errorf("row %d (%s/%s/%s): corpus-building run diverges from baseline",
				i, want[i].Program, want[i].Arch, want[i].Cache())
		}
		if got2[i].M != want[i].M {
			t.Errorf("row %d (%s/%s/%s): corpus-replay run diverges from baseline\n got %+v\nwant %+v",
				i, want[i].Program, want[i].Arch, want[i].Cache(), got2[i].M, want[i].M)
		}
	}
}

// TestCorpusStaleFileRebuilt: a corpus at the right path but with the
// wrong contents (here: a different instruction budget) is a miss; the run
// rebuilds it in place and still produces correct rows.
func TestCorpusStaleFileRebuilt(t *testing.T) {
	cfg := corpusTestConfig()
	dir := t.TempDir()

	// Plant a corpus for a different budget at this config's keyed path.
	other := cfg
	other.Insns = 5_000
	xo := &Executor{R: NewRunner(other), CorpusDir: dir}
	corpusSweep(t, xo)
	xo.R.CloseCorpus()
	stale := CorpusPath(dir, other)
	if err := os.Rename(stale, CorpusPath(dir, cfg)); err != nil {
		t.Fatal(err)
	}

	base := &Executor{R: NewRunner(cfg)}
	want := corpusSweep(t, base)
	x := &Executor{R: NewRunner(cfg), CorpusDir: dir}
	got := corpusSweep(t, x)
	defer x.R.CloseCorpus()
	for i := range want {
		if got[i].M != want[i].M {
			t.Errorf("row %d diverges after stale-corpus rebuild", i)
		}
	}

	// The rebuilt file must now be a valid hit for a fresh runner.
	x2 := &Executor{R: NewRunner(cfg), CorpusDir: dir}
	corpusSweep(t, x2)
	defer x2.R.CloseCorpus()
	if x2.R.attachedCorpus() == nil {
		t.Error("rebuilt corpus not attached by a fresh runner")
	}
}

// TestCorpusCorruptFileFallsBack: flipping payload bytes must not error a
// run or change its rows — the corpus is a cache, so corruption degrades
// to regeneration.
func TestCorpusCorruptFileFallsBack(t *testing.T) {
	cfg := corpusTestConfig()
	dir := t.TempDir()
	x1 := &Executor{R: NewRunner(cfg), CorpusDir: dir}
	want := corpusSweep(t, x1)
	x1.R.CloseCorpus()

	path := CorpusPath(dir, cfg)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Corrupt a payload byte past the head magic; the index stays intact,
	// so the corpus opens and the per-program checksum catches it.
	data[len(data)/4] ^= 0xFF
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	x2 := &Executor{R: NewRunner(cfg), CorpusDir: dir}
	got := corpusSweep(t, x2)
	defer x2.R.CloseCorpus()
	for i := range want {
		if got[i].M != want[i].M {
			t.Errorf("row %d diverges after payload corruption fallback", i)
		}
	}
}

// TestCorpusKeyStability: the key must change with any generation input
// and ignore replay-only inputs.
func TestCorpusKeyStability(t *testing.T) {
	cfg := corpusTestConfig()
	k := CorpusKey(cfg)
	if k2 := CorpusKey(cfg); k2 != k {
		t.Fatalf("key not deterministic: %s vs %s", k, k2)
	}
	ins := cfg
	ins.Insns++
	if CorpusKey(ins) == k {
		t.Error("key ignores the instruction budget")
	}
	progs := cfg
	progs.Programs = progs.Programs[:1]
	if CorpusKey(progs) == k {
		t.Error("key ignores the workload set")
	}
	pen := cfg
	pen.Penalties.Misfetch++
	if CorpusKey(pen) != k {
		t.Error("key depends on penalties, which do not affect traces")
	}
	if filepath.Base(CorpusPath("d", cfg)) != "traces-"+k[:16]+".nlsc" {
		t.Errorf("CorpusPath does not embed the content key: %s", CorpusPath("d", cfg))
	}
}

// addCorpus writes cfg's corpus at path the whole-trace way: every
// program materialized by Spec.Trace and handed to CorpusWriter.Add.
func addCorpus(t *testing.T, cfg Config, path string) {
	t.Helper()
	w, err := trace.CreateCorpus(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range cfg.Programs {
		tr, err := p.Trace(cfg.Insns)
		if err != nil {
			t.Fatal(err)
		}
		if err := w.Add(tr); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestStreamedBuildMatchesAdd: a cold build streams every program from
// its generator, yet the file must be byte-identical to the whole-trace
// corpus of the same config — so existing corpora stay valid and the
// corpus schema need not change.
func TestStreamedBuildMatchesAdd(t *testing.T) {
	cfg := corpusTestConfig()
	cfg.Insns = 3*trace.DefaultChunkRecords + 5 // a short final block
	dir := t.TempDir()
	streamed := buildTestCorpus(t, cfg, filepath.Join(dir, "streamed"))
	added := filepath.Join(dir, "added.nlsc")
	addCorpus(t, cfg, added)
	a, err := os.ReadFile(added)
	if err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(streamed)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatal("streamed corpus build differs from CorpusWriter.Add over Spec.Trace")
	}
}

// TestStreamedBuildShortFails: a generator that yields fewer records than
// the budget fails the build, and the build leaves no file behind.
func TestStreamedBuildShortFails(t *testing.T) {
	cfg := corpusTestConfig()
	dir := t.TempDir()
	streams := make([]*workload.Stream, len(cfg.Programs))
	for i, p := range cfg.Programs {
		n := cfg.Insns
		if i == 1 {
			n-- // this generator runs dry one record early
		}
		var err error
		if streams[i], err = p.Stream(n); err != nil {
			t.Fatal(err)
		}
	}
	if err := writeCorpus(CorpusPath(dir, cfg), cfg.Insns, streams); err == nil {
		t.Fatal("corpus build accepted a short program")
	}
	if ents, _ := os.ReadDir(dir); len(ents) != 0 {
		t.Fatalf("failed build left %d files behind", len(ents))
	}
}

// TestCorpusConcurrentBuilders: runners that build one corpus at once (two
// cold service jobs of one config) each spool to their own temp files, so
// every UseCorpus succeeds and the file left behind opens with valid
// checksums and the generated traces.
func TestCorpusConcurrentBuilders(t *testing.T) {
	cfg := corpusTestConfig()
	cfg.Insns = 200_000
	dir := t.TempDir()
	path := CorpusPath(dir, cfg)
	const builders = 4
	var wg sync.WaitGroup
	errs := make([]error, builders)
	for i := range errs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			r := NewRunner(cfg)
			_, errs[i] = r.UseCorpus(path)
			r.CloseCorpus()
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Errorf("builder %d: %v", i, err)
		}
	}
	if ents, _ := os.ReadDir(dir); len(ents) != 1 {
		t.Errorf("racing builds left %d files, want only the corpus", len(ents))
	}
	c, err := trace.OpenCorpus(path)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for _, p := range cfg.Programs {
		got, err := c.Trace(p.Name) // verifies the payload checksum
		if err != nil {
			t.Fatal(err)
		}
		want, err := p.Trace(cfg.Insns)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(got.Records, want.Records) {
			t.Errorf("%s: corpus records differ from generation", p.Name)
		}
	}
}
