package experiments

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/internal/trace"
	"repro/internal/workload"
)

// The disk-backed trace corpus: generate once, replay many. Trace
// generation is the one stage of a sweep whose cost is independent of how
// many cells the store already holds — every fresh process regenerates the
// synthetic traces before it can replay anything. A corpus persists the
// generated traces next to the results store in one content-keyed
// container (trace.Corpus, nls-corpus/v1), so only the first run of a
// (workloads, insns) configuration pays generation; every later run —
// including every fresh process of a sweep service — decodes the corpus
// instead. The key scheme mirrors the cell store: any change to any
// generation input changes the file name, so a stale corpus can never be
// served.

// corpusSchema versions the corpus content key derivation. Bump it when
// trace generation changes meaning without any key field changing, so
// every old corpus misses and is regenerated.
const corpusSchema = "nls-corpus-key/v1"

// CorpusKey derives the content key of a configuration's trace-generation
// inputs: the workload specs (name, seed, generator parameters) and the
// instruction budget. Penalties and arch specs are deliberately absent —
// they affect replay, not the traces.
func CorpusKey(cfg Config) string {
	return hashDoc(struct {
		Schema    string          `json:"schema"`
		Workloads []workload.Spec `json:"workloads"`
		Insns     int             `json:"insns"`
	}{corpusSchema, cfg.Programs, cfg.Insns})
}

// DefaultCorpusDir is where the CLIs keep trace corpora, beside the
// results store (results/cells).
func DefaultCorpusDir() string { return filepath.Join("results", "corpus") }

// CorpusPath returns the content-keyed corpus file path for cfg under dir.
func CorpusPath(dir string, cfg Config) string {
	return filepath.Join(dir, "traces-"+CorpusKey(cfg)[:16]+".nlsc")
}

// UseCorpus attaches the corpus at path to the runner, building the file
// first when it is missing, stale, or corrupt: a build generates every
// program trace (memoizing them for this run) and streams them through a
// trace.CorpusWriter. On a hit the corpus is opened (memory-mapped where
// supported): replay then streams programs from it (Runner.source) and
// whole-trace callers decode them (genOne) instead of generating.
// The returned duration is the wall time spent on corpus work — the
// "gen-corpus" stage: generation plus serialization on a build, open and
// validation on a hit.
func (r *Runner) UseCorpus(path string) (time.Duration, error) {
	start := time.Now()
	r.corpusMu.Lock()
	if r.corpus != nil {
		r.corpusMu.Unlock()
		return time.Since(start), nil
	}
	if c, err := trace.OpenCorpus(path); err == nil {
		if r.corpusMatches(c) {
			r.corpus = c
			r.corpusMu.Unlock()
			return time.Since(start), nil
		}
		// The content-keyed name makes a mismatch effectively mean the
		// file was written under a different key scheme or tampered with
		// below the checksums' notice; either way it is a miss.
		c.Close()
	}
	// Build outside the lock: generation goes through genOne, which reads
	// the (still nil) corpus under corpusMu. Two racing callers at worst
	// build the same file twice; the atomic rename keeps it consistent.
	r.corpusMu.Unlock()
	if err := r.buildCorpus(path); err != nil {
		return time.Since(start), err
	}
	return time.Since(start), nil
}

// corpusMatches reports whether the corpus holds every configured program
// at the configured instruction budget.
func (r *Runner) corpusMatches(c *trace.Corpus) bool {
	byName := make(map[string]trace.CorpusProgram, len(c.Programs()))
	for _, p := range c.Programs() {
		byName[p.Name] = p
	}
	for _, w := range r.Cfg.Programs {
		p, ok := byName[w.Name]
		if !ok || p.Records != r.Cfg.Insns {
			return false
		}
	}
	return true
}

// buildCorpus generates all traces and writes them to path. The traces
// stay memoized in the runner, so the run that builds a corpus never
// decodes it back.
func (r *Runner) buildCorpus(path string) error {
	traces, err := r.Traces()
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	w, err := trace.CreateCorpus(path)
	if err != nil {
		return err
	}
	for _, t := range traces {
		if err := w.Add(t); err != nil {
			w.Abort()
			return fmt.Errorf("experiments: corpus %s: %w", path, err)
		}
	}
	if err := w.Close(); err != nil {
		return fmt.Errorf("experiments: corpus %s: %w", path, err)
	}
	return nil
}

// attachedCorpus returns the corpus attached by UseCorpus, if any.
func (r *Runner) attachedCorpus() *trace.Corpus {
	r.corpusMu.Lock()
	defer r.corpusMu.Unlock()
	return r.corpus
}

// CloseCorpus detaches and closes the attached corpus (releasing its
// mapping); traces already decoded stay valid (decoding copies records out
// of the mapped bytes). Close between runs only: a replay in flight
// streams straight from the mapping.
func (r *Runner) CloseCorpus() error {
	r.corpusMu.Lock()
	defer r.corpusMu.Unlock()
	if r.corpus == nil {
		return nil
	}
	err := r.corpus.Close()
	r.corpus = nil
	return err
}
