package experiments

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
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
// instruction budget. Arch specs are deliberately absent — they affect
// replay, not the traces — and so are penalties, which affect neither.
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
// first when it is missing, stale, or corrupt: a build streams every
// program from its generator into a trace.CorpusWriter (buildCorpus) and
// then attaches the file it wrote, exactly as a hit does. Replay then
// streams programs from the corpus (Runner.source), the run that built it
// included, instead of generating. The returned duration is the wall time
// spent on corpus work — the "gen-corpus" stage: generation plus
// serialization on a build, open and validation in every case.
func (r *Runner) UseCorpus(path string) (time.Duration, error) {
	start := time.Now()
	if r.attachedCorpus() != nil {
		return time.Since(start), nil
	}
	c, _ := trace.OpenCorpus(path)
	if c != nil && !r.corpusMatches(c) {
		// The content-keyed name makes a mismatch effectively mean the
		// file was written under a different key scheme or tampered with
		// below the checksums' notice; either way it is a miss.
		c.Close()
		c = nil
	}
	if c == nil {
		// Racing builders (two runners, or two processes) each spool to
		// their own temp files; the atomic rename keeps the file whole.
		if err := r.buildCorpus(path); err != nil {
			return time.Since(start), err
		}
		var err error
		if c, err = trace.OpenCorpus(path); err != nil {
			return time.Since(start), fmt.Errorf("experiments: corpus %s: %w", path, err)
		}
	}
	r.corpusMu.Lock()
	if r.corpus == nil {
		r.corpus = c
	} else {
		c.Close() // a concurrent caller attached first
	}
	r.corpusMu.Unlock()
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

// buildCorpus streams every program from its generator into a corpus at
// path, generating the programs in parallel. No program's trace is ever
// held: each is drawn block by block and spooled to disk as it is encoded.
func (r *Runner) buildCorpus(path string) error {
	streams := make([]*workload.Stream, len(r.Cfg.Programs))
	if err := forEachProgram(len(streams), func(i int) (err error) {
		streams[i], err = r.Cfg.Programs[i].Stream(r.Cfg.Insns)
		return err
	}); err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	if err := writeCorpus(path, r.Cfg.Insns, streams); err != nil {
		return fmt.Errorf("experiments: corpus %s: %w", path, err)
	}
	return nil
}

// writeCorpus encodes each stream, in parallel, into its own section of a
// corpus at path declaring insns records per program. A stream that
// yields fewer records fails the write, and a failed write leaves no file
// behind. Each block is released back to its stream once encoded, so a
// program's encode holds one block however long its trace.
func writeCorpus(path string, insns int, streams []*workload.Stream) error {
	w, err := trace.CreateCorpus(path)
	if err != nil {
		return err
	}
	sections := make([]*trace.CorpusSection, len(streams))
	for i, s := range streams {
		if sections[i], err = w.Section(s.Name, s.StaticCondSites, insns); err != nil {
			w.Abort()
			return err
		}
	}
	if err := forEachProgram(len(streams), func(i int) error {
		src, sec := streams[i], sections[i]
		for blk := src.NextChunk(); len(blk) > 0; blk = src.NextChunk() {
			if err := sec.Write(blk); err != nil {
				return err
			}
			src.Release(blk)
		}
		return sec.Close()
	}); err != nil {
		w.Abort()
		return err
	}
	return w.Close()
}

// forEachProgram runs f(0..n-1) concurrently, one goroutine per program,
// and returns the first error in index order.
func forEachProgram(n int, f func(i int) error) error {
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := range errs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = f(i)
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// attachedCorpus returns the corpus attached by UseCorpus, if any.
func (r *Runner) attachedCorpus() *trace.Corpus {
	r.corpusMu.Lock()
	defer r.corpusMu.Unlock()
	return r.corpus
}

// CloseCorpus detaches and closes the attached corpus (closing its file).
// Close between runs only: a replay in flight reads the open file.
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
