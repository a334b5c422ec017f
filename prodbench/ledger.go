package main

import (
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"runtime"

	"repro/internal/arch"
	"repro/internal/cache"
	"repro/internal/experiments"
	"repro/internal/fetch"
	"repro/internal/metrics"
	"repro/internal/multiissue"
	"repro/internal/trace"
)

// The ledger restates one production pass as a sequence of calls into
// each layer's public functions, in the executor's order, with one span
// per call: gather (store probes), trace acquisition (decode a corpus, or
// generate and write one), chunking with run annotation, engine build,
// broadcast replay, store save and, for figures, rendering. Its rows must
// equal the production pass's rows bit for bit. Programs run one after
// another, each replay with the executor's per-program worker count, so
// spans never overlap; ledger.trace_overhead therefore includes the
// program-level parallelism the executor has and the ledger gives up.
//
// Engines are never wrapped: a wrapper built outside internal/experiments
// would drop the engines' optional fast-path interfaces and time a
// different replay path. Per-cell engine time comes from
// ResultSet.Timings instead.

// ledgerInput is one production pass for the ledger to restate.
type ledgerInput struct {
	cfg      experiments.Config
	grids    []experiments.Grid
	needInfo bool
	// figs are rendered after the replay: grid figures from rs, probed
	// figures through an executor reading the ledger's corpus.
	figs []experiments.Figure
	rs   *experiments.ResultSet
	// corpus, when set, is decoded like a warm-corpus pass; otherwise the
	// ledger generates the traces and writes a corpus, like a cold pass.
	corpus string
	dir    string
}

// ledgerOutput is what the ledger computed, for the checks and the
// diagnostics that follow it.
type ledgerOutput struct {
	rootID  int
	rows    map[string]metrics.Counters
	infos   map[string]*experiments.ProgramInfo
	texts   map[string]string
	chunked []*trace.Chunked
	corpus  string
	decoded bool // the traces came from an existing corpus
	store   *experiments.Store
	keys    []string
	saved   int
	records int64
}

// executorWorkers is the broadcast worker count the executor gives each
// program when active programs replay at once (Executor.RunGrids).
func executorWorkers(active int) int {
	budget := runtime.NumCPU()
	if budget < 2 {
		budget = 2
	}
	par := active
	if par > budget {
		par = budget
	}
	if par < 1 {
		par = 1
	}
	if w := budget / par; w > 1 {
		return w
	}
	return 1
}

// infoDocKey is the store key the ledger saves a program's info under (the
// executor's own info key is unexported; only the write cost matters).
func infoDocKey(program string, insns int) string {
	return fmt.Sprintf("%x", sha256.Sum256([]byte(fmt.Sprintf("info/%s/%d", program, insns))))
}

func runLedger(t *tracer, in ledgerInput) (ledgerOutput, error) {
	cfg := in.cfg
	out := ledgerOutput{
		rows:    map[string]metrics.Counters{},
		infos:   map[string]*experiments.ProgramInfo{},
		texts:   map[string]string{},
		chunked: make([]*trace.Chunked, len(cfg.Programs)),
	}
	st, err := experiments.OpenStore(filepath.Join(in.dir, "cells"))
	if err != nil {
		return out, err
	}
	out.store = st
	cells, keys := uniqueCells(cfg, in.grids)
	byProg := make([][]int, len(cfg.Programs))
	progIdx := map[string]int{}
	for i, p := range cfg.Programs {
		progIdx[p.Name] = i
	}
	active := 0
	for j, c := range cells {
		i := progIdx[c.Prog.Name]
		if byProg[i] == nil {
			active++
		}
		byProg[i] = append(byProg[i], j)
	}
	if in.needInfo {
		active = len(cfg.Programs)
	}
	workers := executorWorkers(active)

	out.rootID = t.begin("ledger")
	err = func() error {
		if err := t.span("experiments.gather", func() error {
			for _, k := range keys {
				var row experiments.Row
				if ok, err := st.Load(k, &row); err != nil {
					return err
				} else if ok {
					return fmt.Errorf("ledger store already holds cell %s", k[:12])
				}
			}
			return nil
		}); err != nil {
			return err
		}

		var corpus *trace.Corpus
		var generated []*trace.Trace
		if in.corpus != "" {
			out.corpus, out.decoded = in.corpus, true
			if err := t.span("trace.decode", func() (err error) {
				corpus, err = trace.OpenCorpus(in.corpus)
				return err
			}); err != nil {
				return err
			}
			defer corpus.Close()
		} else {
			out.corpus = experiments.CorpusPath(filepath.Join(in.dir, "corpus"), cfg)
			generated = make([]*trace.Trace, len(cfg.Programs))
			for i, p := range cfg.Programs {
				if err := t.span("workload.gen", func() (err error) {
					generated[i], err = p.Trace(cfg.Insns)
					return err
				}); err != nil {
					return err
				}
				out.records += int64(len(generated[i].Records))
			}
			if err := t.span("trace.corpus_write", func() error {
				return writeCorpus(out.corpus, generated)
			}); err != nil {
				return err
			}
		}

		for i, p := range cfg.Programs {
			idx := byProg[i]
			if len(idx) == 0 && !in.needInfo {
				continue
			}
			var t0 *trace.Trace
			if corpus != nil {
				if err := t.span("trace.decode", func() (err error) {
					t0, err = corpus.Trace(p.Name)
					return err
				}); err != nil {
					return err
				}
			} else {
				t0 = generated[i]
			}
			var ct *trace.Chunked
			_ = t.span("trace.chunk", func() error {
				ct = trace.Chunk(t0, trace.DefaultChunkRecords)
				ct.RunLens(experiments.LineBytes)
				return nil
			})
			out.chunked[i] = ct

			engines := make([]fetch.Engine, len(idx))
			if err := t.span("fetch.build", func() error {
				for j, ci := range idx {
					e, err := cells[ci].Spec.Build()
					if err != nil {
						return fmt.Errorf("cell %s/%s: %w", p.Name, cells[ci].Arm, err)
					}
					engines[j] = e
				}
				return nil
			}); err != nil {
				return err
			}

			var info *experiments.ProgramInfo
			if err := t.span("fetch.replay", func() error {
				src := chunkSource(ct, cells, idx)
				var sc *trace.StatsCollector
				var bcs []*multiissue.BlockCounter
				if in.needInfo {
					sc = trace.NewStatsCollector(ct.Name, ct.StaticCondSites)
					for _, w := range experiments.FetchWidths() {
						bc, err := multiissue.NewBlockCounter(multiissue.Config{Width: w, LineBytes: experiments.LineBytes})
						if err != nil {
							return err
						}
						bcs = append(bcs, bc)
					}
					src = trace.TeeChunks(src, func(recs []trace.Record) {
						sc.Add(recs)
						for _, bc := range bcs {
							bc.Add(recs)
						}
					})
				}
				if len(engines) > 0 {
					fetch.BroadcastWorkers(src, workers, engines...)
				} else {
					for blk := src.NextChunk(); len(blk) > 0; blk = src.NextChunk() {
					}
				}
				if in.needInfo {
					blocks := map[int]uint64{}
					for _, bc := range bcs {
						blocks[bc.Width()] = bc.Blocks()
					}
					info = &experiments.ProgramInfo{Program: ct.Name, Insns: cfg.Insns, Stats: sc.Stats(), FetchBlocks: blocks}
				}
				return nil
			}); err != nil {
				return err
			}

			if err := t.span("experiments.store_save", func() error {
				for j, ci := range idx {
					c := cells[ci]
					row := experiments.Row{Program: c.Prog.Name, Arch: c.Arm, Spec: c.Spec, M: *engines[j].Counters()}
					if err := st.Save(keys[ci], row); err != nil {
						return err
					}
					out.rows[keys[ci]] = row.M
					out.keys = append(out.keys, keys[ci])
					out.saved++
				}
				if info != nil {
					out.infos[p.Name] = info
					out.saved++
					return st.Save(infoDocKey(p.Name, cfg.Insns), info)
				}
				return nil
			}); err != nil {
				return err
			}
		}

		if err := t.span("experiments.render", func() error {
			x := &experiments.Executor{R: experiments.NewRunner(cfg)}
			for _, f := range in.figs {
				if f.Probed == nil {
					text, _, err := x.RenderFigure(f, in.rs)
					if err != nil {
						return err
					}
					out.texts[f.Name] = text
				}
			}
			return nil
		}); err != nil {
			return err
		}
		return t.span("experiments.probed", func() error {
			var probed []experiments.Figure
			for _, f := range in.figs {
				if f.Probed != nil {
					probed = append(probed, f)
				}
			}
			if len(probed) == 0 {
				return nil
			}
			x := &experiments.Executor{R: experiments.NewRunner(cfg)}
			defer x.R.CloseCorpus()
			if _, err := x.R.UseCorpus(out.corpus); err != nil {
				return err
			}
			for _, f := range probed {
				text, _, err := x.RenderFigure(f, nil)
				if err != nil {
					return err
				}
				out.texts[f.Name] = text
			}
			return nil
		})
	}()
	t.end(out.rootID)
	return out, err
}

// chunkSource mirrors the executor's choice of block source: shared
// same-line run annotations when every pending cell of the program has one
// line size, plain blocks otherwise.
func chunkSource(ct *trace.Chunked, cells []experiments.Cell, idx []int) trace.ChunkSource {
	if len(idx) == 0 {
		return ct.Chunks()
	}
	lb := cells[idx[0]].Spec.Cache.LineBytes
	for _, ci := range idx[1:] {
		if cells[ci].Spec.Cache.LineBytes != lb {
			return ct.Chunks()
		}
	}
	return ct.ChunksRuns(lb)
}

// writeCorpus writes traces into a new corpus file at path.
func writeCorpus(path string, traces []*trace.Trace) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	w, err := trace.CreateCorpus(path)
	if err != nil {
		return err
	}
	for _, tr := range traces {
		if err := w.Add(tr); err != nil {
			w.Abort()
			return err
		}
	}
	return w.Close()
}

// diagOutput holds the diagnostics' counts.
type diagOutput struct {
	rootID                       int
	oracleAccesses, oracleMisses uint64
	events                       uint64
	decodeAlloc                  uint64
	corpusBytes                  int64
	genRecords                   int64
	loaded                       int
}

// pollutionSpecs are the wrong-path pollution figure's cells on one
// program: the two equal-cost architectures at 8KB, clean and polluted.
func pollutionSpecs() []arch.Spec {
	g := cache.MustGeometry(8*1024, experiments.LineBytes, 1)
	var out []arch.Spec
	for _, s := range []arch.Spec{arch.NLSTable(1024), arch.BTB(128, 1)} {
		s = s.WithGeometry(g)
		polluted := s
		polluted.Pollution = true
		out = append(out, s, polluted)
	}
	return out
}

// runDiagnostics measures the layers one at a time on the ledger's traces,
// outside the ledger root so they do not count against the pass: the
// trace acquisition the ledger's pass did not use, standalone oracle
// annotation, each paper arm kind broadcast alone, private replay of the
// pollution cells, and store loads of every saved cell.
func runDiagnostics(t *tracer, rep *report, cfg experiments.Config, lo ledgerOutput, dir string) (diagOutput, error) {
	var d diagOutput
	d.rootID = t.begin("diagnostics")
	err := func() error {
		corpusPath := lo.corpus
		if lo.decoded {
			traces := make([]*trace.Trace, len(cfg.Programs))
			for i, p := range cfg.Programs {
				if err := t.span("workload.gen", func() (err error) {
					traces[i], err = p.Trace(cfg.Insns)
					return err
				}); err != nil {
					return err
				}
				d.genRecords += int64(len(traces[i].Records))
			}
			corpusPath = filepath.Join(dir, "diag-corpus.nlsc")
			if err := t.span("trace.corpus_write", func() error {
				return writeCorpus(corpusPath, traces)
			}); err != nil {
				return err
			}
		}
		fi, err := os.Stat(corpusPath)
		if err != nil {
			return err
		}
		d.corpusBytes = fi.Size()

		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		if err := t.span("trace.decode", func() error {
			c, err := trace.OpenCorpus(corpusPath)
			if err != nil {
				return err
			}
			defer c.Close()
			for _, p := range cfg.Programs {
				if _, err := c.Trace(p.Name); err != nil {
					return err
				}
			}
			return nil
		}); err != nil {
			return err
		}
		runtime.ReadMemStats(&m1)
		d.decodeAlloc = m1.TotalAlloc - m0.TotalAlloc

		var chunked []*trace.Chunked
		for _, ct := range lo.chunked {
			if ct != nil {
				chunked = append(chunked, ct)
			}
		}
		for _, geo := range []struct {
			name  string
			assoc int
		}{{"cache.annotate_dm", 1}, {"cache.annotate_4way", 4}} {
			g := cache.MustGeometry(16*1024, experiments.LineBytes, geo.assoc)
			_ = t.span(geo.name, func() error {
				for _, ct := range chunked {
					o := cache.NewOracle(g)
					var ann cache.AccessAnnotations
					runs := ct.RunLens(experiments.LineBytes)
					for b := 0; b < ct.NumChunks(); b++ {
						recs := ct.Block(b)
						o.Annotate(recs, runs[b], &ann)
						d.oracleAccesses += uint64(len(recs))
						d.oracleMisses += ann.Misses
						d.events += uint64(len(ann.Events))
					}
					ann.Release()
				}
				return nil
			})
		}

		workers := executorWorkers(len(chunked))
		for _, k := range paperKinds {
			if err := t.span(k.metric, func() error {
				for _, ct := range chunked {
					var engines []fetch.Engine
					for _, g := range experiments.PaperCaches() {
						e, err := k.arm.Spec.WithGeometry(g).Build()
						if err != nil {
							return err
						}
						engines = append(engines, e)
					}
					fetch.BroadcastWorkers(ct.ChunksRuns(experiments.LineBytes), workers, engines...)
				}
				return nil
			}); err != nil {
				return err
			}
		}

		if err := t.span("fetch.private_replay", func() error {
			for _, ct := range chunked {
				for _, s := range pollutionSpecs() {
					e, err := s.Build()
					if err != nil {
						return err
					}
					fetch.RunChunks(e, ct.Chunks())
				}
			}
			return nil
		}); err != nil {
			return err
		}

		loaded := map[string]metrics.Counters{}
		if err := t.span("experiments.store_load", func() error {
			for _, k := range lo.keys {
				var row experiments.Row
				ok, err := lo.store.Load(k, &row)
				if err != nil {
					return err
				}
				if ok {
					loaded[k] = row.M
				}
			}
			return nil
		}); err != nil {
			return err
		}
		d.loaded = len(lo.keys)
		compareRows(rep, "store load vs ledger", lo.rows, loaded)
		return nil
	}()
	t.end(d.rootID)
	return d, err
}
