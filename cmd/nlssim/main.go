// Command nlssim runs a single workload through one fetch-architecture
// configuration and reports the paper's metrics (%MfB, %MpB, BEP, CPI,
// i-cache miss rate), optionally with a per-branch-kind breakdown and a
// per-branch penalty attribution.
//
// The -arch flag accepts either a registered architecture-spec name (run
// with -list to see them; e.g. nls-table-1024, btb-128, johnson), which
// selects the complete paper configuration, or a bare predictor kind
// (nls-table, nls-cache, btb, coupled-btb, johnson), which is assembled
// from the sizing flags.
//
// Usage:
//
//	nlssim -workload gcc -arch nls-table -entries 1024 -cache 16 -assoc 1
//	nlssim -workload li  -arch btb -entries 128 -assoc 4 -breakdown
//	nlssim -workload espresso -arch nls-table-1024          # registered spec
//	nlssim -workload gcc -arch btb-128 -json                # machine-readable
//	nlssim -workload gcc -arch nls-cache -attribute   # per-branch penalty causes
//	nlssim -workload espresso -h2p        # dir-wrong recovery, gshare vs TAGE-lite
//	nlssim -workload gcc -pht tage        # equal-cost TAGE-lite direction predictor
//	nlssim -workload li -trace-events out.json  # sim-time pipeline trace (Perfetto)
//
// The run goes through the experiments pipeline as a one-figure executor
// run over a single-cell grid: the result is keyed and stored in the same
// content-addressed store cmd/nlstables uses, so repeating a run (or
// re-running a figure that contains the same cell) loads it instead of
// re-simulating. -force re-simulates; -store "" disables the store. A
// simulated run streams the workload from its generator chunk by chunk,
// so memory stays bounded by the chunk size however large -n is.
//
// -attribute and -h2p add probe-attached engines to the figure's probed
// grid (attribution is an event-stream product the counter store cannot
// serve), so they join the same run: whatever the flags, the workload is
// replayed at most once. -attribute prints the per-branch cause table —
// or embeds it in the -json object. With -json, stdout carries exactly
// one JSON document; all diagnostics go to stderr. -trace-events replays
// the workload once more through a recorder-attached engine.
// -cpuprofile/-memprofile write standard pprof profiles.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/arch"
	"repro/internal/experiments"
	"repro/internal/fetch"
	"repro/internal/isa"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/prof"
	"repro/internal/telemetry"
	"repro/internal/workload"
)

func main() {
	var (
		wl          = flag.String("workload", "gcc", "workload name (doduc, espresso, gcc, li, cfront, groff)")
		n           = flag.Int("n", 1_000_000, "instructions to simulate")
		archName    = flag.String("arch", "nls-table", "registered spec name (see -list) or predictor kind: nls-table, nls-cache, btb, coupled-btb, johnson")
		entries     = flag.Int("entries", 1024, "NLS-table or BTB entries")
		perLine     = flag.Int("perline", 2, "NLS-cache predictors per line")
		cacheKB     = flag.Int("cache", 16, "instruction cache size in KB")
		assoc       = flag.Int("assoc", 1, "cache associativity (nls) or BTB associativity (btb)")
		phtKind     = flag.String("pht", "gshare", "direction predictor: gshare, gas, bimodal, 1bit, tage, taken, nottaken")
		phtSize     = flag.Int("phtsize", 4096, "PHT entries (tage uses the equal-cost DESIGN.md §13 sizing)")
		breakdown   = flag.Bool("breakdown", false, "print per-branch-kind misfetch/mispredict breakdown")
		attribute   = flag.Bool("attribute", false, "attach the fetch probe and report per-branch penalty attribution")
		h2p         = flag.Bool("h2p", false, "rank hard-to-predict branches: per-PC dir-wrong under the paper gshare vs the equal-cost TAGE-lite, on the selected architecture")
		jsonOut     = flag.Bool("json", false, "emit the result as JSON on stdout")
		list        = flag.Bool("list", false, "list registered architecture specs and exit")
		force       = flag.Bool("force", false, "re-simulate even when the results store has the cell")
		storeDir    = flag.String("store", experiments.DefaultStoreDir(), "content-addressed results store directory (empty disables)")
		cpuprofile  = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memprofile  = flag.String("memprofile", "", "write a heap profile to this file at exit")
		traceEvents = flag.String("trace-events", "", "write a sim-time Chrome trace-event JSON file (Perfetto-viewable) from a recorder-attached replay")
		traceSample = flag.Int("trace-sample", 64, "fetch-block accesses between trace counter samples")
		traceMax    = flag.Int("trace-max-events", 0, "trace event cap (0 = default)")
		version     = flag.Bool("version", false, "print build information and exit")
	)
	flag.Parse()

	if *version {
		fmt.Println("nlssim", experiments.ReadBuildEnv())
		return
	}

	if *list {
		fmt.Println("architecture specs:")
		for _, name := range arch.Names() {
			s, _ := arch.Lookup(name)
			fmt.Printf("  %-20s %s\n", name, s.MustBuild().Name())
		}
		fmt.Println("pht kinds (-pht, or PHTSpec.Kind in a serve job):")
		for _, kind := range arch.PHTKinds() {
			fmt.Printf("  %s\n", kind)
		}
		fmt.Println("prefetcher kinds (PrefetchSpec.Kind in a serve job or spec document):")
		for _, kind := range arch.PrefetchKinds() {
			fmt.Printf("  %s\n", kind)
		}
		return
	}

	stopProf, err := prof.Start(*cpuprofile, *memprofile)
	if err != nil {
		fail(err)
	}

	spec, ok := workload.ByName(*wl)
	if !ok {
		fail(fmt.Errorf("unknown workload %q", *wl))
	}

	s, ok := arch.Lookup(*archName)
	if !ok {
		// Not a registered name: assemble a spec from the sizing flags.
		s = specFromFlags(*archName, *entries, *perLine, *cacheKB, *assoc, *phtKind, *phtSize)
	}
	engine, err := s.Build()
	if err != nil {
		fail(err)
	}

	res, err := simulate(spec, s, engine.Name(), *n, *storeDir, *force, *attribute, *h2p)
	if err != nil {
		fail(err)
	}
	m, reports, ranks := &res.m, res.reports, res.ranks
	p := metrics.Default()

	if *traceEvents != "" {
		if err := writeTraceEvents(spec, s, *n, *traceEvents, *traceSample, *traceMax); err != nil {
			fail(err)
		}
		fmt.Fprintf(os.Stderr, "nlssim: trace events written to %s\n", *traceEvents)
	}

	if *jsonOut {
		emitJSON(engine, spec.Name, s, m, p, reports, ranks)
		check(stopProf())
		return
	}

	fmt.Printf("%s on %s\n", engine.Name(), spec.Name)
	fmt.Printf("  %s\n", m.Summary(p))
	fmt.Printf("  BEP breakdown: misfetch=%.3f mispredict=%.3f\n",
		m.MisfetchBEP(p), m.MispredictBEP(p))

	if *breakdown {
		fmt.Println("  per-kind (count, per-100-breaks):")
		for k := isa.CondBranch; k < isa.NumKinds; k++ {
			mf, mp := m.MisfetchByKind[k], m.MispredictByKind[k]
			fmt.Printf("    %-9s misfetch %9d (%5.2f)  mispredict %9d (%5.2f)\n",
				k, mf, m.Per100Breaks(mf), mp, m.Per100Breaks(mp))
		}
	}
	if *attribute {
		fmt.Print(obs.RenderReports(reports, p))
	}
	if *h2p {
		fmt.Print(obs.RenderH2P("H2P: dir-wrong recovery, gshare vs equal-cost TAGE-lite", ranks))
	}
	check(stopProf())
}

// result is what one nlssim run reports: the cell's counters, the
// -attribute report and the -h2p ranking when asked for, and the run's
// accounting.
type result struct {
	m       metrics.Counters
	reports []obs.Report
	ranks   []obs.H2PRanking
	stats   experiments.RunStats
}

// simulate runs one (workload, spec) cell through the grid pipeline as a
// single executor run of one figure. Its Grid is a one-arm grid whose arm
// keeps the spec's own cache geometry, so the counters round-trip the
// same store as the figure harness. Its Probed grid holds the -attribute
// arm (the spec itself, labeled name) and the -h2p pair: the selected
// architecture under the paper gshare and under the equal-cost TAGE-lite
// direction predictor (DESIGN.md §13), everything else identical, ranked
// by per-PC dir-wrong recovery. The spec's own PHT kind is overridden on
// both sides of the pair: the comparison is the predictor pair, not the
// -pht flag. The run replays the workload at most once for all of it.
func simulate(w workload.Spec, s arch.Spec, name string, insns int, storeDir string, force, attribute, h2p bool) (result, error) {
	cfg := experiments.Config{
		Insns:     insns,
		Programs:  []workload.Spec{w},
		Penalties: metrics.Default(),
	}
	x := &experiments.Executor{R: experiments.NewRunner(cfg), Force: force}
	if storeDir != "" {
		store, err := experiments.OpenStore(storeDir)
		if err != nil {
			return result{}, err
		}
		x.Store = store
	}
	f := experiments.Figure{Name: "nlssim",
		Grid: experiments.Grid{Name: "nlssim", Arms: []experiments.Arm{{Name: "cell", Spec: s}}}}
	var probed []experiments.Arm
	if attribute {
		probed = append(probed, experiments.Arm{Name: name, Spec: s})
	}
	if h2p {
		if s.PHT.Kind == "" || s.PHT.Kind == arch.PHTKindNone {
			return result{}, fmt.Errorf("-h2p needs a decoupled-PHT architecture; %q couples its direction state", s.Predictor.Kind)
		}
		base, alt := s, s
		base.PHT = arch.PaperPHT()
		alt.PHT = arch.TAGEPHT()
		probed = append(probed, experiments.Arm{Name: "gshare", Spec: base},
			experiments.Arm{Name: "tage", Spec: alt})
	}
	if len(probed) > 0 {
		f.Probed = &experiments.Grid{Name: "nlssim-probed", Arms: probed}
	}
	rs, err := x.Run(f)
	if err != nil {
		return result{}, err
	}
	ctx := rs.Context(f)
	res := result{m: ctx.Rows[0].M, stats: rs.RunStats}
	if attribute {
		res.reports = ctx.Reports(experiments.AttributionTopN)[:1]
	}
	if h2p {
		res.ranks = []obs.H2PRanking{ctx.RankH2P(len(probed)-2, len(probed)-1, experiments.H2PTopN)}
	}
	return res, nil
}

// writeTraceEvents replays the workload once more through a fresh engine
// with a telemetry.SimRecorder attached and writes the sim-time trace-event
// document (DESIGN.md §15). The trace is an event-stream product the
// counter store cannot serve, so it costs its own replay; the recorder's
// seams guarantee the counters are bit-identical either way.
func writeTraceEvents(w workload.Spec, s arch.Spec, insns int, path string, sample, maxEvents int) error {
	engine, err := s.Build()
	if err != nil {
		return err
	}
	rec := telemetry.NewSimRecorder(telemetry.SimRecorderOptions{
		SampleEvery: sample, MaxEvents: maxEvents,
	})
	rec.Attach(engine)
	src, err := w.Stream(insns)
	if err != nil {
		return err
	}
	fetch.RunChunks(engine, src)
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := rec.WriteJSON(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// specFromFlags assembles an ad-hoc spec for a bare predictor kind. The
// historical flag semantics are kept: for the BTB kinds, -assoc sizes the
// BTB (the i-cache stays direct-mapped); for the others it sizes the
// i-cache.
func specFromFlags(kind string, entries, perLine, cacheKB, assoc int, phtKind string, phtSize int) arch.Spec {
	s := arch.Spec{
		Cache:    arch.CacheSpec{SizeBytes: cacheKB * 1024, LineBytes: arch.LineBytes, Assoc: assoc},
		RASDepth: 32,
	}
	switch kind {
	case arch.KindNLSTable:
		s.Predictor = arch.PredictorSpec{Kind: kind, Entries: entries}
	case arch.KindNLSCache:
		s.Predictor = arch.PredictorSpec{Kind: kind, PerLine: perLine}
	case arch.KindBTB, arch.KindCoupledBTB:
		s.Predictor = arch.PredictorSpec{Kind: kind, Entries: entries, Assoc: assoc}
		s.Cache.Assoc = 1
	case arch.KindJohnson:
		s.Predictor = arch.PredictorSpec{Kind: kind}
	default:
		fail(fmt.Errorf("unknown architecture %q (registered: %s)",
			kind, strings.Join(arch.Names(), ", ")))
	}
	switch s.Predictor.Kind {
	case arch.KindCoupledBTB, arch.KindJohnson:
		// Coupled direction state: no decoupled PHT.
	default:
		s.PHT = phtSpecFromFlags(phtKind, phtSize)
	}
	return s
}

func phtSpecFromFlags(kind string, size int) arch.PHTSpec {
	switch kind {
	case "gshare":
		return arch.PHTSpec{Kind: "gshare", Entries: size}
	case "gas":
		return arch.PHTSpec{Kind: "gas", Entries: size}
	case "bimodal":
		return arch.PHTSpec{Kind: "bimodal", Entries: size}
	case "1bit":
		return arch.PHTSpec{Kind: "1bit", Entries: size}
	case "tage":
		// The equal-cost TAGE-lite sizing (DESIGN.md §13); -phtsize is
		// ignored — the table geometry is a matched set, not one knob.
		return arch.TAGEPHT()
	case "taken":
		return arch.PHTSpec{Kind: "static-taken"}
	case "nottaken":
		return arch.PHTSpec{Kind: "static-not-taken"}
	}
	fail(fmt.Errorf("unknown PHT kind %q", kind))
	return arch.PHTSpec{}
}

// emitJSON writes the run's configuration and headline metrics as one JSON
// object, so scripts consume results without scraping the report text.
func emitJSON(e *fetch.Frontend, workloadName string, s arch.Spec, m *metrics.Counters, p metrics.Penalties, reports []obs.Report, ranks []obs.H2PRanking) {
	out := struct {
		Engine   string    `json:"engine"`
		Workload string    `json:"workload"`
		Spec     arch.Spec `json:"spec"`
		Counters struct {
			Instructions uint64 `json:"instructions"`
			Breaks       uint64 `json:"breaks"`
			Misfetches   uint64 `json:"misfetches"`
			Mispredicts  uint64 `json:"mispredicts"`
			ICacheMisses uint64 `json:"icache_misses"`
		} `json:"counters"`
		BEP           float64          `json:"bep"`
		MisfetchBEP   float64          `json:"misfetch_bep"`
		MispredictBEP float64          `json:"mispredict_bep"`
		CPI           float64          `json:"cpi"`
		ICacheMiss    float64          `json:"icache_miss_rate"`
		Attribution   []obs.Report     `json:"attribution,omitempty"`
		H2P           []obs.H2PRanking `json:"h2p,omitempty"`
	}{
		Engine:        e.Name(),
		Workload:      workloadName,
		Spec:          s,
		BEP:           m.BEP(p),
		MisfetchBEP:   m.MisfetchBEP(p),
		MispredictBEP: m.MispredictBEP(p),
		CPI:           m.CPI(p),
		ICacheMiss:    m.ICacheMissRate(),
		Attribution:   reports,
		H2P:           ranks,
	}
	out.Counters.Instructions = m.Instructions
	out.Counters.Breaks = m.Breaks
	out.Counters.Misfetches = m.Misfetches
	out.Counters.Mispredicts = m.Mispredicts
	out.Counters.ICacheMisses = m.ICacheMisses
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(out); err != nil {
		fail(err)
	}
}

func check(err error) {
	if err != nil {
		fail(err)
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "nlssim:", err)
	os.Exit(1)
}
