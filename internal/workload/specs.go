package workload

import (
	"fmt"

	"repro/internal/cfg"
	"repro/internal/exec"
	"repro/internal/trace"
)

// Spec names one benchmark analogue: a calibrated Params plus the seed that
// fixes its generated program.
type Spec struct {
	Name   string
	Seed   uint64
	Params Params
}

// Program builds the analogue's program (validated and laid out).
func (s Spec) Program() (*cfg.Program, error) {
	p, err := Generate(s.Name, s.Params, s.Seed)
	if err != nil {
		return nil, fmt.Errorf("workload %q: %w", s.Name, err)
	}
	return p, nil
}

// execSeedMix derives the execution seed from the build seed so the whole
// trace is a pure function of the Spec.
const execSeedMix = 0x9e3779b97f4a7c15

// Trace builds the program and executes n instructions.
func (s Spec) Trace(n int) (*trace.Trace, error) {
	p, err := s.Program()
	if err != nil {
		return nil, err
	}
	return exec.Trace(p, s.Seed^execSeedMix, n)
}

// Source builds the program and returns a fresh executor over it, seeded
// identically to Trace: streaming n records from it yields exactly the
// records Trace(n) materializes, without ever holding them all in memory.
func (s Spec) Source() (*exec.Executor, error) {
	p, err := s.Program()
	if err != nil {
		return nil, err
	}
	return exec.New(p, s.Seed^execSeedMix)
}

// Stream is one analogue's trace drawn block by block from its executor:
// the records Trace(n) materializes, yielded in recycled blocks of
// trace.DefaultChunkRecords, with the trace header alongside.
type Stream struct {
	*trace.SourceChunks
	// Name and StaticCondSites are the header Trace would carry.
	Name            string
	StaticCondSites int
}

// Stream builds the program and returns a stream of its first n executed
// instructions.
func (s Spec) Stream(n int) (*Stream, error) {
	p, err := s.Program()
	if err != nil {
		return nil, err
	}
	e, err := exec.New(p, s.Seed^execSeedMix)
	if err != nil {
		return nil, err
	}
	return &Stream{
		SourceChunks:    trace.NewSourceChunks(e, n, trace.DefaultChunkRecords),
		Name:            p.Name,
		StaticCondSites: p.StaticCondSites(),
	}, nil
}

// MustTrace is Trace that panics on error, for benchmarks and examples
// using the built-in specs (which are tested to build).
func (s Spec) MustTrace(n int) *trace.Trace {
	t, err := s.Trace(n)
	if err != nil {
		panic(err)
	}
	return t
}

// The six analogues of the paper's Table 1. Comments give the measured
// targets from the paper: %Breaks / %Taken / breaks mix CBr,IJ,Br,Call,Ret
// / Q-50 / static sites, and the qualitative character the parameters
// encode. EXPERIMENTS.md records how close the generated traces land.

// Doduc is the doduc analogue: a FORTRAN nuclear-reactor kernel —
// loop-dominated numeric code where three branch sites cover half of all
// executed conditionals (Q-50 = 3), breaks are sparse (8.5%), taken sits
// near 49%, and most of the 7073 static sites almost never execute.
func Doduc() Spec {
	return Spec{
		Name: "doduc-like",
		Seed: 0xd0d0c,
		Params: Params{
			NumProcs: 300, ColdFrac: 0.72,
			SegmentsMin: 4, SegmentsMax: 7,
			StraightMin: 6, StraightMax: 12,
			MaxDepth: 2,
			WLoop:    1.1, WIf: 1.0, WCall: 1.6, WRecur: 0,
			WSwitch: 0.002, WColdGuard: 0.2, WStraight: 1.0,
			TripMin: 8, TripMax: 24, WhileFrac: 0.12, WhileP: 0.85,
			LoopVolCap:    60,
			BiasPool:      []float64{0.03, 0.06, 0.1, 0.15, 0.9},
			PatternFrac:   0.05,
			ElseFrac:      0.05,
			CallZipfAlpha: 1.1, RecurP: 0, CallLoopFrac: 0.5,
			ColdGuardP:     0.02,
			SwitchCasesMin: 3, SwitchCasesMax: 5, SwitchSticky: 0.7, SwitchZipfAlpha: 1.0,
			DriverCalls: 60, DriverLoopTrip: 2, PassInsns: 60000, SubtreeBudget: 1200,
			HotLoopTrips: []int{15, 12, 8}, HotLoopLen: 14,
		},
	}
}

// Espresso is the espresso analogue: PLA minimization — tight loop nests of
// bit operations, almost all breaks conditional (93% CBr), very few calls,
// a small hot working set (low i-cache miss rate), taken 62%, Q-50 = 44.
func Espresso() Spec {
	return Spec{
		Name: "espresso-like",
		Seed: 0xe59,
		Params: Params{
			NumProcs: 200, ColdFrac: 0.65,
			SegmentsMin: 3, SegmentsMax: 6,
			StraightMin: 2, StraightMax: 5,
			MaxDepth: 3,
			WLoop:    1.6, WIf: 1.6, WCall: 1.1, WRecur: 0,
			WSwitch: 0.006, WColdGuard: 0.04, WStraight: 0.6,
			TripMin: 10, TripMax: 48, WhileFrac: 0.12, WhileP: 0.9,
			LoopVolCap:    120,
			BiasPool:      []float64{0.03, 0.06, 0.1, 0.9, 0.95},
			PatternFrac:   0.05,
			ElseFrac:      0.10,
			CallZipfAlpha: 0.4, RecurP: 0, CallLoopFrac: 0.2,
			ColdGuardP:     0.02,
			SwitchCasesMin: 3, SwitchCasesMax: 5, SwitchSticky: 0.7, SwitchZipfAlpha: 1.0,
			DriverCalls: 120, DriverLoopTrip: 4, PassInsns: 100000, SubtreeBudget: 1500,
		},
	}
}

// Gcc is the gcc analogue: a compiler — a large, flat instruction footprint
// (high i-cache miss rate), thousands of moderately hot conditional sites
// (Q-50 = 245, static 16294), short blocks, indirect jumps from jump
// tables, hard-to-predict branches.
func Gcc() Spec {
	return Spec{
		Name: "gcc-like",
		Seed: 0x9cc,
		Params: Params{
			NumProcs: 1000, ColdFrac: 0.5,
			SegmentsMin: 5, SegmentsMax: 10,
			StraightMin: 3, StraightMax: 7,
			MaxDepth: 3,
			WLoop:    0.5, WIf: 2.2, WCall: 1.8, WRecur: 0.06,
			WSwitch: 0.15, WColdGuard: 0.3, WStraight: 0.7,
			TripMin: 8, TripMax: 16, WhileFrac: 0.1, WhileP: 0.85,
			LoopVolCap:    18,
			BiasPool:      []float64{0.04, 0.06, 0.1, 0.12, 0.88, 0.94},
			PatternFrac:   0.03,
			ElseFrac:      0.08,
			CallZipfAlpha: 0.3, RecurP: 0.35, CallLoopFrac: 0.3,
			ColdGuardP:     0.05,
			SwitchCasesMin: 4, SwitchCasesMax: 10, SwitchSticky: 0.4, SwitchZipfAlpha: 0.9,
			DriverCalls: 250, DriverLoopTrip: 2, PassInsns: 150000, SubtreeBudget: 2000,
		},
	}
}

// Li is the li analogue: a Lisp interpreter — very call-heavy (26% of
// breaks are calls+returns), recursive evaluation, a small hot core
// (Q-50 = 16), indirect dispatch on expression type, taken 47%.
func Li() Spec {
	return Spec{
		Name: "li-like",
		Seed: 0x11,
		Params: Params{
			NumProcs: 260, ColdFrac: 0.6,
			SegmentsMin: 2, SegmentsMax: 4,
			StraightMin: 2, StraightMax: 5,
			MaxDepth: 2,
			WLoop:    0.7, WIf: 1.8, WCall: 1.5, WRecur: 0.45,
			WSwitch: 0.07, WColdGuard: 0.08, WStraight: 0.5,
			TripMin: 8, TripMax: 16, WhileFrac: 0.12, WhileP: 0.8,
			LoopVolCap:    50,
			BiasPool:      []float64{0.05, 0.1, 0.15, 0.85, 0.9},
			PatternFrac:   0.05,
			ElseFrac:      0.15,
			CallZipfAlpha: 0.8, RecurP: 0.4, CallLoopFrac: 0.6,
			ColdGuardP:     0.04,
			SwitchCasesMin: 4, SwitchCasesMax: 8, SwitchSticky: 0.5, SwitchZipfAlpha: 1.0,
			DriverCalls: 40, DriverLoopTrip: 4, PassInsns: 60000, SubtreeBudget: 900,
			InterpOps: 24, InterpLen: 5, InterpTrip: 32,
		},
	}
}

// Cfront is the cfront analogue: the AT&T C++-to-C translator — the largest
// static footprint of the traced programs (17565 sites), compiler-like
// branch behaviour, more calls than gcc (8.7% / 9.3%).
func Cfront() Spec {
	return Spec{
		Name: "cfront-like",
		Seed: 0xcf,
		Params: Params{
			NumProcs: 1200, ColdFrac: 0.55,
			SegmentsMin: 3, SegmentsMax: 6,
			StraightMin: 3, StraightMax: 7,
			MaxDepth: 3,
			WLoop:    0.6, WIf: 1.8, WCall: 3.2, WRecur: 0.1,
			WSwitch: 0.2, WColdGuard: 0.28, WStraight: 0.7,
			TripMin: 8, TripMax: 24, WhileFrac: 0.15, WhileP: 0.85,
			LoopVolCap:    20,
			BiasPool:      []float64{0.05, 0.08, 0.12, 0.15, 0.5, 0.9},
			PatternFrac:   0.04,
			ElseFrac:      0.18,
			CallZipfAlpha: 0.5, RecurP: 0.3, CallLoopFrac: 0.6,
			ColdGuardP:     0.05,
			SwitchCasesMin: 3, SwitchCasesMax: 8, SwitchSticky: 0.5, SwitchZipfAlpha: 0.9,
			DriverCalls: 250, DriverLoopTrip: 2, PassInsns: 150000, SubtreeBudget: 1600,
			InterpOps: 16, InterpLen: 6, InterpTrip: 12,
		},
	}
}

// Groff is the groff analogue: the C++ troff reimplementation — the most
// indirect jumps of any traced program (4.8%, virtual dispatch), many
// returns, a large-but-not-gcc-sized footprint (7434 sites, Q-50 = 107).
func Groff() Spec {
	return Spec{
		Name: "groff-like",
		Seed: 0x960ff,
		Params: Params{
			NumProcs: 650, ColdFrac: 0.5,
			SegmentsMin: 3, SegmentsMax: 6,
			StraightMin: 3, StraightMax: 7,
			MaxDepth: 3,
			WLoop:    0.7, WIf: 1.5, WCall: 3.0, WRecur: 0.08,
			WSwitch: 0.25, WColdGuard: 0.22, WStraight: 0.7,
			TripMin: 8, TripMax: 24, WhileFrac: 0.15, WhileP: 0.85,
			LoopVolCap:    24,
			BiasPool:      []float64{0.05, 0.1, 0.15, 0.85, 0.9},
			PatternFrac:   0.04,
			ElseFrac:      0.08,
			CallZipfAlpha: 0.35, RecurP: 0.25, CallLoopFrac: 0.6,
			ColdGuardP:     0.05,
			SwitchCasesMin: 4, SwitchCasesMax: 10, SwitchSticky: 0.6, SwitchZipfAlpha: 0.8,
			DriverCalls: 180, DriverLoopTrip: 2, PassInsns: 120000, SubtreeBudget: 1400,
			InterpOps: 30, InterpLen: 6, InterpTrip: 24,
		},
	}
}

// All returns the six analogues in the paper's Table 1 order.
func All() []Spec {
	return []Spec{Doduc(), Espresso(), Gcc(), Li(), Cfront(), Groff()}
}

// ByName returns the analogue with the given name (with or without the
// "-like" suffix), or false.
func ByName(name string) (Spec, bool) {
	for _, s := range All() {
		if s.Name == name || s.Name == name+"-like" {
			return s, true
		}
	}
	return Spec{}, false
}
