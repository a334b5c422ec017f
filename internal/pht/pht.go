// Package pht implements the conditional-branch direction predictors used by
// both the NLS and BTB fetch architectures.
//
// The paper's decoupled design keeps direction prediction in a pattern
// history table (PHT) separate from the target predictor, so that every
// conditional branch — including ones that miss in the BTB or have an
// invalid NLS entry — gets a dynamic prediction. The paper's configuration
// is McFarling's two-level scheme (gshare): the global history register
// XORed with the program counter indexes a 4096-entry table of 2-bit
// saturating counters (§3). The other predictors here support the ablation
// study: the pure-global degenerate scheme of Pan et al. (GAs), a
// per-address bimodal table, a one-bit table (as coupled to the TFP/R8000
// NLS-cache), and static predictors.
package pht

import (
	"fmt"
	"math/bits"

	"repro/internal/isa"
)

// Token identifies one in-flight Predict so the matching Resolve can find
// its checkpoint. Tokens are meaningful only to the predictor that issued
// them; stateless predictors issue (and ignore) zero.
type Token uint64

// Predictor is the direction-prediction protocol the fetch frontend drives
// (DESIGN.md §13), shaped like fetch.TargetPredictor: a Predict that opens
// an in-flight prediction and hands back a token, a Resolve that closes it
// with the architectural outcome, and a WrongPath hook through which the
// frontend reports wrong-path fetches. Call discipline, mirroring the
// simulator's one-break-in-flight pipeline:
//
//   - Predict opens an in-flight prediction for a conditional branch: it
//     may shift the predicted outcome into speculative history and must
//     checkpoint whatever Resolve needs to repair a wrong guess.
//   - Query is a pure read — the prediction Predict would return, with no
//     state opened. The frontend uses it where a direction value feeds
//     target arbitration for breaks that never resolve a direction
//     (aliased tag-less NLS entries consult it for non-conditionals).
//   - Resolve closes the prediction Predict opened under tok: train on the
//     actual outcome and repair speculative history if the guess (or a
//     wrong-path excursion since) corrupted it. Every Predict is resolved
//     exactly once, in order, before the next Predict for the same stream.
//   - WrongPath reports the address of a wrong-path fetch between a
//     Predict and its Resolve (or between breaks); predictors modelling
//     speculative-history corruption poison their history here and repair
//     it at the next Resolve or Predict.
//
// The paper-era schemes (gshare and friends) hold no speculative state:
// their Predict is (Query, 0), Resolve trains the table and shifts the
// resolved outcome into history, and WrongPath does nothing. TAGE-lite
// (tage.go) uses the whole protocol.
type Predictor interface {
	// Predict returns the predicted direction for the conditional branch
	// at pc and a token for the matching Resolve.
	Predict(pc isa.Addr) (taken bool, tok Token)
	// Query returns the prediction for pc without opening any state.
	Query(pc isa.Addr) bool
	// Resolve trains the predictor with the resolved outcome of the
	// prediction issued under tok.
	Resolve(pc isa.Addr, tok Token, taken bool)
	// WrongPath reports a wrong-path fetch at addr.
	WrongPath(addr isa.Addr)
	// SizeBits returns the predictor's storage cost in bits.
	SizeBits() int
	// Name identifies the predictor for reports.
	Name() string
	// Reset restores the initial state.
	Reset()
}

// counter2 operations: 2-bit saturating counter, 0-1 predict not taken,
// 2-3 predict taken. Initialized to 1 (weakly not taken).
const counterInit = 1

func counterTaken(c uint8) bool { return c >= 2 }

func counterUpdate(c uint8, taken bool) uint8 {
	if taken {
		if c < 3 {
			return c + 1
		}
		return 3
	}
	if c > 0 {
		return c - 1
	}
	return 0
}

// CheckEntries validates a predictor table size: a positive power of two.
// It is the single source of truth shared by this package's constructors
// and arch.PHTSpec.Validate, so an untrusted spec is rejected with an
// error before any constructor runs — a hostile spec reaching Build can
// never panic a serve worker.
func CheckEntries(entries int) error {
	if entries <= 0 || bits.OnesCount(uint(entries)) != 1 {
		return fmt.Errorf("pht: entries %d must be a positive power of two", entries)
	}
	return nil
}

// mustEntries guards the direct constructors, where a bad size is a
// programming error: the panic value is the same validated error
// CheckEntries reports.
func mustEntries(entries int) {
	if err := CheckEntries(entries); err != nil {
		panic(err)
	}
}

// GShare is McFarling's combining predictor: index = (PC>>2 XOR global
// history) mod entries, over 2-bit counters. This is the paper's PHT for
// both architectures ("we XOR the global history register with the program
// counter and use this to index into a 4096 entry (1KByte) PHT").
type GShare struct {
	table    []uint8
	history  uint32
	histBits uint
	mask     uint32
}

// NewGShare builds a gshare predictor. histBits is clamped to
// log2(entries); the paper uses a history as wide as the index.
func NewGShare(entries int, histBits int) *GShare {
	mustEntries(entries)
	idxBits := bits.TrailingZeros(uint(entries))
	if histBits <= 0 || histBits > idxBits {
		histBits = idxBits
	}
	g := &GShare{
		table:    make([]uint8, entries),
		histBits: uint(histBits),
		mask:     uint32(entries - 1),
	}
	g.Reset()
	return g
}

func (g *GShare) index(pc isa.Addr) uint32 {
	return (pc.Word() ^ g.history) & g.mask
}

// Predict implements Predictor.
func (g *GShare) Predict(pc isa.Addr) (bool, Token) { return g.Query(pc), 0 }

// Query implements Predictor.
func (g *GShare) Query(pc isa.Addr) bool {
	return counterTaken(g.table[g.index(pc)])
}

// Resolve implements Predictor. The global history shifts in the resolved
// outcome of every conditional branch.
func (g *GShare) Resolve(pc isa.Addr, _ Token, taken bool) {
	i := g.index(pc)
	g.table[i] = counterUpdate(g.table[i], taken)
	g.history = (g.history << 1) & ((1 << g.histBits) - 1)
	if taken {
		g.history |= 1
	}
}

// WrongPath implements Predictor: gshare holds no speculative history.
func (g *GShare) WrongPath(isa.Addr) {}

// SizeBits implements Predictor (2 bits per counter plus the history
// register).
func (g *GShare) SizeBits() int { return 2*len(g.table) + int(g.histBits) }

// Name implements Predictor.
func (g *GShare) Name() string { return fmt.Sprintf("gshare-%d", len(g.table)) }

// StateKey reports a key identifying the predictor's full configuration —
// including the history width, which Name omits — and whether the predictor
// is in its cold (freshly built or Reset) state. The broadcast echo dedup
// (package fetch) uses it to prove that two engines' direction state will
// evolve identically from here on under the same trace.
func (g *GShare) StateKey() (string, bool) {
	if g.history != 0 {
		return "", false
	}
	for _, c := range g.table {
		if c != counterInit {
			return "", false
		}
	}
	return fmt.Sprintf("gshare(%d,%d)", len(g.table), g.histBits), true
}

// AdoptState copies src's counter table and branch history into g when src
// is a GShare of identical configuration, reporting whether the copy
// happened. The broadcast replay trains one engine's predictor to compute
// a direction annotation that every engine of the same configuration reads
// instead of training its own (fetch.BroadcastWorkers); at the end the
// other readers adopt the trained state, so the annotation stays invisible
// to anything that runs the engines afterwards.
func (g *GShare) AdoptState(src Predictor) bool {
	s, ok := src.(*GShare)
	if !ok || len(g.table) != len(s.table) || g.histBits != s.histBits {
		return false
	}
	copy(g.table, s.table)
	g.history = s.history
	return true
}

// Reset implements Predictor.
func (g *GShare) Reset() {
	for i := range g.table {
		g.table[i] = counterInit
	}
	g.history = 0
}

// GAs is the degenerate two-level scheme of Pan et al.: the global history
// register alone indexes the counter table.
type GAs struct {
	table    []uint8
	history  uint32
	histBits uint
}

// NewGAs builds a pure-global two-level predictor with log2(entries) history
// bits.
func NewGAs(entries int) *GAs {
	mustEntries(entries)
	g := &GAs{
		table:    make([]uint8, entries),
		histBits: uint(bits.TrailingZeros(uint(entries))),
	}
	g.Reset()
	return g
}

// Predict implements Predictor.
func (g *GAs) Predict(pc isa.Addr) (bool, Token) { return g.Query(pc), 0 }

// Query implements Predictor.
func (g *GAs) Query(isa.Addr) bool { return counterTaken(g.table[g.history]) }

// Resolve implements Predictor.
func (g *GAs) Resolve(_ isa.Addr, _ Token, taken bool) {
	g.table[g.history] = counterUpdate(g.table[g.history], taken)
	g.history = (g.history << 1) & uint32(len(g.table)-1)
	if taken {
		g.history |= 1
	}
}

// WrongPath implements Predictor: GAs holds no speculative history.
func (g *GAs) WrongPath(isa.Addr) {}

// SizeBits implements Predictor.
func (g *GAs) SizeBits() int { return 2*len(g.table) + int(g.histBits) }

// Name implements Predictor.
func (g *GAs) Name() string { return fmt.Sprintf("GAs-%d", len(g.table)) }

// Reset implements Predictor.
func (g *GAs) Reset() {
	for i := range g.table {
		g.table[i] = counterInit
	}
	g.history = 0
}

// Bimodal is a per-address table of 2-bit counters (Smith's classic
// predictor), indexed by PC alone.
type Bimodal struct {
	table []uint8
	mask  uint32
}

// NewBimodal builds a bimodal predictor.
func NewBimodal(entries int) *Bimodal {
	mustEntries(entries)
	b := &Bimodal{table: make([]uint8, entries), mask: uint32(entries - 1)}
	b.Reset()
	return b
}

// Predict implements Predictor.
func (b *Bimodal) Predict(pc isa.Addr) (bool, Token) { return b.Query(pc), 0 }

// Query implements Predictor.
func (b *Bimodal) Query(pc isa.Addr) bool {
	return counterTaken(b.table[pc.Word()&b.mask])
}

// Resolve implements Predictor.
func (b *Bimodal) Resolve(pc isa.Addr, _ Token, taken bool) {
	i := pc.Word() & b.mask
	b.table[i] = counterUpdate(b.table[i], taken)
}

// WrongPath implements Predictor: no speculative state.
func (b *Bimodal) WrongPath(isa.Addr) {}

// SizeBits implements Predictor.
func (b *Bimodal) SizeBits() int { return 2 * len(b.table) }

// Name implements Predictor.
func (b *Bimodal) Name() string { return fmt.Sprintf("bimodal-%d", len(b.table)) }

// Reset implements Predictor.
func (b *Bimodal) Reset() {
	for i := range b.table {
		b.table[i] = counterInit
	}
}

// OneBit is a per-address table of last-outcome bits — the prediction
// coupled to the TFP (MIPS R8000) NLS-cache entries (§6.2).
type OneBit struct {
	table []bool
	mask  uint32
}

// NewOneBit builds a one-bit last-outcome predictor.
func NewOneBit(entries int) *OneBit {
	mustEntries(entries)
	return &OneBit{table: make([]bool, entries), mask: uint32(entries - 1)}
}

// Predict implements Predictor.
func (o *OneBit) Predict(pc isa.Addr) (bool, Token) { return o.Query(pc), 0 }

// Query implements Predictor.
func (o *OneBit) Query(pc isa.Addr) bool { return o.table[pc.Word()&o.mask] }

// Resolve implements Predictor.
func (o *OneBit) Resolve(pc isa.Addr, _ Token, taken bool) { o.table[pc.Word()&o.mask] = taken }

// WrongPath implements Predictor: no speculative state.
func (o *OneBit) WrongPath(isa.Addr) {}

// SizeBits implements Predictor.
func (o *OneBit) SizeBits() int { return len(o.table) }

// Name implements Predictor.
func (o *OneBit) Name() string { return fmt.Sprintf("1bit-%d", len(o.table)) }

// Reset implements Predictor.
func (o *OneBit) Reset() {
	for i := range o.table {
		o.table[i] = false
	}
}

// Static predicts a fixed direction for every branch.
type Static struct {
	Taken bool
}

// Predict implements Predictor.
func (s Static) Predict(isa.Addr) (bool, Token) { return s.Taken, 0 }

// Query implements Predictor.
func (s Static) Query(isa.Addr) bool { return s.Taken }

// Resolve implements Predictor (no state).
func (s Static) Resolve(isa.Addr, Token, bool) {}

// WrongPath implements Predictor (no state).
func (s Static) WrongPath(isa.Addr) {}

// SizeBits implements Predictor.
func (s Static) SizeBits() int { return 0 }

// Name implements Predictor.
func (s Static) Name() string {
	if s.Taken {
		return "static-taken"
	}
	return "static-not-taken"
}

// Reset implements Predictor (no state).
func (s Static) Reset() {}
