package pht

import (
	"fmt"
	"math"
	"math/bits"

	"repro/internal/isa"
)

// TAGE-lite: a tagged-geometric-history direction predictor, the one
// Predictor that uses the protocol's speculative half (DESIGN.md §13).
// The shape is Seznec's TAGE reduced to its load-bearing parts: a bimodal
// base table plus a few tagged tables indexed by geometrically increasing
// slices of a speculative global history register, provider = longest
// matching history, allocate-on-mispredict governed by usefulness
// counters. What the lite version drops (alternate-prediction confidence,
// periodic u reset, randomized allocation) it drops for determinism —
// every simulation must replay bit-identically.
//
// Speculative state: Predict shifts the *predicted* outcome into the
// history register and checkpoints the pre-shift history plus everything
// the matching Resolve needs (per-table indices/tags, provider, both
// predictions). Resolve repairs the register from the checkpoint when the
// guess was wrong or a wrong-path excursion poisoned it; WrongPath models
// that poisoning by shifting wrong-path bits in, unwound at the next
// Resolve or Predict (the fetch redirect).

// Caps on every TAGEConfig field that sizes an allocation. TAGE specs
// arrive from untrusted JSON via arch.PHTSpec, whose Validate delegates to
// TAGEConfig.Validate — so the bounds live here, next to the allocations
// they protect.
const (
	// MaxTAGETables bounds the number of tagged tables.
	MaxTAGETables = 8
	// MaxTAGEEntries bounds the base table and each tagged table.
	MaxTAGEEntries = 1 << 22
	// MaxTAGEHistory bounds the geometric history lengths (the history
	// register is one 64-bit word).
	MaxTAGEHistory = 64
	// MinTAGETagBits and MaxTAGETagBits bound the per-entry tag width.
	MinTAGETagBits = 4
	MaxTAGETagBits = 16
)

// tageCkptRing is the checkpoint ring depth — comfortably above the one
// in-flight prediction the frontend's break pipeline produces, so resolves
// arriving in order can never miss their checkpoint.
const tageCkptRing = 16

// TAGEConfig sizes a TAGE-lite predictor.
type TAGEConfig struct {
	// BaseEntries sizes the bimodal base table (2-bit counters).
	BaseEntries int
	// Tables is the number of tagged tables; Entries sizes each one.
	Tables  int
	Entries int
	// TagBits is the per-entry partial tag width.
	TagBits int
	// MinHist and MaxHist are the shortest and longest geometric history
	// lengths; intermediate tables interpolate geometrically.
	MinHist int
	MaxHist int
}

// Validate rejects any configuration whose construction would misbehave —
// the error-returning gate arch.PHTSpec.Validate surfaces, so a hostile
// spec can never panic (or size an unbounded allocation in) a serve
// worker.
func (c TAGEConfig) Validate() error {
	if err := CheckEntries(c.BaseEntries); err != nil {
		return fmt.Errorf("tage base: %w", err)
	}
	if c.BaseEntries > MaxTAGEEntries {
		return fmt.Errorf("pht: tage base entries %d exceeds the %d cap", c.BaseEntries, MaxTAGEEntries)
	}
	if err := CheckEntries(c.Entries); err != nil {
		return fmt.Errorf("tage tables: %w", err)
	}
	if c.Entries > MaxTAGEEntries {
		return fmt.Errorf("pht: tage entries %d exceeds the %d cap", c.Entries, MaxTAGEEntries)
	}
	if c.Tables < 1 || c.Tables > MaxTAGETables {
		return fmt.Errorf("pht: tage tables %d out of range [1, %d]", c.Tables, MaxTAGETables)
	}
	if c.TagBits < MinTAGETagBits || c.TagBits > MaxTAGETagBits {
		return fmt.Errorf("pht: tage tag_bits %d out of range [%d, %d]", c.TagBits, MinTAGETagBits, MaxTAGETagBits)
	}
	if c.MinHist < 1 || c.MaxHist < c.MinHist || c.MaxHist > MaxTAGEHistory {
		return fmt.Errorf("pht: tage history lengths [%d, %d] out of range [1, %d]",
			c.MinHist, c.MaxHist, MaxTAGEHistory)
	}
	if c.Tables > 1 && c.MinHist == c.MaxHist {
		return fmt.Errorf("pht: tage needs min_hist < max_hist for %d tables", c.Tables)
	}
	return nil
}

// histLens returns the geometric history-length series, strictly
// increasing from MinHist to MaxHist. Deterministic: same config, same
// lengths.
func (c TAGEConfig) histLens() []int {
	lens := make([]int, c.Tables)
	lens[0] = c.MinHist
	if c.Tables == 1 {
		lens[0] = c.MaxHist
		return lens
	}
	r := math.Pow(float64(c.MaxHist)/float64(c.MinHist), 1/float64(c.Tables-1))
	for i := 1; i < c.Tables; i++ {
		l := int(math.Round(float64(c.MinHist) * math.Pow(r, float64(i))))
		if l <= lens[i-1] {
			l = lens[i-1] + 1
		}
		lens[i] = l
	}
	lens[c.Tables-1] = c.MaxHist
	return lens
}

// SizeBits returns the modelled storage cost: the base counters, each
// tagged entry's tag + 3-bit counter + 2-bit usefulness, and the history
// register. (The Go-side valid flag models the hardware's reserved
// tag/usefulness encodings and costs no modelled bits.)
func (c TAGEConfig) SizeBits() int {
	return 2*c.BaseEntries + c.Tables*c.Entries*(c.TagBits+3+2) + c.MaxHist
}

// tageEntry is one tagged-table entry.
type tageEntry struct {
	tag   uint16
	ctr   uint8 // 3-bit saturating, taken if >= 4
	u     uint8 // 2-bit usefulness
	valid bool
}

// tageCkpt is the per-prediction checkpoint Resolve repairs from.
type tageCkpt struct {
	tok       Token
	hist      uint64 // history before the speculative shift
	idx       [MaxTAGETables]uint32
	tag       [MaxTAGETables]uint16
	provider  int8 // tagged table that provided, -1 = base
	predTaken bool
	altTaken  bool
}

// TAGE is the TAGE-lite predictor. Its Predict opens speculative history
// that only the matching Resolve repairs.
type TAGE struct {
	cfg     TAGEConfig
	lens    []int
	base    []uint8
	tables  [][]tageEntry
	idxBits int
	idxMask uint32
	tagMask uint16
	ckpt    [tageCkptRing]tageCkpt
	seq     Token

	hist uint64 // speculative global history, newest outcome at bit 0

	// Wrong-path poison bookkeeping: prePoison holds the history to
	// unwind to when poisonDepth > 0 (see WrongPath).
	prePoison   uint64
	poisonDepth int
}

// NewTAGE builds a TAGE-lite predictor, rejecting invalid configurations
// with an error rather than a panic — this constructor sits on the
// untrusted-spec path.
func NewTAGE(cfg TAGEConfig) (*TAGE, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	t := &TAGE{
		cfg:     cfg,
		lens:    cfg.histLens(),
		base:    make([]uint8, cfg.BaseEntries),
		tables:  make([][]tageEntry, cfg.Tables),
		idxBits: bits.TrailingZeros(uint(cfg.Entries)),
		idxMask: uint32(cfg.Entries - 1),
		tagMask: uint16(1<<uint(cfg.TagBits) - 1),
	}
	for i := range t.tables {
		t.tables[i] = make([]tageEntry, cfg.Entries)
	}
	t.Reset()
	return t, nil
}

// MustTAGE is NewTAGE panicking on error, for static configurations in
// tests and examples.
func MustTAGE(cfg TAGEConfig) *TAGE {
	t, err := NewTAGE(cfg)
	if err != nil {
		panic(err)
	}
	return t
}

// HistLens exposes the geometric history lengths (for reports and tests).
func (t *TAGE) HistLens() []int { return append([]int(nil), t.lens...) }

// fold compresses the low histLen bits of h into outBits by XOR-folding.
func fold(h uint64, histLen, outBits int) uint32 {
	if histLen < 64 {
		h &= 1<<uint(histLen) - 1
	}
	var f uint64
	m := uint64(1)<<uint(outBits) - 1
	for h != 0 {
		f ^= h & m
		h >>= uint(outBits)
	}
	return uint32(f)
}

// slot computes table i's index and tag for pc under history h.
func (t *TAGE) slot(i int, pc isa.Addr, h uint64) (uint32, uint16) {
	w := pc.Word()
	idx := (w ^ w>>uint(t.idxBits) ^ fold(h, t.lens[i], t.idxBits) ^ uint32(i)) & t.idxMask
	tag := uint16(w^fold(h, t.lens[i], t.cfg.TagBits)^fold(h, t.lens[i], t.cfg.TagBits-1)<<1) & t.tagMask
	return idx, tag
}

func (t *TAGE) baseIdx(pc isa.Addr) uint32 {
	return pc.Word() & uint32(t.cfg.BaseEntries-1)
}

// lookup evaluates the prediction for pc under history h, filling the
// checkpoint's per-table slots when ck is non-nil. The provider is the
// longest-history tag match; the alternative is the next match below it,
// falling back to the bimodal base.
func (t *TAGE) lookup(pc isa.Addr, h uint64, ck *tageCkpt) (predTaken, altTaken bool, provider int8) {
	var idxs [MaxTAGETables]uint32
	provider, alt := int8(-1), int8(-1)
	for i := t.cfg.Tables - 1; i >= 0; i-- {
		idx, tag := t.slot(i, pc, h)
		idxs[i] = idx
		if ck != nil {
			ck.idx[i], ck.tag[i] = idx, tag
		}
		e := &t.tables[i][idx]
		if e.valid && e.tag == tag {
			if provider < 0 {
				provider = int8(i)
			} else if alt < 0 {
				alt = int8(i)
			}
		}
	}
	baseTaken := counterTaken(t.base[t.baseIdx(pc)])
	predTaken, altTaken = baseTaken, baseTaken
	if alt >= 0 {
		altTaken = t.tables[alt][idxs[alt]].ctr >= 4
	}
	if provider >= 0 {
		predTaken = t.tables[provider][idxs[provider]].ctr >= 4
	}
	return predTaken, altTaken, provider
}

// Predict implements Predictor: evaluate the tables under the
// current speculative history, checkpoint, and shift the predicted outcome
// in.
func (t *TAGE) Predict(pc isa.Addr) (bool, Token) {
	// A wrong-path excursion with no conditional in flight is unwound by
	// the redirect that precedes the next prediction.
	if t.poisonDepth > 0 {
		t.hist = t.prePoison
		t.poisonDepth = 0
	}
	t.seq++
	tok := t.seq
	ck := &t.ckpt[tok%tageCkptRing]
	*ck = tageCkpt{tok: tok, hist: t.hist}
	predTaken, altTaken, provider := t.lookup(pc, t.hist, ck)
	ck.predTaken, ck.altTaken, ck.provider = predTaken, altTaken, provider
	t.hist <<= 1
	if predTaken {
		t.hist |= 1
	}
	return predTaken, tok
}

// Query implements Predictor: the prediction Predict would make
// for pc right now, as a pure read — no checkpoint, no history shift.
func (t *TAGE) Query(pc isa.Addr) bool {
	predTaken, _, _ := t.lookup(pc, t.hist, nil)
	return predTaken
}

// Resolve implements Predictor: train on the actual outcome of
// the prediction issued under tok and repair the speculative history if
// the predicted bit was wrong or a wrong-path excursion poisoned it.
func (t *TAGE) Resolve(pc isa.Addr, tok Token, taken bool) {
	ck := &t.ckpt[tok%tageCkptRing]
	if ck.tok != tok {
		// Checkpoint lost (overwritten by deeper speculation than the
		// ring holds, or a stale token). Degrade gracefully: train the
		// base table, leave history alone — never panic.
		bi := t.baseIdx(pc)
		t.base[bi] = counterUpdate(t.base[bi], taken)
		return
	}
	ck.tok = 0 // consume

	mispred := ck.predTaken != taken

	// Train the provider (3-bit counter), or the base table when no
	// tagged table provided.
	if p := int(ck.provider); p >= 0 {
		e := &t.tables[p][ck.idx[p]]
		e.ctr = ctr3Update(e.ctr, taken)
		// Usefulness tracks "provider beat the alternative".
		if ck.predTaken != ck.altTaken {
			if ck.predTaken == taken {
				if e.u < 3 {
					e.u++
				}
			} else if e.u > 0 {
				e.u--
			}
		}
	} else {
		bi := t.baseIdx(pc)
		t.base[bi] = counterUpdate(t.base[bi], taken)
	}

	// Allocate a longer-history entry on a mispredict: first table above
	// the provider whose slot is not useful; if all are defending their
	// state, age them instead (Seznec's u-decrement on allocation
	// failure). Deterministic first-fit replaces the hardware LFSR.
	if mispred && int(ck.provider) < t.cfg.Tables-1 {
		allocated := false
		for j := int(ck.provider) + 1; j < t.cfg.Tables; j++ {
			e := &t.tables[j][ck.idx[j]]
			if !e.valid || e.u == 0 {
				*e = tageEntry{tag: ck.tag[j], ctr: ctr3Weak(taken), valid: true}
				allocated = true
				break
			}
		}
		if !allocated {
			for j := int(ck.provider) + 1; j < t.cfg.Tables; j++ {
				e := &t.tables[j][ck.idx[j]]
				if e.u > 0 {
					e.u--
				}
			}
		}
	}

	// History repair: the checkpoint predates both the speculative shift
	// and any wrong-path poison, so one restore fixes both. When the
	// prediction was right and nothing was poisoned, the register already
	// holds exactly this value — leaving it untouched keeps overlapped
	// (pending-resolve) prediction sequences intact.
	if mispred || t.poisonDepth > 0 {
		t.hist = ck.hist << 1
		if taken {
			t.hist |= 1
		}
		t.poisonDepth = 0
	}
}

// WrongPath implements Predictor: a wrong-path fetch shifts a
// bogus "outcome" derived from the fetched address into the speculative
// history, modelling the corruption a real front end's speculative history
// register suffers until recovery. The pre-poison history is kept so the
// next Resolve (mispredict recovery) or Predict (fetch redirect) unwinds
// it exactly.
func (t *TAGE) WrongPath(addr isa.Addr) {
	if t.poisonDepth == 0 {
		t.prePoison = t.hist
	}
	t.poisonDepth++
	t.hist = t.hist<<1 | uint64(addr.Word()&1)
}

// SizeBits implements Predictor.
func (t *TAGE) SizeBits() int { return t.cfg.SizeBits() }

// Name implements Predictor.
func (t *TAGE) Name() string {
	return fmt.Sprintf("tage-%dx%d+b%d", t.cfg.Tables, t.cfg.Entries, t.cfg.BaseEntries)
}

// Reset implements Predictor.
func (t *TAGE) Reset() {
	for i := range t.base {
		t.base[i] = counterInit
	}
	for _, tbl := range t.tables {
		for i := range tbl {
			tbl[i] = tageEntry{}
		}
	}
	t.ckpt = [tageCkptRing]tageCkpt{}
	t.seq = 0
	t.hist = 0
	t.prePoison = 0
	t.poisonDepth = 0
}

// ctr3Update saturates a 3-bit counter toward the outcome.
func ctr3Update(c uint8, taken bool) uint8 {
	if taken {
		if c < 7 {
			return c + 1
		}
		return 7
	}
	if c > 0 {
		return c - 1
	}
	return 0
}

// ctr3Weak returns the weak 3-bit state agreeing with the outcome, the
// allocation value for a fresh entry.
func ctr3Weak(taken bool) uint8 {
	if taken {
		return 4
	}
	return 3
}
