package fetch

import (
	"math/bits"

	"repro/internal/btb"
	"repro/internal/cache"
	"repro/internal/isa"
	"repro/internal/ras"
	"repro/internal/trace"
)

// coupledBTBPredictor implements TargetPredictor for the *coupled* BTB
// design of §2 — the Intel Pentium organization: each BTB entry carries its
// own 2-bit saturating direction counter, so dynamic direction prediction
// exists only for branches resident in the BTB; a conditional that misses
// the BTB falls back to static not-taken prediction
// (Traits{CoupledDirection}).
//
// The paper (and its predecessor, Calder & Grunwald 1994) uses this design
// as the baseline that the decoupled PHT improves on: under BTB capacity
// pressure, evicting an entry also forgets the branch's direction history.
// This predictor exists for that ablation; the paper's own BTB results use
// the decoupled btbPredictor.
type coupledBTBPredictor struct {
	cfg     btb.Config
	sets    int
	setMask uint32
	rstack  *ras.Stack

	tags    []uint32
	targets []isa.Addr
	kinds   []isa.Kind
	counter []uint8 // 2-bit saturating, >=2 predicts taken
	valid   []bool
	stamp   []uint64
	clock   uint64

	// The slot found by the last Lookup (-1 on a miss), consumed by the
	// counter update and by WrongPath.
	lastSlot int

	// track records which PCs ever entered the BTB, for cause attribution
	// only (nil until a probe enables tracking).
	track trainedSet
}

func newCoupledBTBPredictor(cfg btb.Config, rstack *ras.Stack) *coupledBTBPredictor {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	sets := cfg.Entries / cfg.Assoc
	return &coupledBTBPredictor{
		cfg:     cfg,
		sets:    sets,
		setMask: uint32(sets - 1),
		rstack:  rstack,
		tags:    make([]uint32, cfg.Entries),
		targets: make([]isa.Addr, cfg.Entries),
		kinds:   make([]isa.Kind, cfg.Entries),
		counter: make([]uint8, cfg.Entries),
		valid:   make([]bool, cfg.Entries),
		stamp:   make([]uint64, cfg.Entries),
	}
}

func (p *coupledBTBPredictor) setOf(pc isa.Addr) int { return int(pc.Word() & p.setMask) }

func (p *coupledBTBPredictor) tagOf(pc isa.Addr) uint32 {
	t := pc.Word()
	for s := p.sets; s > 1; s >>= 1 {
		t >>= 1
	}
	return t
}

// find returns the slot index of pc's entry, or -1.
func (p *coupledBTBPredictor) find(pc isa.Addr) int {
	set, tag := p.setOf(pc), p.tagOf(pc)
	for w := 0; w < p.cfg.Assoc; w++ {
		s := set*p.cfg.Assoc + w
		if p.valid[s] && p.tags[s] == tag {
			return s
		}
	}
	return -1
}

// insert allocates (or refreshes) an entry for a taken branch.
func (p *coupledBTBPredictor) insert(pc, target isa.Addr, kind isa.Kind) int {
	p.clock++
	set, tag := p.setOf(pc), p.tagOf(pc)
	victim, victimStamp := set*p.cfg.Assoc, ^uint64(0)
	for w := 0; w < p.cfg.Assoc; w++ {
		s := set*p.cfg.Assoc + w
		if p.valid[s] && p.tags[s] == tag {
			p.targets[s] = target
			p.kinds[s] = kind
			p.stamp[s] = p.clock
			return s
		}
		if !p.valid[s] {
			if victimStamp != 0 {
				victim, victimStamp = s, 0
			}
			continue
		}
		if p.stamp[s] < victimStamp {
			victim, victimStamp = s, p.stamp[s]
		}
	}
	p.tags[victim] = tag
	p.targets[victim] = target
	p.kinds[victim] = kind
	// New entries start weakly taken: the branch just executed taken.
	p.counter[victim] = 2
	p.valid[victim] = true
	p.stamp[victim] = p.clock
	return victim
}

// Lookup implements TargetPredictor.
func (p *coupledBTBPredictor) Lookup(rec trace.Record, _, _ int, _ bool) Outcome {
	slot := p.find(rec.PC)
	if slot >= 0 {
		p.clock++
		p.stamp[slot] = p.clock
	}
	p.lastSlot = slot
	hit := slot >= 0

	// Coupled prediction: the entry's counter if present, static
	// not-taken otherwise — the defining weakness (§2: "branches that
	// miss in the BTB must use less accurate static prediction").
	dirTaken := hit && p.counter[slot] >= 2

	var correct bool
	switch rec.Kind {
	case isa.CondBranch:
		correct = dirTaken == rec.Taken && (!rec.Taken || hit)
	case isa.UncondBranch, isa.Call:
		correct = hit
	case isa.IndirectJump:
		correct = hit && p.targets[slot] == rec.Target
	case isa.Return:
		top, ok := p.rstack.Top()
		correct = hit && ok && top == rec.Target
	}
	return Outcome{Correct: correct, Followed: hit, DirTaken: dirTaken}
}

// Update implements TargetPredictor: train the resident entry's direction
// counter, then allocate/refresh on taken (§2); full addresses need no
// deferral.
func (p *coupledBTBPredictor) Update(rec trace.Record) bool {
	if rec.Kind == isa.CondBranch && p.lastSlot >= 0 {
		if rec.Taken {
			if p.counter[p.lastSlot] < 3 {
				p.counter[p.lastSlot]++
			}
		} else if p.counter[p.lastSlot] > 0 {
			p.counter[p.lastSlot]--
		}
	}
	if rec.Taken {
		p.track.mark(rec.PC)
		p.insert(rec.PC, rec.Target, rec.Kind)
	}
	return false
}

// Resolve implements TargetPredictor (never deferred).
func (p *coupledBTBPredictor) Resolve(trace.Record, int) {}

// enableTracking implements causeExplainer.
func (p *coupledBTBPredictor) enableTracking() {
	if p.track == nil {
		p.track = make(trainedSet)
	}
}

// lastCause implements causeExplainer. The coupled design's defining
// weakness shows up here: a displaced entry loses the branch's direction
// history along with its target, so a previously-inserted branch that
// misses classifies as conflict loss, not cold. Conditional direction
// errors on a hit are left to the frontend's DirWrong labeling.
func (p *coupledBTBPredictor) lastCause(rec trace.Record, _ bool) Cause {
	if p.lastSlot < 0 {
		if p.track.has(rec.PC) {
			return CauseBTBConflict
		}
		return CauseCold
	}
	if rec.Kind == isa.CondBranch {
		return CauseNone // frontend labels the coupled counter's DirWrong
	}
	return CauseWrongTarget
}

// WrongPath implements TargetPredictor, approximating the wrong-path fetch
// as the predicted target on a hit, the fall-through otherwise.
func (p *coupledBTBPredictor) WrongPath(rec trace.Record) (isa.Addr, bool) {
	if p.lastSlot >= 0 {
		return p.targets[p.lastSlot], true
	}
	return rec.PC.Next(), true
}

// Name implements TargetPredictor.
func (p *coupledBTBPredictor) Name() string { return "coupled " + p.cfg.String() }

// SizeBits implements TargetPredictor: the decoupled BTB's cost per entry
// (see btb.BTB.SizeBits) plus the 2-bit coupled direction counter.
func (p *coupledBTBPredictor) SizeBits() int {
	tagBits := 30 - bits.TrailingZeros(uint(p.sets))
	return p.cfg.Entries * (tagBits + 30 + 3 + 1 + 2)
}

// Reset implements TargetPredictor.
func (p *coupledBTBPredictor) Reset() {
	for i := range p.valid {
		p.valid[i] = false
		p.stamp[i] = 0
	}
	p.clock = 0
	p.lastSlot = -1
	if p.track != nil {
		clear(p.track)
	}
}

// NewCoupledBTBEngine builds the coupled (Pentium-style) BTB architecture:
// a Frontend driven by a coupledBTBPredictor.
func NewCoupledBTBEngine(g cache.Geometry, cfg btb.Config, rasDepth int) *Frontend {
	f := newFrontend(g, noDir{}, rasDepth)
	f.bind(newCoupledBTBPredictor(cfg, f.rstack), Traits{CoupledDirection: true})
	return f
}
