package cfg

import (
	"strings"
	"testing"

	"repro/internal/isa"
)

// twoProc builds a tiny valid program: main calls helper inside a loop.
func twoProc(t *testing.T) *Program {
	t.Helper()
	p, err := BuildProgram("two", 0,
		[]string{"main", "helper"},
		[][]Stmt{
			{
				Straight{N: 3},
				Loop{Trip: 4, Body: []Stmt{
					Straight{N: 2},
					CallTo{Callee: 1},
				}},
			},
			{
				Straight{N: 2},
				If{Cond: BiasBehavior(0.5), Then: []Stmt{Straight{N: 1}}},
			},
		})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestBuildProgramValidatesAndLaysOut(t *testing.T) {
	p := twoProc(t)
	if !p.LaidOut() {
		t.Fatal("program not laid out")
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	if p.NumBlocks() == 0 || p.NumInstrs() == 0 {
		t.Fatal("empty program")
	}
	if p.CodeBytes() != p.NumInstrs()*isa.InstrBytes {
		t.Error("CodeBytes inconsistent")
	}
}

func TestLayoutContiguityAndAlignment(t *testing.T) {
	p := twoProc(t)
	for _, pr := range p.Procs {
		// Procedure entries are 32-byte aligned.
		if uint32(pr.Blocks[0].Addr)%32 != 0 {
			t.Errorf("proc %q entry %v not 32B aligned", pr.Name, pr.Blocks[0].Addr)
		}
		// Blocks are contiguous within the procedure.
		for i := 1; i < len(pr.Blocks); i++ {
			prev := pr.Blocks[i-1]
			want := prev.Addr + isa.Addr(prev.NumInstrs*isa.InstrBytes)
			if pr.Blocks[i].Addr != want {
				t.Errorf("proc %q block %d at %v, want %v", pr.Name, i, pr.Blocks[i].Addr, want)
			}
		}
	}
}

func TestLayoutNoOverlap(t *testing.T) {
	p := twoProc(t)
	type span struct{ lo, hi isa.Addr }
	var spans []span
	for _, pr := range p.Procs {
		first := pr.Blocks[0].Addr
		last := pr.Blocks[len(pr.Blocks)-1]
		spans = append(spans, span{first, last.Addr + isa.Addr(last.NumInstrs*4)})
	}
	for i := 0; i < len(spans); i++ {
		for j := i + 1; j < len(spans); j++ {
			a, b := spans[i], spans[j]
			if a.lo < b.hi && b.lo < a.hi {
				t.Errorf("procs %d and %d overlap: %+v %+v", i, j, a, b)
			}
		}
	}
}

func TestLowerLoopTargetsHead(t *testing.T) {
	pr := LowerProc(0, "p", []Stmt{
		Straight{N: 2},
		Loop{Trip: 3, Body: []Stmt{Straight{N: 1}}},
	})
	// Find the loop backedge.
	var backedge *Block
	var headIdx int
	for i, b := range pr.Blocks {
		if b.Term.Kind == isa.CondBranch {
			backedge = b
			_ = i
		}
	}
	if backedge == nil {
		t.Fatal("no backedge lowered")
	}
	if backedge.Term.Behavior.Kind != BehaviorLoop || backedge.Term.Behavior.Trip != 3 {
		t.Errorf("backedge behavior %+v", backedge.Term.Behavior)
	}
	headIdx = backedge.Term.Target.Index
	// The backedge block itself contains the loop body here (single
	// block loop), so it targets itself.
	if pr.Blocks[headIdx] != backedge {
		t.Errorf("single-block loop should target itself; got block %d", headIdx)
	}
}

func TestLowerIfSkipsThen(t *testing.T) {
	pr := LowerProc(0, "p", []Stmt{
		If{Cond: BiasBehavior(0.5), Then: []Stmt{Straight{N: 5}}},
		Straight{N: 1},
	})
	cond := pr.Blocks[0]
	if cond.Term.Kind != isa.CondBranch {
		t.Fatalf("first block terminator %v", cond.Term.Kind)
	}
	// The taken target is the join: the block after the then-blocks.
	join := cond.Term.Target.Index
	if join != 2 { // block 1 is the 5-insn then-block; block 2 the join
		t.Errorf("taken target block %d, want 2", join)
	}
}

func TestLowerIfElse(t *testing.T) {
	pr := LowerProc(0, "p", []Stmt{
		If{
			Cond: BiasBehavior(0.3),
			Then: []Stmt{Straight{N: 2}},
			Else: []Stmt{Straight{N: 3}},
		},
	})
	cond := pr.Blocks[0]
	elseStart := cond.Term.Target.Index
	// Then-block ends with an unconditional jump over the else.
	overElse := pr.Blocks[elseStart-1]
	if overElse.Term.Kind != isa.UncondBranch {
		t.Fatalf("no jump over else: %v", overElse.Term.Kind)
	}
	join := overElse.Term.Target.Index
	if join <= elseStart {
		t.Errorf("join %d not after else %d", join, elseStart)
	}
	// The join exists (the final Return block).
	if pr.Blocks[join].Term.Kind != isa.Return {
		t.Errorf("join terminator %v", pr.Blocks[join].Term.Kind)
	}
}

func TestLowerSwitch(t *testing.T) {
	pr := LowerProc(0, "p", []Stmt{
		Switch{
			Behavior: Behavior{Kind: BehaviorIndirectWeighted},
			Cases:    [][]Stmt{{Straight{N: 1}}, {Straight{N: 2}}, {}},
		},
	})
	sw := pr.Blocks[0]
	if sw.Term.Kind != isa.IndirectJump {
		t.Fatalf("switch terminator %v", sw.Term.Kind)
	}
	if len(sw.Term.IndirectTargets) != 3 {
		t.Fatalf("indirect targets %d", len(sw.Term.IndirectTargets))
	}
	// Every case's jump lands on the same join.
	var join *BlockID
	for _, tgt := range sw.Term.IndirectTargets {
		// Walk from the case start to its terminating uncond jump.
		idx := tgt.Index
		for pr.Blocks[idx].Term.Kind != isa.UncondBranch {
			idx++
		}
		j := pr.Blocks[idx].Term.Target
		if join == nil {
			join = &j
		} else if *join != j {
			t.Errorf("case joins differ: %v vs %v", *join, j)
		}
	}
}

func TestLowerProcEndsInReturn(t *testing.T) {
	pr := LowerProc(0, "p", []Stmt{Straight{N: 4}})
	last := pr.Blocks[len(pr.Blocks)-1]
	if last.Term.Kind != isa.Return {
		t.Errorf("last terminator %v", last.Term.Kind)
	}
}

func TestValidateRejects(t *testing.T) {
	mk := func(mutate func(p *Program)) error {
		p := &Program{Name: "bad", Procs: []*Proc{
			{Name: "main", Blocks: []*Block{
				{NumInstrs: 1, Term: Term{Kind: isa.Return}},
			}},
		}}
		mutate(p)
		return p.Validate()
	}
	if err := mk(func(p *Program) {}); err != nil {
		t.Fatalf("baseline invalid: %v", err)
	}
	cases := []struct {
		name   string
		mutate func(p *Program)
	}{
		{"no procs", func(p *Program) { p.Procs = nil }},
		{"bad entry", func(p *Program) { p.Entry = 7 }},
		{"empty proc", func(p *Program) { p.Procs[0].Blocks = nil }},
		{"zero-length block", func(p *Program) { p.Procs[0].Blocks[0].NumInstrs = 0 }},
		{"fallthrough last", func(p *Program) { p.Procs[0].Blocks[0].Term = Term{} }},
		{"call last", func(p *Program) { p.Procs[0].Blocks[0].Term = Term{Kind: isa.Call} }},
		{"cond without behavior", func(p *Program) {
			p.Procs[0].Blocks = append(p.Procs[0].Blocks, p.Procs[0].Blocks[0])
			p.Procs[0].Blocks[0] = &Block{NumInstrs: 1, Term: Term{Kind: isa.CondBranch}}
		}},
		{"bad target proc", func(p *Program) {
			p.Procs[0].Blocks = append([]*Block{{NumInstrs: 1, Term: Term{
				Kind: isa.UncondBranch, Target: BlockID{Proc: 9}}}}, p.Procs[0].Blocks...)
		}},
		{"bad callee", func(p *Program) {
			p.Procs[0].Blocks = append([]*Block{{NumInstrs: 1, Term: Term{
				Kind: isa.Call, Callee: 5}}}, p.Procs[0].Blocks...)
		}},
		{"indirect without targets", func(p *Program) {
			p.Procs[0].Blocks = append([]*Block{{NumInstrs: 1, Term: Term{
				Kind: isa.IndirectJump}}}, p.Procs[0].Blocks...)
		}},
		{"loop trip zero", func(p *Program) {
			p.Procs[0].Blocks = append([]*Block{{NumInstrs: 1, Term: Term{
				Kind: isa.CondBranch, Target: BlockID{0, 1},
				Behavior: Behavior{Kind: BehaviorLoop, Trip: 0}}}}, p.Procs[0].Blocks...)
		}},
		{"bias out of range", func(p *Program) {
			p.Procs[0].Blocks = append([]*Block{{NumInstrs: 1, Term: Term{
				Kind: isa.CondBranch, Target: BlockID{0, 1},
				Behavior: Behavior{Kind: BehaviorBias, P: 1.5}}}}, p.Procs[0].Blocks...)
		}},
	}
	for _, c := range cases {
		if err := mk(c.mutate); err == nil {
			t.Errorf("%s: accepted", c.name)
		}
	}
}

// TestValidateErrorNamesBlock: an invalid block's error names its
// procedure and its index, as "proc %q block %d".
func TestValidateErrorNamesBlock(t *testing.T) {
	ret := &Block{NumInstrs: 1, Term: Term{Kind: isa.Return}}
	p := &Program{Name: "bad", Procs: []*Proc{
		{Name: "main", Blocks: []*Block{ret}},
		{Name: "helper", Blocks: []*Block{ret, ret, {NumInstrs: 0, Term: Term{Kind: isa.Return}}}},
	}}
	err := p.Validate()
	if err == nil {
		t.Fatal("zero-length block accepted")
	}
	if want := `proc "helper" block 2`; !strings.Contains(err.Error(), want) {
		t.Errorf("error %q does not name %s", err, want)
	}
}

func TestStaticCondSites(t *testing.T) {
	p := twoProc(t)
	// One loop backedge in main, one If in helper.
	if got := p.StaticCondSites(); got != 2 {
		t.Errorf("StaticCondSites = %d, want 2", got)
	}
}

func TestHotFirstOrder(t *testing.T) {
	p := twoProc(t)
	order := HotFirstOrder(p, []uint64{5, 100})
	if order[0] != 1 || order[1] != 0 {
		t.Errorf("order = %v, want [1 0]", order)
	}
	// Re-laying out with a new order changes addresses but preserves
	// validity.
	oldEntry := p.EntryAddr()
	p.LayoutOrder(order)
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	if p.EntryAddr() == oldEntry {
		t.Error("reordering did not move the entry procedure")
	}
}

func TestLayoutOrderRejectsDuplicates(t *testing.T) {
	p := twoProc(t)
	defer func() {
		if recover() == nil {
			t.Error("duplicate order accepted")
		}
	}()
	p.LayoutOrder([]ProcID{0, 0})
}

func TestTermAddr(t *testing.T) {
	b := &Block{NumInstrs: 4, Addr: 0x1000}
	if got := b.TermAddr(); got != 0x100c {
		t.Errorf("TermAddr = %v", got)
	}
}
