// Package cfg models the synthetic programs whose execution traces drive
// the simulator.
//
// The paper traced SPEC92 and C++ programs with ATOM on DEC Alpha hardware;
// we cannot rerun those binaries, so this package provides the substitute
// substrate (see DESIGN.md §2): a program is a set of procedures, each a
// contiguous sequence of basic blocks whose terminators are the break kinds
// of the paper's Table 1. An executor (package exec) actually *walks* the
// control-flow graph, so traces exhibit the correlated branch behaviour,
// call/return nesting, and instruction locality that the predictors and the
// instruction cache respond to.
package cfg

import (
	"fmt"

	"repro/internal/isa"
)

// ProcID identifies a procedure by its index in Program.Procs.
type ProcID int

// BlockID identifies a basic block within a program.
type BlockID struct {
	Proc  ProcID
	Index int
}

// BehaviorKind selects how a branch site behaves dynamically.
type BehaviorKind uint8

const (
	// BehaviorNone is for terminators that need no dynamics
	// (unconditional branches, calls, returns, fall-through).
	BehaviorNone BehaviorKind = iota
	// BehaviorLoop: a loop backedge taken Trip-1 consecutive times, then
	// not taken once, repeating — the body executes Trip times per trip
	// through the loop.
	BehaviorLoop
	// BehaviorBias: taken with independent probability P each execution.
	BehaviorBias
	// BehaviorPattern: cycles through the fixed Pattern of outcomes —
	// the kind of repeating history a two-level predictor learns.
	BehaviorPattern
	// BehaviorIndirectWeighted: an indirect jump choosing target i with
	// probability Weights[i] each execution.
	BehaviorIndirectWeighted
	// BehaviorIndirectSticky: an indirect jump repeating its previous
	// target with probability P, otherwise resampling from Weights —
	// models receiver locality in dynamic dispatch.
	BehaviorIndirectSticky
)

// Behavior parameterizes a branch site's dynamics. Unused fields are zero.
type Behavior struct {
	Kind    BehaviorKind
	Trip    int
	P       float64
	Pattern []bool
	Weights []float64
}

// LoopBehavior returns a fixed-trip loop backedge behavior.
func LoopBehavior(trip int) Behavior { return Behavior{Kind: BehaviorLoop, Trip: trip} }

// BiasBehavior returns an independent-bias behavior taken with probability p.
func BiasBehavior(p float64) Behavior { return Behavior{Kind: BehaviorBias, P: p} }

// PatternBehavior returns a cyclic-outcome behavior.
func PatternBehavior(pattern ...bool) Behavior {
	return Behavior{Kind: BehaviorPattern, Pattern: pattern}
}

// Term is a basic block's terminator. Kind isa.NonBranch means the block
// has no terminator and control falls through to the next block of the
// procedure.
type Term struct {
	Kind isa.Kind
	// Target is the taken destination for CondBranch and the destination
	// for UncondBranch.
	Target BlockID
	// Callee is the called procedure for Call.
	Callee ProcID
	// IndirectTargets are the possible destinations of an IndirectJump.
	IndirectTargets []BlockID
	// Behavior drives CondBranch outcomes and IndirectJump target
	// choice.
	Behavior Behavior
}

// Block is a basic block: NumInstrs instructions laid out contiguously, the
// last of which is the terminator (when Term.Kind != NonBranch).
type Block struct {
	NumInstrs int
	Term      Term
	// Addr is the address of the block's first instruction, assigned by
	// Program.Layout.
	Addr isa.Addr
}

// TermAddr returns the address of the block's terminator instruction.
func (b *Block) TermAddr() isa.Addr {
	return b.Addr + isa.Addr((b.NumInstrs-1)*isa.InstrBytes)
}

// Proc is a procedure: a named, contiguous sequence of blocks. Execution
// enters at block 0.
type Proc struct {
	Name   string
	Blocks []*Block
}

// Program is a complete synthetic program.
type Program struct {
	Name  string
	Procs []*Proc
	// Entry is the procedure where execution starts (and restarts when
	// the outermost procedure returns).
	Entry ProcID

	laidOut bool
}

// Block resolves a BlockID.
func (p *Program) Block(id BlockID) *Block {
	return p.Procs[id.Proc].Blocks[id.Index]
}

// NumBlocks returns the total number of basic blocks.
func (p *Program) NumBlocks() int {
	n := 0
	for _, pr := range p.Procs {
		n += len(pr.Blocks)
	}
	return n
}

// NumInstrs returns the total number of instructions (the code footprint in
// instructions).
func (p *Program) NumInstrs() int {
	n := 0
	for _, pr := range p.Procs {
		for _, b := range pr.Blocks {
			n += b.NumInstrs
		}
	}
	return n
}

// CodeBytes returns the code footprint in bytes.
func (p *Program) CodeBytes() int { return p.NumInstrs() * isa.InstrBytes }

// StaticCondSites counts conditional-branch sites (the "Static" column of
// Table 1).
func (p *Program) StaticCondSites() int {
	n := 0
	for _, pr := range p.Procs {
		for _, b := range pr.Blocks {
			if b.Term.Kind == isa.CondBranch {
				n++
			}
		}
	}
	return n
}

// Validate checks the structural invariants the executor relies on.
func (p *Program) Validate() error {
	if len(p.Procs) == 0 {
		return fmt.Errorf("cfg: program %q has no procedures", p.Name)
	}
	if p.Entry < 0 || int(p.Entry) >= len(p.Procs) {
		return fmt.Errorf("cfg: entry %d out of range", p.Entry)
	}
	for pi, pr := range p.Procs {
		if len(pr.Blocks) == 0 {
			return fmt.Errorf("cfg: proc %q has no blocks", pr.Name)
		}
		for bi, b := range pr.Blocks {
			where := blockLoc{pr.Name, bi}
			if b.NumInstrs < 1 {
				return fmt.Errorf("cfg: %s has %d instructions", where, b.NumInstrs)
			}
			last := bi == len(pr.Blocks)-1
			switch b.Term.Kind {
			case isa.NonBranch, isa.Call, isa.CondBranch:
				// These continue at the next block (fall
				// through, return from call, or not-taken).
				if last {
					return fmt.Errorf("cfg: %s is last but terminator %v needs a successor",
						where, b.Term.Kind)
				}
			case isa.UncondBranch, isa.Return:
			case isa.IndirectJump:
				if len(b.Term.IndirectTargets) == 0 {
					return fmt.Errorf("cfg: %s indirect jump has no targets", where)
				}
			default:
				return fmt.Errorf("cfg: %s has invalid terminator kind %d", where, b.Term.Kind)
			}
			switch b.Term.Kind {
			case isa.CondBranch:
				if err := p.checkTarget(b.Term.Target); err != nil {
					return fmt.Errorf("cfg: %s: %w", where, err)
				}
				switch b.Term.Behavior.Kind {
				case BehaviorLoop:
					if b.Term.Behavior.Trip < 1 {
						return fmt.Errorf("cfg: %s loop trip %d", where, b.Term.Behavior.Trip)
					}
				case BehaviorBias:
					if b.Term.Behavior.P < 0 || b.Term.Behavior.P > 1 {
						return fmt.Errorf("cfg: %s bias %v", where, b.Term.Behavior.P)
					}
				case BehaviorPattern:
					if len(b.Term.Behavior.Pattern) == 0 {
						return fmt.Errorf("cfg: %s empty pattern", where)
					}
				default:
					return fmt.Errorf("cfg: %s conditional needs a behavior", where)
				}
			case isa.UncondBranch:
				if err := p.checkTarget(b.Term.Target); err != nil {
					return fmt.Errorf("cfg: %s: %w", where, err)
				}
			case isa.Call:
				if b.Term.Callee < 0 || int(b.Term.Callee) >= len(p.Procs) {
					return fmt.Errorf("cfg: %s calls invalid proc %d", where, b.Term.Callee)
				}
			case isa.IndirectJump:
				for _, t := range b.Term.IndirectTargets {
					if err := p.checkTarget(t); err != nil {
						return fmt.Errorf("cfg: %s: %w", where, err)
					}
				}
				bk := b.Term.Behavior.Kind
				if bk != BehaviorIndirectWeighted && bk != BehaviorIndirectSticky {
					return fmt.Errorf("cfg: %s indirect jump needs an indirect behavior", where)
				}
				if w := b.Term.Behavior.Weights; len(w) != 0 && len(w) != len(b.Term.IndirectTargets) {
					return fmt.Errorf("cfg: %s has %d weights for %d targets",
						where, len(w), len(b.Term.IndirectTargets))
				}
			}
		}
		_ = pi
	}
	return nil
}

// blockLoc names a block in Validate's errors. It formats only when an
// error is built, so a valid block costs no formatting.
type blockLoc struct {
	proc  string
	block int
}

func (l blockLoc) String() string { return fmt.Sprintf("proc %q block %d", l.proc, l.block) }

func (p *Program) checkTarget(id BlockID) error {
	if id.Proc < 0 || int(id.Proc) >= len(p.Procs) {
		return fmt.Errorf("target proc %d out of range", id.Proc)
	}
	if id.Index < 0 || id.Index >= len(p.Procs[id.Proc].Blocks) {
		return fmt.Errorf("target block %d out of range in proc %q", id.Index, p.Procs[id.Proc].Name)
	}
	return nil
}
