// Package ras implements the return address stack used by both architectures
// to predict procedure returns (Kaeli & Emma). The paper uses a 32-entry
// stack (§3, §5.1).
package ras

import "repro/internal/isa"

// DefaultDepth is the paper's return-stack depth.
const DefaultDepth = 32

// Stack is a fixed-depth circular return address stack. When calls nest
// deeper than the stack, the oldest entries are overwritten (hardware
// behaviour): the stack never refuses a push, and deeply nested returns
// simply mispredict once they pop past the wrapped region.
type Stack struct {
	entries []isa.Addr
	top     int // index of the next free slot
	depth   int // live entries, capped at len(entries)

	pushes, pops uint64
}

// New builds a stack with the given depth. Depth must be positive.
func New(depth int) *Stack {
	if depth <= 0 {
		panic("ras: depth must be positive")
	}
	return &Stack{entries: make([]isa.Addr, depth)}
}

// Push records a return address (called when a procedure call is fetched).
func (s *Stack) Push(a isa.Addr) {
	s.entries[s.top] = a
	s.top = (s.top + 1) % len(s.entries)
	if s.depth < len(s.entries) {
		s.depth++
	}
	s.pushes++
}

// Pop removes and returns the most recent return address. ok is false when
// the stack is empty (the prediction is then unavailable).
func (s *Stack) Pop() (a isa.Addr, ok bool) {
	s.pops++
	if s.depth == 0 {
		return 0, false
	}
	s.top = (s.top - 1 + len(s.entries)) % len(s.entries)
	s.depth--
	return s.entries[s.top], true
}

// Top returns the most recent return address without removing it.
func (s *Stack) Top() (a isa.Addr, ok bool) {
	if s.depth == 0 {
		return 0, false
	}
	return s.entries[(s.top-1+len(s.entries))%len(s.entries)], true
}

// CopyFrom makes s a copy of src, a stack of the same capacity.
func (s *Stack) CopyFrom(src *Stack) {
	if len(s.entries) != len(src.entries) {
		panic("ras: copying a stack of another depth")
	}
	copy(s.entries, src.entries)
	s.top, s.depth = src.top, src.depth
	s.pushes, s.pops = src.pushes, src.pops
}

// Depth returns the number of live entries.
func (s *Stack) Depth() int { return s.depth }

// Cap returns the stack's capacity.
func (s *Stack) Cap() int { return len(s.entries) }

// SizeBits returns the storage cost in bits (30-bit word addresses, as the
// paper's RBE accounting assumes a 32-bit byte address space with 4-byte
// instructions).
func (s *Stack) SizeBits() int { return 30 * len(s.entries) }

// Reset empties the stack and clears statistics.
func (s *Stack) Reset() {
	s.top = 0
	s.depth = 0
	s.pushes = 0
	s.pops = 0
}
