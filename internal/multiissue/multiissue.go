// Package multiissue models the wide-fetch extension the paper closes with
// (§8: "we focused on the improvements offered by single-issue
// architectures and are currently investigating a number of design
// extensions for multi-issue architectures. Nothing in the design of the
// NLS architecture appears to be a problem for wide-issue architectures").
//
// The model: a W-wide fetch unit delivers up to W sequential instructions
// per cycle, but a fetch block ends early at a taken control transfer (the
// redirect happens between cycles) and at an instruction-cache line
// boundary (a block cannot straddle lines). The §5.2 penalties stay
// per-event — a misfetch still inserts one bubble cycle, a mispredict
// four, a line miss five — so total cycles are
//
//	cycles = fetchBlocks + misfetches·1 + mispredicts·4 + misses·5
//
// and IPC = instructions / cycles. As W grows, the useful-fetch cycle
// count shrinks toward the taken-break limit while the penalty cycles do
// not shrink at all, so fetch prediction quality dominates exactly as the
// paper's introduction argues ("As processors issue more instructions
// concurrently, these penalties increase").
package multiissue

import (
	"fmt"

	"repro/internal/isa"
	"repro/internal/metrics"
	"repro/internal/trace"
)

// Config describes the fetch front end.
type Config struct {
	// Width is the fetch width in instructions per cycle (1 reproduces
	// the paper's single-issue accounting up to line-boundary effects).
	Width int
	// LineBytes is the instruction cache line size; a fetch block never
	// crosses a line boundary. Zero disables the line constraint.
	LineBytes int
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.Width < 1 {
		return fmt.Errorf("multiissue: width %d must be >= 1", c.Width)
	}
	if c.LineBytes < 0 || (c.LineBytes > 0 && c.LineBytes%isa.InstrBytes != 0) {
		return fmt.Errorf("multiissue: line size %d invalid", c.LineBytes)
	}
	return nil
}

// BlockCounter counts the fetch cycles a W-wide front end needs to deliver
// a trace, assuming perfect next-block prediction (penalties are added
// separately from the simulated engine's counters). A block ends at:
//   - W instructions,
//   - a taken break (the next instruction starts a new block at the
//     target), or
//   - a cache line boundary.
//
// It counts incrementally, block of records by block of records, so the
// count can be accumulated during a single streamed trace replay (the grid
// executor feeds it from the same read that drives the simulators). A
// fetch block may span record-block boundaries: the in-progress block
// carries over between Add calls, so feeding a trace in any chunking
// yields the count of the flat trace.
type BlockCounter struct {
	cfg           Config
	instrsPerLine int
	blocks        uint64
	inBlock       int
}

// NewBlockCounter validates the configuration and starts a counter.
func NewBlockCounter(cfg Config) (*BlockCounter, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	instrsPerLine := 0
	if cfg.LineBytes > 0 {
		instrsPerLine = cfg.LineBytes / isa.InstrBytes
	}
	return &BlockCounter{cfg: cfg, instrsPerLine: instrsPerLine}, nil
}

// Add accumulates consecutive trace records.
func (b *BlockCounter) Add(recs []trace.Record) {
	for _, r := range recs {
		if b.inBlock == 0 {
			b.blocks++
		}
		b.inBlock++
		endOfLine := b.instrsPerLine > 0 &&
			r.PC.Word()%uint32(b.instrsPerLine) == uint32(b.instrsPerLine-1)
		if b.inBlock >= b.cfg.Width || (r.IsBreak() && r.Taken) || endOfLine {
			b.inBlock = 0
		}
	}
}

// Blocks returns the fetch blocks counted so far.
func (b *BlockCounter) Blocks() uint64 { return b.blocks }

// Width returns the configured fetch width.
func (b *BlockCounter) Width() int { return b.cfg.Width }

// Result is the wide-fetch performance of one simulated configuration.
type Result struct {
	Width       int
	FetchBlocks uint64
	Cycles      float64
	IPC         float64
	// PenaltyShare is the fraction of cycles spent on branch and cache
	// penalties — the quantity that grows with width.
	PenaltyShare float64
}

// EvaluateBlocks combines a trace's fetch-block count, accumulated during a
// replay (BlockCounter) or loaded from the results store, with an engine's
// measured penalty events into wide-fetch IPC.
func EvaluateBlocks(blocks uint64, m *metrics.Counters, cfg Config, p metrics.Penalties) Result {
	penalty := float64(m.Misfetches)*p.Misfetch +
		float64(m.Mispredicts)*p.Mispredict +
		float64(m.ICacheMisses)*p.CacheMiss
	cycles := float64(blocks) + penalty
	res := Result{
		Width:       cfg.Width,
		FetchBlocks: blocks,
		Cycles:      cycles,
		IPC:         float64(m.Instructions) / cycles,
	}
	if cycles > 0 {
		res.PenaltyShare = penalty / cycles
	}
	return res
}
