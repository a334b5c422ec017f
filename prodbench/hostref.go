package main

import (
	"time"

	"repro/internal/xrand"
)

// The shared host slows and recovers over minutes, and all workloads move
// together (README.md, "Noise"). Each timed pass or serve window is
// therefore preceded by a host-speed reference: a frozen, replay-like
// kernel that no change to the repository can speed up. mstep_per_s is the
// pass's throughput scaled by refNominal / the reference's rate, so it
// reads in Mstep/s on a host whose reference runs at refNominal. Over 25 s
// windows of paper-sweep passes this halved the spread of the raw rate.

// refNominal is the reference rate (Mrec/s) mstep_per_s is scaled to:
// about what the kernel reaches on the 2-CPU host the bounds were set on.
const refNominal = 45.0

// refRecords is the reference stream length: 8 MB of PCs, larger than the
// private caches, so the kernel feels memory contention as replay does.
const refRecords = 2 << 20

// refPasses is how often one reference replays its stream (about 0.15 s).
const refPasses = 4

// hostRef is the reference kernel's input, built once per process.
type hostRef struct {
	pcs []uint32
}

// newHostRef builds the reference stream: a looping, branchy PC sequence.
func newHostRef() *hostRef {
	rng := xrand.New(0x0dd5eed)
	pcs := make([]uint32, refRecords)
	pc := uint32(0)
	for i := range pcs {
		if rng.Intn(8) == 0 {
			pc = uint32(rng.Intn(1<<16)) << 2
		} else {
			pc += 4
		}
		pcs[i] = pc
	}
	return &hostRef{pcs: pcs}
}

// refSink keeps the kernel's result alive.
var refSink uint64

// rate runs the kernel and returns its rate in Mrec/s.
func (h *hostRef) rate() float64 {
	start := time.Now()
	for i := 0; i < refPasses; i++ {
		refSink += h.replay()
	}
	return refRecords * refPasses / time.Since(start).Seconds() / 1e6
}

// replay runs the stream through a 16KB 4-way LRU cache and a 4096-entry
// two-bit counter table indexed by PC and history, like a fetch engine's
// inner loop, and returns its miss and mispredict count.
func (h *hostRef) replay() uint64 {
	const sets, ways = 128, 4
	var tags [sets * ways]uint32
	var lru [sets * ways]uint8
	var ctr [4096]uint8
	var misses, wrong uint64
	hist, prev := uint32(0), uint32(0)
	for _, pc := range h.pcs {
		line := pc >> 5
		base := int(line%sets) * ways
		hit := -1
		for w := 0; w < ways; w++ {
			if tags[base+w] == line {
				hit = w
				break
			}
		}
		if hit < 0 {
			misses++
			hit = 0
			for w := 1; w < ways; w++ {
				if lru[base+w] > lru[base+hit] {
					hit = w
				}
			}
			tags[base+hit] = line
		}
		for w := 0; w < ways; w++ {
			lru[base+w]++
		}
		lru[base+hit] = 0
		taken := pc != prev+4
		i := (pc>>2 ^ hist) & 4095
		if (ctr[i] >= 2) != taken {
			wrong++
		}
		if taken && ctr[i] < 3 {
			ctr[i]++
		} else if !taken && ctr[i] > 0 {
			ctr[i]--
		}
		hist <<= 1
		if taken {
			hist |= 1
		}
		prev = pc
	}
	return misses + wrong
}
