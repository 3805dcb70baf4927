package design

import (
	"rnuca/internal/sim"
	"rnuca/internal/trace"
)

// Ideal is the upper bound the paper compares against (§5.4): "a shared
// organization with direct on-chip network links from every core to every
// L2 slice, where each slice is heavily multi-banked to eliminate
// contention". It therefore shares the shared design's placement
// (address-interleaved homes) and fill policy, with every hit at the
// local-slice latency, no network traversal, and no contention. Its
// contents and misses still differ from Shared's: the engine interleaves
// cores by their clocks, which advance differently under the two
// designs' latencies, and Shared's L1-to-L1 transfers install the home
// copy without a probe.
type Ideal struct {
	slices
}

// NewIdeal builds the ideal design.
func NewIdeal(ch *sim.Chassis) *Ideal {
	return &Ideal{slices: newSlices(ch)}
}

// Name implements sim.Design.
func (d *Ideal) Name() string { return "I" }

// Access implements sim.Design.
//
//rnuca:hotpath
func (d *Ideal) Access(r trace.Ref) sim.Cost {
	var cost sim.Cost
	ch := d.ch
	addr := r.BlockAddr()
	home := d.home(addr)

	ch.L1Service(r.Core, r)

	if line, extra := d.probe(home, addr); line != nil {
		cost.L2 = float64(ch.Cfg.L2HitCycles) + extra
	} else {
		// Off-chip at raw DRAM latency: the ideal network adds nothing.
		cost.OffChip = float64(ch.Cfg.L2HitCycles) + float64(ch.Cfg.MemAccessCycles)
		cost.OffChipMiss = true
		d.fill(home, addr, stateFor(r), r.Class)
	}
	if r.IsWrite() {
		d.markModified(home, addr)
	}
	return cost
}

// Reset implements sim.Design.
func (d *Ideal) Reset() { d.reset() }
