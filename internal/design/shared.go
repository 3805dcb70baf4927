package design

import (
	"rnuca/internal/sim"
	"rnuca/internal/trace"
)

// Shared is the shared-L2 baseline (§2.2): blocks are address-interleaved
// across all slices; each block has a unique home, so only the L1 caches
// need coherence, tracked at the home slice.
type Shared struct {
	slices
}

// NewShared builds the shared design on a chassis.
func NewShared(ch *sim.Chassis) *Shared {
	return &Shared{slices: newSlices(ch)}
}

// Name implements sim.Design.
func (d *Shared) Name() string { return "S" }

// Access implements sim.Design.
//
//rnuca:hotpath
func (d *Shared) Access(r trace.Ref) sim.Cost {
	var cost sim.Cost
	l1 := d.ch.L1Service(r.Core, r)
	d.serveHome(&cost, r, l1, r.Class)
	return cost
}

// Reset implements sim.Design.
func (d *Shared) Reset() { d.reset() }
