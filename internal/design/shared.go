package design

import (
	"rnuca/internal/cache"
	"rnuca/internal/noc"
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
	ch := d.ch
	tile := noc.TileID(r.Core)
	addr := r.BlockAddr()
	home := d.home(addr)

	l1 := ch.L1Service(r.Core, r)

	if l1.RemoteOwner >= 0 {
		// Dirty copy in a remote L1: request goes to the home slice,
		// which forwards to the owner; the owner's L1 supplies the data
		// directly to the requestor (one L2 slice access total).
		owner := noc.TileID(l1.RemoteOwner)
		cost.L1toL1 = ch.CtrlLatency(tile, home) + float64(ch.Cfg.DirCycles) +
			ch.CtrlLatency(home, owner) + float64(ch.Cfg.L1HitCycles) +
			ch.DataLatency(owner, tile)
		// Ownership transfer leaves the home's L2 copy stale-but-present;
		// ensure it exists so later readers hit at the home.
		d.ensure(home, addr, cache.Modified, r.Class)
		cost.L2Coh += ch.InvalFanout(home, l1.Invalidated)
		return cost
	}

	d.serveAt(&cost, tile, home, addr, stateFor(r), r.Class)
	if r.IsWrite() {
		d.markModified(home, addr)
	}
	cost.L2Coh += ch.InvalFanout(home, l1.Invalidated)
	return cost
}

// Reset implements sim.Design.
func (d *Shared) Reset() { d.reset() }
