package design

import (
	"rnuca/internal/cache"
	"rnuca/internal/coherence"
	"rnuca/internal/noc"
	"rnuca/internal/sim"
	"rnuca/internal/trace"
)

// Private is the private-L2 baseline (§2.2): each tile's slice is a
// private second-level cache. Misses consult an address-interleaved
// full-map distributed directory (assumed to have zero area overhead, as
// the paper optimistically does) and are serviced in three network
// traversals: requestor -> directory home -> provider -> requestor.
type Private struct {
	slices
	dir *coherence.Directory // tracks which tiles' private L2s hold blocks
}

// NewPrivate builds the private design on a chassis.
func NewPrivate(ch *sim.Chassis) *Private {
	return &Private{slices: newSlices(ch), dir: coherence.NewDirectory(ch.Cfg.Cores)}
}

// Name implements sim.Design.
func (d *Private) Name() string { return "P" }

// Access implements sim.Design.
//
//rnuca:hotpath
func (d *Private) Access(r trace.Ref) sim.Cost {
	cost, _ := d.access(r)
	return cost
}

// access returns the cost and the data source (reused by ASR).
//
//rnuca:hotpath
func (d *Private) access(r trace.Ref) (sim.Cost, coherence.Source) {
	var cost sim.Cost
	ch := d.ch
	core := r.Core
	tile := noc.TileID(core)
	addr := r.BlockAddr()

	l1 := ch.L1Service(core, r)

	if line, extra := d.probe(tile, addr); line != nil {
		cost.L2 = float64(ch.Cfg.L2HitCycles) + extra
		if r.IsWrite() {
			// Other holders are invalidated through the directory home.
			if inval := d.dirUpgrade(core, addr, line); len(inval) > 0 {
				home := d.home(addr)
				cost.L2Coh += ch.CtrlLatency(tile, home) + float64(ch.Cfg.DirCycles) + ch.InvalFanout(home, inval)
			}
		}
		return cost, coherence.SourceNone
	}

	// Local miss: local tag probe, then the distributed directory.
	home := d.home(addr)
	lat := float64(ch.Cfg.L2HitCycles) + ch.CtrlLatency(tile, home) + float64(ch.Cfg.DirCycles)
	act := d.dirMiss(core, addr, r.IsWrite())
	if r.IsWrite() {
		lat += ch.InvalFanout(home, act.Invalidated)
	}

	src := act.Source
	switch {
	case l1.RemoteOwner >= 0:
		// Dirty copy lives in a remote L1: the directory forwards there;
		// the remote tile probes its L2 slice and then its L1 before
		// replying (two slice-level accesses end to end, which is why the
		// paper's private design pays more for L1-to-L1 transfers).
		owner := noc.TileID(l1.RemoteOwner)
		lat += ch.CtrlLatency(home, owner) + float64(ch.Cfg.L2HitCycles) +
			float64(ch.Cfg.L1HitCycles) + ch.DataLatency(owner, tile)
		cost.L1toL1 = lat
		src = coherence.SourceOwner
	case act.Source == coherence.SourceOwner || act.Source == coherence.SourceSharer:
		provider := noc.TileID(act.Provider)
		lat += ch.CtrlLatency(home, provider) + float64(ch.Cfg.L2HitCycles) +
			ch.DataLatency(provider, tile)
		cost.L2Coh = lat
	case act.Source == coherence.SourceNone:
		// The directory believes we hold the block (e.g. re-read after a
		// silent local eviction raced with our own upgrade): treat as a
		// directory-confirmed memory fetch.
		fallthrough
	default:
		lat += ch.Mem.Access(ch.Net, home, uint64(addr)) + ch.DataLatency(home, tile)
		cost.OffChip = lat
		cost.OffChipMiss = true
		src = coherence.SourceMemory
	}

	d.installLocal(core, addr, r)
	return cost, src
}

// dirMiss records a local L2 miss of core on addr in the directory: a
// read joins the holders; a write takes ownership and drops every other
// tile's copy. The action names the on-chip provider, if any, and the
// tiles invalidated.
//
//rnuca:hotpath
func (d *Private) dirMiss(core int, addr cache.Addr, write bool) coherence.Action {
	if !write {
		return d.dir.Read(addr, core, d.ch.HopsFrom(core))
	}
	act := d.dir.Write(addr, core, d.ch.HopsFrom(core))
	d.drop(act.Invalidated, addr)
	return act
}

// dirUpgrade records core's write to addr, which its own slice holds as
// line: the line turns Modified, the directory makes core the owner, and
// every other tile's copy is dropped. It returns the tiles invalidated,
// a view valid until the directory's next transaction.
//
//rnuca:hotpath
func (d *Private) dirUpgrade(core int, addr cache.Addr, line *cache.Line) []int {
	line.State = cache.Modified
	act := d.dir.Write(addr, core, d.ch.HopsFrom(core))
	d.drop(act.Invalidated, addr)
	return act.Invalidated
}

// installLocal fills the block into the requestor's private slice. The
// victim cache keeps the slice's evicted line on-tile; only a
// displacement out of the victim cache truly leaves the tile, so
// directory state follows the displaced block.
func (d *Private) installLocal(core int, addr cache.Addr, r trace.Ref) {
	if dAddr, dLine, displaced := d.fill(noc.TileID(core), addr, stateFor(r), r.Class); displaced {
		d.dir.Evict(dAddr, core, dLine.State.Dirty())
	}
}

// dropLocal removes a block from a tile's slice and directory (used by ASR
// when it declines to allocate).
func (d *Private) dropLocal(core int, addr cache.Addr) {
	if _, ok := d.l2[core].Invalidate(addr); ok {
		d.dir.Evict(addr, core, false)
	}
}

// Reset implements sim.Design.
func (d *Private) Reset() {
	d.reset()
	d.dir.Reset()
}

// Directory exposes the L2 directory for invariant audits in tests.
func (d *Private) Directory() *coherence.Directory { return d.dir }
