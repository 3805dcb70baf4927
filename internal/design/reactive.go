package design

import (
	"rnuca/internal/cache"
	"rnuca/internal/noc"
	"rnuca/internal/ospage"
	placement "rnuca/internal/rnuca"
	"rnuca/internal/sim"
	"rnuca/internal/trace"
)

// Reactive is R-NUCA (§4), the paper's design:
//
//   - the OS classifies pages at TLB-miss time (ospage.System);
//   - private data is placed in the requestor's local slice (size-1
//     cluster) with no coherence mechanism;
//   - shared data is address-interleaved over all slices (size-16
//     cluster), giving each modifiable block a unique location, so only
//     the L1s need coherence (tracked at the home slice);
//   - instructions are placed in size-4 fixed-center clusters indexed by
//     rotational interleaving, replicated across the chip, at most one hop
//     from any requestor;
//   - page re-classifications (private->shared, thread migration,
//     instruction de-replication) purge the stale copies and are charged
//     to the Re-classification CPI bucket.
type Reactive struct {
	slices
	os    *ospage.System
	place *placement.Placement

	lastClass    cache.Class
	reclassCount uint64
}

// NewReactive builds R-NUCA with the chassis's configured instruction
// cluster size and size-1 private clusters (the paper's configuration).
func NewReactive(ch *sim.Chassis) *Reactive {
	return NewReactiveWithPrivateClusters(ch, nil)
}

// NewReactiveWithPrivateClusters builds R-NUCA whose core i spills its
// private data over a fixed-center cluster of sizes[i] slices (§4.4: "a
// fixed-center cluster of appropriate size"), so cache-hungry threads
// spill over their neighbors while compact threads keep local placement.
// len(sizes) must equal the core count; nil is size 1 everywhere.
func NewReactiveWithPrivateClusters(ch *sim.Chassis, sizes []int) *Reactive {
	p, err := placement.NewPlacement(ch.Topo, ch.Cfg.InstrClusterSize, sizes, ch.Cfg.InterleaveOffset(), 0)
	if err != nil {
		panic(err)
	}
	return &Reactive{
		slices: newSlices(ch),
		os:     ospage.NewSystem(ch.Cfg.PageBytes, ch.Cfg.TLBEntries, ch.Cfg.Cores),
		place:  p,
	}
}

// Name implements sim.Design.
func (d *Reactive) Name() string { return "R" }

// Placement exposes the placement engine (used by tests and the
// cluster-size ablation).
func (d *Reactive) Placement() *placement.Placement { return d.place }

// OS exposes the classification layer.
func (d *Reactive) OS() *ospage.System { return d.os }

// LastPlacementClass implements sim.Classifier for the §5.2 accuracy
// experiment.
func (d *Reactive) LastPlacementClass() cache.Class { return d.lastClass }

// ReclassCount returns the number of page re-classifications performed.
func (d *Reactive) ReclassCount() uint64 { return d.reclassCount }

// Access implements sim.Design.
//
//rnuca:hotpath
func (d *Reactive) Access(r trace.Ref) sim.Cost {
	var cost sim.Cost
	ch := d.ch
	core := r.Core
	tile := noc.TileID(core)
	addr := r.BlockAddr()

	l1 := ch.L1Service(core, r)

	res := d.os.Translate(r.Addr, core, r.Thread, r.IsWrite(), r.Kind == trace.IFetch)
	if res.Reclass != ospage.ReclassNone {
		cost.Reclass += d.shootdown(r, res)
	}

	d.lastClass = res.Class
	switch res.Class {
	case cache.ClassPrivate, cache.ClassInstruction:
		// One probe at one slice of the requestor's cluster for the
		// class, with no coherence: a private block has exactly one
		// location (its owner's local slice, or one slice of a larger
		// §4.4 cluster), and an instruction block is read-only, so a
		// per-cluster compulsory miss fetches from memory rather than
		// from another cluster's replica (§4.2). A store never reaches
		// here as an instruction access: it re-classifies the page
		// shared first (§4.3).
		slice := d.place.SliceFor(res.Class, tile, uint64(addr))
		d.serveAt(&cost, tile, slice, addr, stateFor(r), res.Class)
		if r.IsWrite() {
			d.markModified(slice, addr)
		}
	default: // shared data
		d.serveHome(&cost, r, l1, cache.ClassShared)
	}
	return cost
}

// shootdown implements a page re-classification: invalidate the page's
// blocks at the slices that may hold stale copies, charging per-block
// purge cost plus the poison round.
func (d *Reactive) shootdown(r trace.Ref, res ospage.Result) float64 {
	ch := d.ch
	d.reclassCount++
	pageBytes := uint64(ch.Cfg.PageBytes)
	lo := cache.Addr(r.Addr &^ (pageBytes - 1))
	hi := lo + cache.Addr(pageBytes)

	purged := 0
	switch res.Reclass {
	case ospage.ReclassPrivateToShared, ospage.ReclassMigration:
		if res.PrevOwner >= 0 {
			// The page's blocks may sit anywhere in the previous owner's
			// private cluster (one slice for size-1 clusters).
			for _, t := range d.place.PrivateClusterTiles(noc.TileID(res.PrevOwner)) {
				purged += d.purge(t, lo, hi)
			}
			purged += ch.L1PurgeRange(res.PrevOwner, lo, hi)
		}
	case ospage.ReclassInstrToShared, ospage.ReclassPrivateToInstr:
		// Replicas may exist at any slice that serves the page's blocks;
		// purge chip-wide.
		for t := 0; t < ch.Cfg.Cores; t++ {
			purged += d.purge(noc.TileID(t), lo, hi)
			purged += ch.L1PurgeRange(t, lo, hi)
		}
	}
	return float64(ch.Cfg.PoisonCycles) + float64(purged)*float64(ch.Cfg.PurgePerBlockCycles)
}

// Reset implements sim.Design.
func (d *Reactive) Reset() {
	d.reset()
	d.os = ospage.NewSystem(d.ch.Cfg.PageBytes, d.ch.Cfg.TLBEntries, d.ch.Cfg.Cores)
	d.reclassCount = 0
}

// OSTransitions implements sim.TransitionMeter: cumulative OS-page
// classification counters, flattened for the flight recorder.
func (d *Reactive) OSTransitions() ospage.Transitions { return d.os.Table.Transitions() }

// ForEachLine visits every resident line of one slice, reporting its block
// address and class — the hook the end-to-end placement audits use.
func (d *Reactive) ForEachLine(tile int, fn func(addr uint64, class cache.Class)) {
	d.l2[tile].ForEach(func(a cache.Addr, line *cache.Line) { fn(uint64(a), line.Class) })
}

// OccupancyByClass returns chip-wide line counts per class, used by the
// capacity-accounting tests (instruction replicas must not exceed
// ReplicationDegree x working set).
func (d *Reactive) OccupancyByClass(class cache.Class) int {
	n := 0
	for _, s := range d.l2 {
		n += s.Occupancy(class)
	}
	return n
}
