package design

import (
	"fmt"

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
	ch    *sim.Chassis
	sl    slices
	os    *ospage.System
	place *placement.Placement

	// privSizes optionally gives each core its own private-cluster size
	// (§4.4: "a fixed-center cluster of appropriate size"); nil means
	// every core uses place's configured size. privPlaces caches one
	// placement engine per distinct size.
	privSizes  []int
	privPlaces map[int]*placement.Placement

	lastClass cache.Class

	// counters
	purgedBlocks uint64
	reclassCount uint64
}

// NewReactive builds R-NUCA with the chassis's configured instruction
// cluster size and size-1 private clusters (the paper's configuration).
func NewReactive(ch *sim.Chassis) *Reactive {
	return NewReactiveWithPrivateClusters(ch, 1)
}

// NewReactiveWithPrivateClusters builds R-NUCA whose private data spills
// over fixed-center clusters of the given size (§4.4), for heterogeneous
// workloads whose threads have very different footprints.
func NewReactiveWithPrivateClusters(ch *sim.Chassis, privClusterSize int) *Reactive {
	p, err := placement.NewPlacementWithPrivateClusters(
		ch.Topo, ch.Cfg.InstrClusterSize, privClusterSize, ch.Cfg.InterleaveOffset(), 0)
	if err != nil {
		panic(err)
	}
	return &Reactive{
		ch:    ch,
		sl:    newSlices(ch.Cfg),
		os:    ospage.NewSystem(ch.Cfg.PageBytes, ch.Cfg.TLBEntries, ch.Cfg.Cores),
		place: p,
	}
}

// NewReactivePerThreadPrivate builds R-NUCA where each core's thread gets
// its own private-cluster size (len(sizes) must equal the core count):
// cache-hungry threads spill over neighbors while compact threads keep
// pure local placement — the full form of the §4.4 extension.
func NewReactivePerThreadPrivate(ch *sim.Chassis, sizes []int) *Reactive {
	if len(sizes) != ch.Cfg.Cores {
		panic(fmt.Sprintf("design: %d private sizes for %d cores", len(sizes), ch.Cfg.Cores))
	}
	d := NewReactive(ch)
	d.privSizes = append([]int(nil), sizes...)
	d.privPlaces = map[int]*placement.Placement{}
	for _, s := range sizes {
		if _, ok := d.privPlaces[s]; ok {
			continue
		}
		p, err := placement.NewPlacementWithPrivateClusters(
			ch.Topo, ch.Cfg.InstrClusterSize, s, ch.Cfg.InterleaveOffset(), 0)
		if err != nil {
			panic(err)
		}
		d.privPlaces[s] = p
	}
	return d
}

// privPlacement returns the placement engine governing a core's private
// data.
//
//rnuca:hotpath
func (d *Reactive) privPlacement(core int) *placement.Placement {
	if d.privSizes == nil {
		return d.place
	}
	//rnuca:alloc-ok only the per-thread private-cluster ablation takes this path; the map holds at most a handful of distinct sizes and never grows mid-run
	return d.privPlaces[d.privSizes[core]]
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
	if res.PoisonWait {
		cost.Reclass += float64(ch.Cfg.PoisonCycles)
	}
	if res.Reclass != ospage.ReclassNone {
		cost.Reclass += d.purge(r, res)
	}

	switch res.Class {
	case ospage.Private:
		d.lastClass = cache.ClassPrivate
		// Size-1 clusters: the local slice, no network, no coherence.
		// Larger private clusters (§4.4) interleave over the owner's
		// neighborhood, at most one extra hop, still coherence-free
		// because each block has exactly one location.
		slice := d.privPlacement(core).PrivateSliceFor(tile, uint64(addr))
		req := ch.CtrlLatency(tile, slice) + float64(ch.Cfg.L2HitCycles)
		local := d.sl.l2[slice]
		if _, hit := local.Lookup(addr); hit {
			cost.L2 = req + ch.DataLatency(slice, tile)
		} else if line, ok := d.sl.victim[slice].Take(addr); ok {
			local.Insert(addr, line.State, line.Class)
			cost.L2 = req + 2 + ch.DataLatency(slice, tile)
		} else {
			cost.OffChip = req + ch.Mem.Access(ch.Net, slice, uint64(addr)) + ch.DataLatency(slice, tile)
			cost.OffChipMiss = true
			d.insert(int(slice), addr, stateFor(r), cache.ClassPrivate)
		}
		if r.IsWrite() {
			if line, ok := local.Peek(addr); ok {
				line.State = cache.Modified
			}
		}

	case ospage.Instruction:
		d.lastClass = cache.ClassInstruction
		// Rotational-interleaved lookup: exactly one probe, at most one
		// hop for size-4 clusters.
		slice := d.place.InstructionSlice(tile, uint64(addr))
		req := ch.CtrlLatency(tile, slice) + float64(ch.Cfg.L2HitCycles)
		if _, hit := d.sl.l2[slice].Lookup(addr); hit {
			cost.L2 = req + ch.DataLatency(slice, tile)
		} else if line, ok := d.sl.victim[slice].Take(addr); ok {
			d.sl.l2[slice].Insert(addr, line.State, line.Class)
			cost.L2 = req + 2 + ch.DataLatency(slice, tile)
		} else {
			// Per-cluster compulsory miss: R-NUCA fetches from memory
			// rather than from another cluster's replica (§4.2).
			cost.OffChip = req + ch.Mem.Access(ch.Net, slice, uint64(addr)) + ch.DataLatency(slice, tile)
			cost.OffChipMiss = true
			d.insert(int(slice), addr, cache.Shared, cache.ClassInstruction)
		}

	default: // shared data
		d.lastClass = cache.ClassShared
		home := d.place.SharedSlice(uint64(addr))
		if l1.RemoteOwner >= 0 {
			owner := noc.TileID(l1.RemoteOwner)
			cost.L1toL1 = ch.CtrlLatency(tile, home) + float64(ch.Cfg.DirCycles) +
				ch.CtrlLatency(home, owner) + float64(ch.Cfg.L1HitCycles) +
				ch.DataLatency(owner, tile)
			d.ensure(int(home), addr, cache.Modified, cache.ClassShared)
		} else {
			req := ch.CtrlLatency(tile, home) + float64(ch.Cfg.L2HitCycles)
			if _, hit := d.sl.l2[home].Lookup(addr); hit {
				cost.L2 = req + ch.DataLatency(home, tile)
			} else if line, ok := d.sl.victim[home].Take(addr); ok {
				d.sl.l2[home].Insert(addr, line.State, line.Class)
				cost.L2 = req + 2 + ch.DataLatency(home, tile)
			} else {
				cost.OffChip = req + ch.Mem.Access(ch.Net, home, uint64(addr)) + ch.DataLatency(home, tile)
				cost.OffChipMiss = true
				d.insert(int(home), addr, stateFor(r), cache.ClassShared)
			}
		}
		if r.IsWrite() {
			if line, ok := d.sl.l2[home].Peek(addr); ok {
				line.State = cache.Modified
			}
			cost.L2Coh += ch.InvalFanout(home, l1.Invalidated)
		}
	}
	return cost
}

// purge implements the re-classification shootdown: invalidate the page's
// blocks at the slices that may hold stale copies, charging per-block
// purge cost plus the poison round.
func (d *Reactive) purge(r trace.Ref, res ospage.Result) float64 {
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
			for _, t := range d.privPlacement(res.PrevOwner).PrivateClusterTiles(noc.TileID(res.PrevOwner)) {
				purged += d.sl.l2[t].InvalidateRange(lo, hi, nil)
			}
			purged += ch.L1PurgeRange(res.PrevOwner, lo, hi)
		}
	case ospage.ReclassInstrToShared, ospage.ReclassPrivateToInstr:
		// Replicas may exist at any slice that serves the page's blocks;
		// purge chip-wide.
		for t := 0; t < ch.Cfg.Cores; t++ {
			purged += d.sl.l2[t].InvalidateRange(lo, hi, nil)
			purged += ch.L1PurgeRange(t, lo, hi)
		}
	}
	d.purgedBlocks += uint64(purged)
	return float64(ch.Cfg.PoisonCycles) + float64(purged)*float64(ch.Cfg.PurgePerBlockCycles)
}

func stateFor(r trace.Ref) cache.State {
	if r.IsWrite() {
		return cache.Modified
	}
	return cache.Shared
}

func (d *Reactive) ensure(tile int, addr cache.Addr, st cache.State, class cache.Class) {
	if _, ok := d.sl.l2[tile].Peek(addr); !ok {
		d.insert(tile, addr, st, class)
	}
}

func (d *Reactive) insert(tile int, addr cache.Addr, st cache.State, class cache.Class) {
	v := d.sl.l2[tile].Insert(addr, st, class)
	if v.Valid {
		d.sl.victim[tile].Put(v.Addr, v.Line)
	}
}

// Advance implements sim.Design.
func (d *Reactive) Advance(uint64) {}

// Reset implements sim.Design.
func (d *Reactive) Reset() {
	d.sl = newSlices(d.ch.Cfg)
	d.os = ospage.NewSystem(d.ch.Cfg.PageBytes, d.ch.Cfg.TLBEntries, d.ch.Cfg.Cores)
	d.purgedBlocks, d.reclassCount = 0, 0
}

// SliceOccupancy exposes per-slice line counts.
func (d *Reactive) SliceOccupancy(tile noc.TileID) int { return d.sl.l2[tile].Lines() }

// SliceStats exposes per-slice statistics.
func (d *Reactive) SliceStats(tile noc.TileID) cache.Stats { return d.sl.l2[tile].Stats() }

// BankAccesses implements sim.BankMeter.
func (d *Reactive) BankAccesses() []uint64 { return d.sl.bankAccesses() }

// OSTransitions implements sim.TransitionMeter: cumulative OS-page
// classification counters, flattened for the flight recorder.
func (d *Reactive) OSTransitions() ospage.Transitions { return d.os.Table.Transitions() }

// ForEachLine visits every resident line of one slice, reporting its block
// address and class — the hook the end-to-end placement audits use.
func (d *Reactive) ForEachLine(tile int, fn func(addr uint64, class cache.Class)) {
	d.sl.l2[tile].ForEach(func(a cache.Addr, line *cache.Line) { fn(uint64(a), line.Class) })
}

// OccupancyByClass returns chip-wide line counts per class, used by the
// capacity-accounting tests (instruction replicas must not exceed
// ReplicationDegree x working set).
func (d *Reactive) OccupancyByClass(class cache.Class) int {
	n := 0
	for _, s := range d.sl.l2 {
		n += s.Occupancy(class)
	}
	return n
}
