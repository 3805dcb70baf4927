// Package design implements the five L2 organizations the paper evaluates
// (§5.1): private (P), ASR (A), shared (S), R-NUCA (R), and the ideal
// design (I). All five run on the shared sim.Chassis (tiles, torus, L1s,
// memory) and differ only in where blocks live, how they are found, and
// what coherence work each access performs.
package design

import (
	"rnuca/internal/cache"
	"rnuca/internal/noc"
	"rnuca/internal/sim"
	"rnuca/internal/trace"
)

// slices allocates one L2 slice and victim cache per tile.
type slices struct {
	l2     []*cache.Cache
	victim []*cache.VictimCache
}

// bankAccesses snapshots cumulative per-slice (bank) L2 access counts
// — hits plus misses, tile order — for the flight recorder.
func (s slices) bankAccesses() []uint64 {
	out := make([]uint64, len(s.l2))
	for i, c := range s.l2 {
		st := c.Stats()
		out[i] = st.Hits + st.Misses
	}
	return out
}

func newSlices(cfg sim.Config) slices {
	geom := cfg.L2Geometry()
	var s slices
	for i := 0; i < cfg.Cores; i++ {
		s.l2 = append(s.l2, cache.New(geom))
		s.victim = append(s.victim, cache.NewVictimCache(cfg.VictimEntries))
	}
	return s
}

// Shared is the shared-L2 baseline (§2.2): blocks are address-interleaved
// across all slices; each block has a unique home, so only the L1 caches
// need coherence, tracked at the home slice.
type Shared struct {
	ch *sim.Chassis
	sl slices
	k  uint
}

// NewShared builds the shared design on a chassis.
func NewShared(ch *sim.Chassis) *Shared {
	return &Shared{ch: ch, sl: newSlices(ch.Cfg), k: ch.Cfg.InterleaveOffset()}
}

// Name implements sim.Design.
func (d *Shared) Name() string { return "S" }

// home returns the address-interleaved home slice.
func (d *Shared) home(addr cache.Addr) noc.TileID {
	return noc.TileID((uint64(addr) >> d.k) % uint64(d.ch.Cfg.Cores))
}

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
		cost.L2Coh += d.invalCost(home, l1.Invalidated)
		return cost
	}

	reqLat := ch.CtrlLatency(tile, home) + float64(ch.Cfg.L2HitCycles)
	slice := d.sl.l2[home]
	if _, hit := slice.Lookup(addr); hit {
		cost.L2 = reqLat + ch.DataLatency(home, tile)
	} else if line, ok := d.sl.victim[home].Take(addr); ok {
		// Victim-cache hit: swap back, small extra penalty.
		slice.Insert(addr, line.State, line.Class)
		cost.L2 = reqLat + 2 + ch.DataLatency(home, tile)
	} else {
		cost.OffChip = reqLat + ch.Mem.Access(ch.Net, home, uint64(addr)) +
			ch.DataLatency(home, tile)
		cost.OffChipMiss = true
		st := cache.Shared
		if r.IsWrite() {
			st = cache.Modified
		}
		d.insert(home, addr, st, r.Class)
	}
	if r.IsWrite() {
		if line, ok := slice.Peek(addr); ok {
			line.State = cache.Modified
		}
	}
	cost.L2Coh += d.invalCost(home, l1.Invalidated)
	return cost
}

// invalCost charges the home-issued invalidation fan-out for a write.
func (d *Shared) invalCost(home noc.TileID, cores []int) float64 {
	if len(cores) == 0 {
		return 0
	}
	return d.ch.InvalFanout(home, cores)
}

func (d *Shared) ensure(home noc.TileID, addr cache.Addr, st cache.State, class cache.Class) {
	if _, ok := d.sl.l2[home].Peek(addr); !ok {
		d.insert(home, addr, st, class)
	}
}

func (d *Shared) insert(home noc.TileID, addr cache.Addr, st cache.State, class cache.Class) {
	v := d.sl.l2[home].Insert(addr, st, class)
	if v.Valid {
		d.sl.victim[home].Put(v.Addr, v.Line)
	}
}

// Advance implements sim.Design.
func (d *Shared) Advance(uint64) {}

// Reset implements sim.Design.
func (d *Shared) Reset() {
	d.sl = newSlices(d.ch.Cfg)
}

// SliceOccupancy exposes per-slice line counts for capacity tests.
func (d *Shared) SliceOccupancy(tile noc.TileID) int { return d.sl.l2[tile].Lines() }

// SliceStats exposes per-slice cache statistics.
func (d *Shared) SliceStats(tile noc.TileID) cache.Stats { return d.sl.l2[tile].Stats() }

// BankAccesses implements sim.BankMeter.
func (d *Shared) BankAccesses() []uint64 { return d.sl.bankAccesses() }
