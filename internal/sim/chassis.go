package sim

import (
	"fmt"

	"rnuca/internal/cache"
	"rnuca/internal/coherence"
	"rnuca/internal/mem"
	"rnuca/internal/noc"
	"rnuca/internal/trace"
)

// Chassis is the hardware every L2 design shares: the tile grid and
// interconnect, main memory, and the per-core L1 caches with their
// coherence directory. Designs own only the L2 organization; the engine
// owns the reference streams and the clock.
type Chassis struct {
	Cfg  Config
	Topo noc.Topology
	Net  *noc.Network
	Mem  *mem.Memory

	L1I []*cache.Cache
	L1D []*cache.Cache
	// L1Dir tracks which cores' L1s hold each block, so designs can
	// detect dirty-in-remote-L1 (L1-to-L1 transfers) and invalidate L1
	// copies on writes.
	L1Dir *coherence.Directory
}

// NewChassis builds the shared hardware for a configuration.
func NewChassis(cfg Config) *Chassis {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	var topo noc.Topology = noc.NewFoldedTorus2D(cfg.GridW, cfg.GridH)
	if cfg.Mesh {
		topo = noc.NewMesh2D(cfg.GridW, cfg.GridH)
	}
	memCfg := mem.DefaultConfig(cfg.Cores)
	memCfg.AccessCycles = cfg.MemAccessCycles
	memCfg.PageBytes = cfg.PageBytes
	ch := &Chassis{
		Cfg:   cfg,
		Topo:  topo,
		Net:   noc.NewNetwork(topo, cfg.Link),
		Mem:   mem.New(memCfg),
		L1Dir: coherence.NewDirectory(cfg.Cores),
	}
	if cfg.LinkQueues {
		ch.Net.EnableLinkQueues()
	}
	l1geom := cache.Geometry{SizeBytes: cfg.L1Bytes, Ways: cfg.L1Ways, BlockBytes: cfg.BlockBytes}
	for i := 0; i < cfg.Cores; i++ {
		ch.L1I = append(ch.L1I, cache.New(l1geom))
		ch.L1D = append(ch.L1D, cache.New(l1geom))
	}
	return ch
}

// L1Info describes the chip-wide L1 state relevant to one access, observed
// before the access updates it.
type L1Info struct {
	// RemoteOwner is a core whose L1 holds the block dirty (M), or -1.
	// Such an access must be serviced L1-to-L1.
	RemoteOwner int
	// Invalidated lists cores whose L1 copies a write invalidated.
	Invalidated []int
}

// L1Service performs the L1-level bookkeeping for an access by core: it
// reports whether a remote L1 holds the block dirty, applies write
// invalidations to the other L1s, installs the block in the requestor's
// L1, and keeps the L1 directory consistent (including evictions).
func (ch *Chassis) L1Service(core int, r trace.Ref) L1Info {
	addr := r.BlockAddr()
	info := L1Info{RemoteOwner: -1}
	if e := ch.L1Dir.Lookup(addr); e != nil && e.Owner >= 0 && e.Owner != core {
		// The owner's L1 must actually still hold it (the directory is
		// kept in sync, so this is an audit-grade double check).
		if _, ok := ch.L1D[e.Owner].Peek(addr); ok {
			info.RemoteOwner = e.Owner
		}
	}

	dist := func(t int) int { return ch.Topo.Hops(noc.TileID(core), noc.TileID(t)) }
	var act coherence.Action
	if r.IsWrite() {
		act = ch.L1Dir.Write(addr, core, dist)
		for _, c := range act.Invalidated {
			ch.L1D[c].Invalidate(addr)
			ch.L1I[c].Invalidate(addr)
			info.Invalidated = append(info.Invalidated, c)
		}
	} else {
		ch.L1Dir.Read(addr, core, dist)
	}

	// Install in the requestor's L1 (I or D by access kind).
	l1 := ch.L1D[core]
	if r.Kind == trace.IFetch {
		l1 = ch.L1I[core]
	}
	if _, hit := l1.Lookup(addr); !hit {
		st := cache.Shared
		if r.IsWrite() {
			st = cache.Modified
		}
		victim := l1.Insert(addr, st, r.Class)
		if victim.Valid {
			// The evicted block leaves this core's L1; if the same block
			// is absent from the sibling L1 too, drop it from the
			// directory.
			sibling := ch.L1D[core]
			if l1 == ch.L1D[core] {
				sibling = ch.L1I[core]
			}
			if _, ok := sibling.Peek(victim.Addr); !ok {
				ch.L1Dir.Evict(victim.Addr, core, victim.Line.State.Dirty())
			}
		}
	} else if r.IsWrite() {
		if line, ok := l1.Peek(addr); ok {
			line.State = cache.Modified
		}
	}
	return info
}

// L1Purge removes a block from every core's L1s (page purges and L2-level
// invalidations in designs that enforce inclusion for correctness).
func (ch *Chassis) L1Purge(addr cache.Addr) int {
	n := 0
	for c := 0; c < ch.Cfg.Cores; c++ {
		if _, ok := ch.L1D[c].Invalidate(addr); ok {
			n++
		}
		if _, ok := ch.L1I[c].Invalidate(addr); ok {
			n++
		}
	}
	ch.L1Dir.Invalidate(addr)
	return n
}

// L1PurgeRange removes every block in [lo, hi) from one core's L1 caches,
// keeping the L1 directory consistent (page shootdowns during R-NUCA
// re-classification). It returns the number of lines removed.
func (ch *Chassis) L1PurgeRange(core int, lo, hi cache.Addr) int {
	n := 0
	for _, pair := range [2][2]*cache.Cache{{ch.L1D[core], ch.L1I[core]}, {ch.L1I[core], ch.L1D[core]}} {
		sibling := pair[1]
		n += pair[0].InvalidateRange(lo, hi, func(a cache.Addr, line cache.Line) {
			// Drop the core from the directory if its sibling L1 no
			// longer holds the block either.
			if _, ok := sibling.Peek(a); !ok {
				ch.L1Dir.Evict(a, core, line.State.Dirty())
			}
		})
	}
	return n
}

// Hops returns the topological distance between two tiles.
func (ch *Chassis) Hops(a, b noc.TileID) int { return ch.Topo.Hops(a, b) }

// CtrlLatency charges a control message traversal.
func (ch *Chassis) CtrlLatency(from, to noc.TileID) float64 {
	return ch.Net.Latency(from, to, noc.CtrlBytes)
}

// DataLatency charges a data (cache block) traversal.
func (ch *Chassis) DataLatency(from, to noc.TileID) float64 {
	return ch.Net.Latency(from, to, noc.DataBytes)
}

// FarthestOf returns the member of tiles farthest from origin — the
// latency-determining hop of a parallel invalidation fan-out.
func (ch *Chassis) FarthestOf(origin noc.TileID, tiles []int) noc.TileID {
	best, bestHops := origin, -1
	for _, t := range tiles {
		if h := ch.Hops(origin, noc.TileID(t)); h > bestHops {
			best, bestHops = noc.TileID(t), h
		}
	}
	return best
}

// InvalFanout charges a parallel invalidation from origin to the given
// tiles: requests fan out, acks return; latency is bounded by the farthest
// member, while every message still loads the network.
func (ch *Chassis) InvalFanout(origin noc.TileID, tiles []int) float64 {
	if len(tiles) == 0 {
		return 0
	}
	worst := 0.0
	for _, t := range tiles {
		l := ch.CtrlLatency(origin, noc.TileID(t)) + ch.CtrlLatency(noc.TileID(t), origin)
		if l > worst {
			worst = l
		}
	}
	return worst
}

// Advance closes a contention window.
func (ch *Chassis) Advance(cycles uint64) {
	ch.Net.Advance(cycles)
	ch.Mem.Advance(cycles)
}

// Audit cross-checks the L1 directory against the actual L1 contents: the
// directory must never claim a copy a cache does not hold, dirty ownership
// must be unique, and MOSI invariants must hold. Tests and the integration
// suite run it after mixed traffic.
func (ch *Chassis) Audit() error {
	if err := ch.L1Dir.CheckInvariants(); err != nil {
		return err
	}
	var failure error
	check := func(addr cache.Addr, holder int) {
		if failure != nil {
			return
		}
		_, inD := ch.L1D[holder].Peek(addr)
		_, inI := ch.L1I[holder].Peek(addr)
		if !inD && !inI {
			failure = fmt.Errorf("sim: L1 directory lists core %d for %#x but no L1 holds it", holder, uint64(addr))
		}
	}
	for t := 0; t < ch.Cfg.Cores; t++ {
		ch.L1D[t].ForEach(func(addr cache.Addr, line *cache.Line) {
			if line.State.Dirty() {
				e := ch.L1Dir.Lookup(addr)
				if e == nil || e.Owner != t {
					failure = fmt.Errorf("sim: core %d holds %#x dirty without directory ownership", t, uint64(addr))
				}
			}
		})
	}
	// Every directory holder must actually hold a copy.
	for _, addr := range ch.l1DirAddrs() {
		for _, h := range ch.L1Dir.Holders(addr) {
			check(addr, h)
		}
	}
	return failure
}

// l1DirAddrs enumerates the blocks the L1 directory tracks by walking the
// caches (the directory does not expose iteration; contents are the union
// of all L1 lines plus possibly stale entries, which Audit flags).
func (ch *Chassis) l1DirAddrs() []cache.Addr {
	seen := map[cache.Addr]bool{}
	var out []cache.Addr
	for t := 0; t < ch.Cfg.Cores; t++ {
		collect := func(addr cache.Addr, _ *cache.Line) {
			if !seen[addr] {
				seen[addr] = true
				out = append(out, addr)
			}
		}
		ch.L1D[t].ForEach(collect)
		ch.L1I[t].ForEach(collect)
	}
	return out
}

// Reset clears all chassis state.
func (ch *Chassis) Reset() {
	ch.Net.Reset()
	ch.Mem.Reset()
	ch.L1Dir.Reset()
	for i := range ch.L1I {
		ch.L1I[i].Reset()
		ch.L1D[i].Reset()
	}
}
