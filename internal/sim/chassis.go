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

	// dists[core] measures hops from core's tile, for directory
	// transactions. Built once: minting a closure per transaction was a
	// per-reference heap allocation.
	dists []coherence.Nearest
	// inval backs L1Info.Invalidated.
	inval [64]int
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
	ch := &Chassis{
		Cfg:   cfg,
		Topo:  topo,
		Net:   noc.NewNetwork(topo, cfg.Link),
		Mem:   mem.New(cfg.memConfig()),
		L1Dir: coherence.NewDirectory(cfg.Cores),
	}
	if cfg.LinkQueues {
		ch.Net.EnableLinkQueues()
	}
	l1geom := cfg.L1Geometry()
	ch.dists = make([]coherence.Nearest, cfg.Cores)
	for i := 0; i < cfg.Cores; i++ {
		ch.L1I = append(ch.L1I, cache.New(l1geom))
		ch.L1D = append(ch.L1D, cache.New(l1geom))
		tile := noc.TileID(i)
		ch.dists[i] = func(t int) int { return ch.Hops(tile, noc.TileID(t)) }
	}
	return ch
}

// L1Info describes the chip-wide L1 state relevant to one access, observed
// before the access updates it.
type L1Info struct {
	// RemoteOwner is a core whose L1 holds the block dirty (M), or -1.
	// Such an access must be serviced L1-to-L1.
	RemoteOwner int
	// Invalidated lists cores whose L1 copies a write invalidated, or is
	// nil. It is a view of a buffer the chassis owns and stays valid only
	// until the next L1Service call.
	Invalidated []int
}

// L1Service performs the L1-level bookkeeping for an access by core: it
// reports whether a remote L1 holds the block dirty, applies write
// invalidations to the other L1s, installs the block in the requestor's
// L1, and keeps the L1 directory consistent (including evictions).
//
//rnuca:hotpath
func (ch *Chassis) L1Service(core int, r trace.Ref) L1Info {
	addr := r.BlockAddr()
	info := L1Info{RemoteOwner: -1}
	if e, ok := ch.L1Dir.Lookup(addr); ok && e.Owner >= 0 && e.Owner != core {
		// The owner's L1 must actually still hold it (the directory is
		// kept in sync, so this is an audit-grade double check).
		if _, ok := ch.L1D[e.Owner].Peek(addr); ok {
			info.RemoteOwner = e.Owner
		}
	}

	if r.IsWrite() {
		act := ch.L1Dir.Write(addr, core, ch.HopsFrom(core))
		for _, c := range act.Invalidated {
			ch.L1D[c].Invalidate(addr)
			ch.L1I[c].Invalidate(addr)
		}
		// The victim eviction below is another directory transaction, so
		// the list is copied out of the directory's buffer.
		if n := copy(ch.inval[:], act.Invalidated); n > 0 {
			info.Invalidated = ch.inval[:n:n]
		}
	} else {
		ch.L1Dir.Read(addr, core, ch.HopsFrom(core))
	}

	// Install in the requestor's L1 (I or D by access kind).
	l1 := ch.L1D[core]
	if r.Kind == trace.IFetch {
		l1 = ch.L1I[core]
	}
	if line, hit := l1.Lookup(addr); hit {
		if r.IsWrite() {
			line.State = cache.Modified
		}
	} else {
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
	}
	return info
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

// HopsFrom returns the hop distance from core's tile to any tile, the
// distance a directory transaction by core picks its supplier with.
func (ch *Chassis) HopsFrom(core int) coherence.Nearest { return ch.dists[core] }

// CtrlLatency charges a control message traversal.
func (ch *Chassis) CtrlLatency(from, to noc.TileID) float64 {
	return ch.Net.Latency(from, to, noc.CtrlBytes)
}

// DataLatency charges a data (cache block) traversal.
func (ch *Chassis) DataLatency(from, to noc.TileID) float64 {
	return ch.Net.Latency(from, to, noc.DataBytes)
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
				if e, ok := ch.L1Dir.Lookup(addr); !ok || e.Owner != t {
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
