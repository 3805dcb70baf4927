package design

import (
	"rnuca/internal/cache"
	"rnuca/internal/coherence"
	"rnuca/internal/noc"
	"rnuca/internal/sim"
	"rnuca/internal/trace"
)

// PrivateBroadcast is the private-L2 organization with broadcast-based
// coherence instead of a distributed directory — the token-coherence
// style alternative the paper describes in §2.2: "A similar request in
// token-coherence requires a broadcast followed by a response from the
// farthest tile."
//
// On a local L2 miss the requestor broadcasts to every tile; the latency
// is bounded by the farthest tile's response, and every probe loads the
// network and a remote slice's tag array. Compared with the directory
// version this trades the directory indirection (three traversals) for
// bandwidth and power — the scaling problem the paper cites for
// broadcast-based designs ("broadcast-based mechanisms do not scale due
// to the bandwidth and power overheads of probing multiple cache slices
// per access").
//
// State tracking reuses the same full-map directory structure internally
// (it is exact, as a snooping filter would be), but the *timing* follows
// the broadcast protocol.
type PrivateBroadcast struct {
	*Private
}

// NewPrivateBroadcast builds the broadcast variant of the private design.
func NewPrivateBroadcast(ch *sim.Chassis) *PrivateBroadcast {
	return &PrivateBroadcast{Private: NewPrivate(ch)}
}

// Name implements sim.Design.
func (d *PrivateBroadcast) Name() string { return "Pb" }

// Access implements sim.Design.
//
//rnuca:hotpath
func (d *PrivateBroadcast) Access(r trace.Ref) sim.Cost {
	var cost sim.Cost
	ch := d.ch
	core := r.Core
	tile := noc.TileID(core)
	addr := r.BlockAddr()

	l1 := ch.L1Service(core, r)

	if line, extra := d.probe(tile, addr); line != nil {
		cost.L2 = float64(ch.Cfg.L2HitCycles) + extra
		if r.IsWrite() {
			cost.L2Coh += d.broadcastUpgrade(core, addr, line)
		}
		return cost
	}

	// Local miss: broadcast probe to every tile. Latency is the farthest
	// round trip plus a remote tag probe; every tile is traversed, which
	// the traffic accounting captures.
	bcast := d.broadcastCost(tile)

	var act coherence.Action
	if r.IsWrite() {
		act = d.dir.Write(addr, core, ch.HopsFrom(core))
		d.drop(act.Invalidated, addr)
	} else {
		act = d.dir.Read(addr, core, ch.HopsFrom(core))
	}

	lat := float64(ch.Cfg.L2HitCycles) + bcast
	switch {
	case l1.RemoteOwner >= 0:
		owner := noc.TileID(l1.RemoteOwner)
		lat += float64(ch.Cfg.L2HitCycles) + float64(ch.Cfg.L1HitCycles) + ch.DataLatency(owner, tile)
		cost.L1toL1 = lat
	case act.Source == coherence.SourceOwner || act.Source == coherence.SourceSharer:
		provider := noc.TileID(act.Provider)
		lat += float64(ch.Cfg.L2HitCycles) + ch.DataLatency(provider, tile)
		cost.L2Coh = lat
	default:
		// No on-chip copy: after the broadcast misses everywhere, fetch
		// from memory via the local controller path.
		lat += ch.Mem.Access(ch.Net, tile, uint64(addr))
		cost.OffChip = lat
		cost.OffChipMiss = true
	}

	d.installLocal(core, addr, r)
	return cost
}

// broadcastCost charges probes to every other tile and the farthest
// response, which bounds the transaction latency.
func (d *PrivateBroadcast) broadcastCost(from noc.TileID) float64 {
	ch := d.ch
	worst := 0.0
	for t := 0; t < ch.Cfg.Cores; t++ {
		if noc.TileID(t) == from {
			continue
		}
		rt := ch.CtrlLatency(from, noc.TileID(t)) + ch.CtrlLatency(noc.TileID(t), from)
		if rt > worst {
			worst = rt
		}
	}
	return worst
}

// broadcastUpgrade invalidates remote copies of a locally written block.
func (d *PrivateBroadcast) broadcastUpgrade(core int, addr cache.Addr, line *cache.Line) float64 {
	line.State = cache.Modified
	others := 0
	if e, ok := d.dir.Lookup(addr); ok {
		others = e.Sharers.Clear(core).Count()
		if e.Owner >= 0 && e.Owner != core {
			others++
		}
	}
	tile := noc.TileID(core)
	act := d.dir.Write(addr, core, d.ch.HopsFrom(core))
	d.drop(act.Invalidated, addr)
	if others == 0 {
		return 0
	}
	return d.broadcastCost(tile)
}
