// Package design implements the five L2 organizations the paper evaluates
// (§5.1): private (P), ASR (A), shared (S), R-NUCA (R), and the ideal
// design (I). All five run on the shared sim.Chassis (tiles, torus, L1s,
// memory) and on Table 1's L2: one slice with a 16-entry victim cache per
// tile. They differ only in where blocks live, how they are found, and
// what coherence work each access performs.
//
// Every design embeds one slices value: the per-tile slices and victim
// caches, and the one copy of each operation on them — a probe that
// swaps victim hits back, a fill that spills the slice's LRU line into
// the victim cache, write-invalidation drops, page purges, the
// address-interleaved home, and serveAt, the cost of finding a block at
// one known slice. Only slices touches a victim cache. Each design's
// Access keeps only its placement and the network, directory and L1
// legs it pays for.
package design

import (
	"rnuca/internal/cache"
	"rnuca/internal/noc"
	"rnuca/internal/sim"
	"rnuca/internal/trace"
)

// victimSwapCycles is the extra latency of a victim-cache hit, which
// swaps the block back into its slice.
const victimSwapCycles = 2

// slices is the chip's L2: one slice and one victim cache per tile.
type slices struct {
	ch     *sim.Chassis
	k      uint // interleave offset: the address bits above a slice's set index
	l2     []*cache.Cache
	victim []*cache.VictimCache
}

func newSlices(ch *sim.Chassis) slices {
	s := slices{
		ch:     ch,
		k:      ch.Cfg.InterleaveOffset(),
		l2:     make([]*cache.Cache, ch.Cfg.Cores),
		victim: make([]*cache.VictimCache, ch.Cfg.Cores),
	}
	geom := ch.Cfg.L2Geometry()
	for i := range s.l2 {
		s.l2[i] = cache.New(geom)
		s.victim[i] = cache.NewVictimCache(ch.Cfg.VictimEntries)
	}
	return s
}

// reset empties every slice and victim cache.
func (s *slices) reset() { *s = newSlices(s.ch) }

// home returns addr's address-interleaved slice: the bits just above the
// set index pick the tile (§4.1).
//
//rnuca:hotpath
func (s *slices) home(addr cache.Addr) noc.TileID {
	return noc.TileID((uint64(addr) >> s.k) % uint64(s.ch.Cfg.Cores))
}

// probe looks addr up in tile's slice and, on a miss there, in the
// tile's victim cache, swapping a victim hit back into the slice at
// victimSwapCycles extra. line is nil when both miss; otherwise it is
// the slice's line, valid until the slice next changes. The line a
// swap-back evicts from the slice is discarded, not spilled.
//
//rnuca:hotpath
func (s *slices) probe(tile noc.TileID, addr cache.Addr) (line *cache.Line, extra float64) {
	slice := s.l2[tile]
	if line, hit := slice.Lookup(addr); hit {
		return line, 0
	}
	v, ok := s.victim[tile].Take(addr)
	if !ok {
		return nil, 0
	}
	slice.Insert(addr, v.State, v.Class)
	line, _ = slice.Peek(addr)
	return line, victimSwapCycles
}

// fill inserts addr into tile's slice and spills the slice's LRU line
// into the tile's victim cache. It returns the block the victim cache
// displaced off the tile, if any.
//
//rnuca:hotpath
func (s *slices) fill(tile noc.TileID, addr cache.Addr, st cache.State, class cache.Class) (cache.Addr, cache.Line, bool) {
	v := s.l2[tile].Insert(addr, st, class)
	if !v.Valid {
		return 0, cache.Line{}, false
	}
	return s.victim[tile].Put(v.Addr, v.Line)
}

// ensure fills addr at tile unless the slice already holds it.
//
//rnuca:hotpath
func (s *slices) ensure(tile noc.TileID, addr cache.Addr, st cache.State, class cache.Class) {
	if _, ok := s.l2[tile].Peek(addr); !ok {
		s.fill(tile, addr, st, class)
	}
}

// markModified marks tile's slice copy of addr, if any, Modified.
//
//rnuca:hotpath
func (s *slices) markModified(tile noc.TileID, addr cache.Addr) {
	if line, ok := s.l2[tile].Peek(addr); ok {
		line.State = cache.Modified
	}
}

// drop removes addr from the slice and victim cache of every tile in
// tiles: a directory write-invalidation.
//
//rnuca:hotpath
func (s *slices) drop(tiles []int, addr cache.Addr) {
	for _, t := range tiles {
		s.l2[t].Invalidate(addr)
		s.victim[t].Take(addr)
	}
}

// purge removes every block in [lo, hi) from tile's slice, for an R-NUCA
// page re-classification, and returns the number removed. Copies in the
// tile's victim cache are not purged.
//
//rnuca:hotpath
func (s *slices) purge(tile noc.TileID, lo, hi cache.Addr) int {
	return s.l2[tile].InvalidateRange(lo, hi, nil)
}

// serveAt charges a request from tile for addr at the one slice that
// may hold it: a control message to the slice and the L2 hit time, then
// on a hit any swap-back and the data reply, and on a miss the memory
// access through the slice, the data reply, and a fill in state st.
//
//rnuca:hotpath
func (s *slices) serveAt(cost *sim.Cost, tile, slice noc.TileID, addr cache.Addr, st cache.State, class cache.Class) {
	ch := s.ch
	req := ch.CtrlLatency(tile, slice) + float64(ch.Cfg.L2HitCycles)
	if line, extra := s.probe(slice, addr); line != nil {
		cost.L2 = req + extra + ch.DataLatency(slice, tile)
		return
	}
	cost.OffChip = req + ch.Mem.Access(ch.Net, slice, uint64(addr)) + ch.DataLatency(slice, tile)
	cost.OffChipMiss = true
	s.fill(slice, addr, st, class)
}

// stateFor is the state a reference fills its block in.
func stateFor(r trace.Ref) cache.State {
	if r.IsWrite() {
		return cache.Modified
	}
	return cache.Shared
}

// Advance implements sim.Design: the slices keep no per-window state.
func (s *slices) Advance(uint64) {}

// SliceOccupancy exposes per-slice line counts for capacity tests.
func (s *slices) SliceOccupancy(tile noc.TileID) int { return s.l2[tile].Lines() }

// SliceStats exposes per-slice cache statistics.
func (s *slices) SliceStats(tile noc.TileID) cache.Stats { return s.l2[tile].Stats() }

// BankAccesses implements sim.BankMeter: cumulative per-slice (bank) L2
// accesses, hits plus misses, in tile order, for the flight recorder.
func (s *slices) BankAccesses() []uint64 {
	out := make([]uint64, len(s.l2))
	for i, c := range s.l2 {
		st := c.Stats()
		out[i] = st.Hits + st.Misses
	}
	return out
}
