// Package rnuca implements the paper's primary contribution: Reactive NUCA
// block placement. It provides
//
//   - rotational-ID (RID) assignment over the tile grid (§4.1),
//   - the boolean rotational-interleaving indexing function that locates a
//     block in a fixed-center cluster with exactly one cache probe,
//   - fixed-center clusters, one type for every size: size 1 (a core's
//     private data), size n indexed by rotational interleaving (n = 4 for
//     instructions), size n indexed by standard interleaving where no RID
//     assignment exists (size 8 on a 4x4 torus), and the whole chip
//     (shared data), plus the fixed-boundary clusters of §4.4, and
//   - the placement engine that maps a classified access to the L2 slice
//     that holds the block: instructions to the instruction cluster,
//     private data to its owner's private cluster (size 1 in the paper's
//     configuration, any size per core under §4.4), shared data to the
//     whole chip.
//
// The key invariant (verified by tests): a slice with rotational ID r
// stores exactly the blocks whose interleaving bits a satisfy
//
//	(a + r + 1) mod n == 0,
//
// regardless of which cluster is asking. Each slice therefore stores the
// same 1/n-th of the working set on behalf of every cluster it belongs to;
// clusters replicate data across the chip without duplicating it within
// any slice's neighborhood, and lookup needs a single probe.
package rnuca

import (
	"fmt"
	"math/bits"

	"rnuca/internal/noc"
)

// RID is a rotational ID in [0, n) for a size-n cluster scheme.
type RID int

// RIDMap assigns every tile a rotational ID for one cluster size. The OS
// assigns RID 0 to a random tile (the origin); consecutive tiles in a row
// receive consecutive RIDs, and consecutive tiles in a column receive RIDs
// that differ by log2(n), both wrapping modulo n (§4.1).
type RIDMap struct {
	topo    noc.Topology
	n       int // cluster size, power of two
	log2n   int
	originX int // the paper lets the OS pick a random origin tile
	originY int
}

// NewRIDMap builds the RID assignment for clusters of size n over the
// given topology, with the RID-0 origin at tile origin. n must be a power
// of two, at least 1, and at most the tile count.
//
// Rotational interleaving additionally requires that rows and columns wrap
// consistently: n must divide the grid width (for row wraparound) and
// n must divide width*height (for column wraparound composed with the row
// rule). For the paper's configurations (n=4 on 4x4 and 4x2 grids) both
// hold. NewRIDMap panics otherwise; callers choose cluster sizes from
// ValidClusterSizes.
func NewRIDMap(topo noc.Topology, n int, origin noc.TileID) *RIDMap {
	if n < 1 || n&(n-1) != 0 {
		panic(fmt.Sprintf("rnuca: cluster size %d not a power of two", n))
	}
	w, h := topo.Dims()
	if n > w*h {
		panic(fmt.Sprintf("rnuca: cluster size %d exceeds %d tiles", n, w*h))
	}
	if n > 1 && w%n != 0 && n%w != 0 {
		panic(fmt.Sprintf("rnuca: cluster size %d incompatible with width %d", n, w))
	}
	oc := noc.CoordOf(topo, origin)
	return &RIDMap{
		topo:    topo,
		n:       n,
		log2n:   bits.TrailingZeros(uint(n)),
		originX: oc.X,
		originY: oc.Y,
	}
}

// N returns the cluster size.
func (m *RIDMap) N() int { return m.n }

// RID returns the rotational ID of tile t.
//
// With row step +1 and column step +log2(n) from the origin:
//
//	RID(x, y) = (x - x0) + log2(n)*(y - y0)  mod n
func (m *RIDMap) RID(t noc.TileID) RID {
	if m.n == 1 {
		return 0
	}
	c := noc.CoordOf(m.topo, t)
	v := (c.X - m.originX) + m.log2n*(c.Y-m.originY)
	return RID(((v % m.n) + m.n) % m.n)
}

// InterleaveBits extracts the log2(n) address bits immediately above the
// set-index bits that select the slice within a cluster. k is the bit
// offset where those interleaving bits start.
func (m *RIDMap) InterleaveBits(addr uint64, k uint) int {
	if m.n == 1 {
		return 0
	}
	return int((addr >> k) & uint64(m.n-1))
}

// IndexResult is the outcome R of the paper's boolean indexing function:
//
//	R = (Addr[k+log2(n)-1 : k] + RID + 1) AND (n-1)
//
// For size-4 clusters R selects among the center tile and three of its
// neighbors. We use the self-consistent direction mapping
//
//	R=0 -> center, R=1 -> left, R=2 -> above, R=3 -> right
//
// (see DESIGN.md: with this mapping every slice stores the address residue
// class (a + RID + 1) ≡ 0 mod n, which is what makes replicas
// capacity-neutral; the paper's Figure 6 shows the physically folded die
// where the same mapping appears as right/above/left).
type IndexResult int

// Index evaluates the indexing function for a center tile and address bits.
func (m *RIDMap) Index(center noc.TileID, addr uint64, k uint) IndexResult {
	a := m.InterleaveBits(addr, k)
	r := int(m.RID(center))
	return IndexResult((a + r + 1) & (m.n - 1))
}

// SliceFor returns the L2 slice that caches the block with the given
// address bits for a requestor whose fixed-center cluster is centered at
// center. This is the single-probe lookup: one boolean evaluation, one
// slice probed.
func (m *RIDMap) SliceFor(center noc.TileID, addr uint64, k uint) noc.TileID {
	switch m.n {
	case 1:
		return center
	case 2:
		// Size-2 cluster: center and its right neighbor hold the two
		// residues.
		if m.Index(center, addr, k) == 0 {
			return center
		}
		c := noc.CoordOf(m.topo, center)
		return noc.TileAt(m.topo, c.X+1, c.Y)
	case 4:
		c := noc.CoordOf(m.topo, center)
		switch m.Index(center, addr, k) {
		case 0:
			return center
		case 1:
			return noc.TileAt(m.topo, c.X-1, c.Y) // left
		case 2:
			return noc.TileAt(m.topo, c.X, c.Y-1) // above
		default:
			return noc.TileAt(m.topo, c.X+1, c.Y) // right
		}
	default:
		// For n equal to the full tile count, rotational interleaving
		// coincides with standard address interleaving: the slice is the
		// unique tile whose RID satisfies (a + RID + 1) ≡ 0 (mod n).
		// We reach it by direct computation from the residue.
		want := ((-(m.InterleaveBits(addr, k) + 1) % m.n) + m.n) % m.n
		return m.tileWithRIDNear(center, RID(want))
	}
}

// tileWithRIDNear returns the closest tile (by hop distance) whose RID is
// rid, breaking ties by lowest tile ID for determinism.
func (m *RIDMap) tileWithRIDNear(from noc.TileID, rid RID) noc.TileID {
	best := noc.TileID(-1)
	bestHops := 1 << 30
	for t := 0; t < m.topo.Tiles(); t++ {
		id := noc.TileID(t)
		if m.RID(id) != rid {
			continue
		}
		h := m.topo.Hops(from, id)
		if h < bestHops || (h == bestHops && id < best) {
			best, bestHops = id, h
		}
	}
	return best
}

// ClusterTiles returns the member tiles of the fixed-center cluster
// centered at center, in residue order (the tile serving residue a at
// position a of the slice). Size-1 returns just the center; size-4 returns
// center/left/above/right; size-n equal to the tile count returns every
// tile ordered by the residue it serves.
func (m *RIDMap) ClusterTiles(center noc.TileID) []noc.TileID {
	out := make([]noc.TileID, m.n)
	for a := 0; a < m.n; a++ {
		// Reconstruct a block address with interleave bits a at k=0.
		out[a] = m.SliceFor(center, uint64(a), 0)
	}
	return out
}

// StoresResidue reports whether slice s stores blocks with interleave bits
// a under this RID map — the invariant (a + RID(s) + 1) ≡ 0 mod n.
func (m *RIDMap) StoresResidue(s noc.TileID, a int) bool {
	if m.n == 1 {
		return true
	}
	return (a+int(m.RID(s))+1)%m.n == 0
}

// ValidClusterSizes returns the power-of-two cluster sizes for which
// rotational interleaving preserves its invariant on the given topology.
// On a 4x4 torus these are 1, 2, 4 and 16: size-8 admits no linear RID
// assignment covering all eight residues (see DESIGN.md §2), so size-8
// clusters fall back to fixed-center standard interleaving (§4.4 of the
// paper allows any interleaving per cluster type).
func ValidClusterSizes(topo noc.Topology) []int {
	w, h := topo.Dims()
	var out []int
	for n := 1; n <= w*h; n <<= 1 {
		if coversAllResidues(topo, n) {
			out = append(out, n)
		}
	}
	return out
}

func coversAllResidues(topo noc.Topology, n int) bool {
	w, h := topo.Dims()
	if n == 1 || n == w*h {
		// Size-1 is the local slice; size-(all tiles) degenerates to
		// standard address interleaving where wraparound never matters
		// because each RID occurs exactly once.
		return true
	}
	m := NewRIDMapSafe(topo, n, 0)
	if m == nil {
		return false
	}
	// Wraparound must be consistent: RID must be well defined under torus
	// wrap, i.e. RID(x+w, y) == RID(x, y) and RID(x, y+h) == RID(x, y).
	// (This is what rules out size-8 on a 4x4 torus.)
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			base := m.RID(noc.TileAt(topo, x, y))
			if m.ridAt(x+w, y) != base || m.ridAt(x, y+h) != base {
				return false
			}
		}
	}
	// And every tile's cluster must contain each residue exactly once.
	for t := 0; t < topo.Tiles(); t++ {
		seen := make(map[noc.TileID]bool, n)
		for _, ct := range m.ClusterTiles(noc.TileID(t)) {
			if seen[ct] {
				return false
			}
			seen[ct] = true
		}
		for a := 0; a < n; a++ {
			if !m.StoresResidue(m.SliceFor(noc.TileID(t), uint64(a), 0), a) {
				return false
			}
		}
	}
	return true
}

// ridAt computes the raw (unwrapped-coordinate) RID to check wrap
// consistency.
func (m *RIDMap) ridAt(x, y int) RID {
	if m.n == 1 {
		return 0
	}
	v := (x - m.originX) + m.log2n*(y-m.originY)
	return RID(((v % m.n) + m.n) % m.n)
}

// NewRIDMapSafe is NewRIDMap returning nil instead of panicking, for use
// by size probing.
func NewRIDMapSafe(topo noc.Topology, n int, origin noc.TileID) (m *RIDMap) {
	defer func() {
		if recover() != nil {
			m = nil
		}
	}()
	return NewRIDMap(topo, n, origin)
}
