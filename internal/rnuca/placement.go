package rnuca

import (
	"fmt"
	"sort"

	"rnuca/internal/cache"
	"rnuca/internal/noc"
)

// Placement is the R-NUCA placement engine (§4.2). Given a classified
// access it returns the single L2 slice that holds the block. Each class
// lives in a fixed-center cluster of its own size, centered at the
// requestor:
//
//   - private data  -> the size-1 cluster: the requestor's local slice
//     (§4.4 lets a thread spill over a larger private cluster);
//   - shared data   -> the size-(all tiles) cluster: standard address
//     interleaving across every slice;
//   - instructions  -> the size-n cluster indexed with rotational
//     interleaving (n = 4 in the paper's configuration), replicated
//     across the chip.
//
// Every modifiable block (private or shared) maps to exactly one slice, so
// no L2 coherence mechanism is needed; only read-only instruction blocks
// are replicated.
type Placement struct {
	topo noc.Topology

	// k is the bit offset of the interleaving field: the address bits
	// immediately above the L2 slice's set-index bits (§4.1).
	k uint

	// instr is the instruction cluster; priv holds each core's private
	// cluster, size 1 everywhere in the paper's main configuration.
	instr cluster
	priv  []cluster
}

// cluster is one fixed-center cluster size and the map that indexes a
// cluster of that size: rotational interleaving where the size admits
// it, fixed-center standard interleaving otherwise (size 8 on a 4x4
// torus). A single slice and the whole chip need neither: the first is
// the center itself, the second the address interleaving of shared data.
type cluster struct {
	size     int
	rid      *RIDMap
	fallback *FixedCenterStandard
}

func newCluster(topo noc.Topology, size int, origin noc.TileID) cluster {
	c := cluster{size: size}
	switch {
	case size == 1 || size == topo.Tiles():
	case coversAllResidues(topo, size):
		c.rid = NewRIDMap(topo, size, origin)
	default:
		c.fallback = NewFixedCenterStandard(topo, size)
	}
	return c
}

// CheckClusterSize reports whether a cluster of n slices can be built
// on a chip of the given tile count: n must be a power of two no
// larger than the chip. kind names the cluster in the error
// ("instruction", "private").
func CheckClusterSize(kind string, n, tiles int) error {
	if n < 1 || n&(n-1) != 0 {
		return fmt.Errorf("rnuca: %s cluster size %d not a power of two", kind, n)
	}
	if n > tiles {
		return fmt.Errorf("rnuca: %s cluster size %d exceeds %d tiles", kind, n, tiles)
	}
	return nil
}

// NewPlacement builds a placement engine. instrClusterSize selects the
// instruction cluster size. privSizes gives each core's private cluster
// size, one per tile (§4.4: "heterogeneous workloads ... may favor a
// fixed-center cluster of appropriate size for private data, effectively
// spilling blocks to the neighboring slices to lower cache capacity
// pressure while retaining fast lookup"); nil is the paper's size 1
// everywhere. k is the interleaving bit offset (block-offset bits +
// slice set-index bits). origin seeds RID 0 (the OS picks a random tile;
// simulations pass a fixed origin for determinism).
func NewPlacement(topo noc.Topology, instrClusterSize int, privSizes []int, k uint, origin noc.TileID) (*Placement, error) {
	tiles := topo.Tiles()
	if err := CheckClusterSize("instruction", instrClusterSize, tiles); err != nil {
		return nil, err
	}
	if privSizes != nil && len(privSizes) != tiles {
		return nil, fmt.Errorf("rnuca: %d private cluster sizes for %d tiles", len(privSizes), tiles)
	}
	for _, n := range privSizes {
		if err := CheckClusterSize("private", n, tiles); err != nil {
			return nil, err
		}
	}
	built := map[int]cluster{instrClusterSize: newCluster(topo, instrClusterSize, origin)}
	p := &Placement{topo: topo, k: k, instr: built[instrClusterSize], priv: make([]cluster, tiles)}
	for t := range p.priv {
		size := 1
		if privSizes != nil {
			size = privSizes[t]
		}
		if _, ok := built[size]; !ok {
			built[size] = newCluster(topo, size, origin)
		}
		p.priv[t] = built[size]
	}
	return p, nil
}

// slice returns the member of c's cluster centered at center that holds
// addr.
func (p *Placement) slice(c *cluster, center noc.TileID, addr uint64) noc.TileID {
	switch {
	case c.size == 1:
		return center
	case c.rid != nil:
		return c.rid.SliceFor(center, addr, p.k)
	case c.fallback != nil:
		return c.fallback.SliceFor(center, addr, p.k)
	default:
		return p.SharedSlice(addr)
	}
}

// SliceFor returns the one slice that holds addr for a requestor at req
// when the block's page has the given class:
//
//   - private: a member of the requestor's private cluster, its local
//     slice at size 1. Private clusters never replicate: each (owner,
//     address) pair has exactly one location, so no coherence is needed;
//   - instruction: the member of the requestor's instruction cluster
//     that rotational interleaving (or standard interleaving, for
//     fallback sizes) selects, one replica per cluster;
//   - shared, or any other class: the address-interleaved home.
func (p *Placement) SliceFor(class cache.Class, req noc.TileID, addr uint64) noc.TileID {
	switch class {
	case cache.ClassPrivate:
		return p.slice(&p.priv[req], req, addr)
	case cache.ClassInstruction:
		return p.slice(&p.instr, req, addr)
	default:
		return p.SharedSlice(addr)
	}
}

// PrivateClusterTiles returns the slices a private page owned at owner may
// occupy, for purge on re-classification.
func (p *Placement) PrivateClusterTiles(owner noc.TileID) []noc.TileID {
	switch c := &p.priv[owner]; {
	case c.size == 1:
		return []noc.TileID{owner}
	case c.rid != nil:
		return c.rid.ClusterTiles(owner)
	case c.fallback != nil:
		return c.fallback.Members(owner)
	default:
		all := make([]noc.TileID, p.topo.Tiles())
		for i := range all {
			all[i] = noc.TileID(i)
		}
		return all
	}
}

// SharedSlice returns the slice for shared data: standard address
// interleaving over all tiles (the size-16 cluster of the paper's
// configuration, which all sharers fully overlap).
func (p *Placement) SharedSlice(addr uint64) noc.TileID {
	return noc.TileID((addr >> p.k) % uint64(p.topo.Tiles()))
}

// InstructionReplicaSlices returns every slice on the chip that may hold a
// replica of the instruction block at addr: one slice per cluster region.
// The designs use it to account replication degree and to invalidate all
// replicas of a page if it is ever re-classified.
func (p *Placement) InstructionReplicaSlices(addr uint64) []noc.TileID {
	seen := make(map[noc.TileID]bool)
	var out []noc.TileID
	for t := 0; t < p.topo.Tiles(); t++ {
		s := p.slice(&p.instr, noc.TileID(t), addr)
		if !seen[s] {
			seen[s] = true
			out = append(out, s)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// ReplicationDegree returns how many distinct slices hold replicas of a
// given instruction block (the chip-wide replica count). For rotational
// size-n clusters on an N-tile chip this is N/n.
func (p *Placement) ReplicationDegree(addr uint64) int {
	return len(p.InstructionReplicaSlices(addr))
}

// FixedCenterStandard provides fixed-center clusters indexed with standard
// address interleaving (§4.4: "indexing within a cluster can use standard
// address interleaving or rotational interleaving"). It exists for cluster
// sizes where rotational interleaving has no valid RID assignment (size-8
// on a 4x4 torus); the cost relative to rotational interleaving is that
// distinct centers with overlapping neighborhoods no longer share replicas,
// which the Figure 11 ablation quantifies.
type FixedCenterStandard struct {
	topo    noc.Topology
	n       int
	members map[noc.TileID][]noc.TileID
}

// NewFixedCenterStandard precomputes, for every center, the n member tiles:
// the center plus its n-1 nearest neighbors (ties broken by tile ID), in
// deterministic order.
func NewFixedCenterStandard(topo noc.Topology, n int) *FixedCenterStandard {
	f := &FixedCenterStandard{
		topo:    topo,
		n:       n,
		members: make(map[noc.TileID][]noc.TileID, topo.Tiles()),
	}
	for t := 0; t < topo.Tiles(); t++ {
		center := noc.TileID(t)
		ids := make([]noc.TileID, topo.Tiles())
		for i := range ids {
			ids[i] = noc.TileID(i)
		}
		sort.Slice(ids, func(i, j int) bool {
			hi, hj := topo.Hops(center, ids[i]), topo.Hops(center, ids[j])
			if hi != hj {
				return hi < hj
			}
			return ids[i] < ids[j]
		})
		f.members[center] = ids[:n]
	}
	return f
}

// SliceFor returns the member slice for addr in the cluster centered at
// center, using standard interleaving on the bits at offset k.
func (f *FixedCenterStandard) SliceFor(center noc.TileID, addr uint64, k uint) noc.TileID {
	m := f.members[center]
	return m[int((addr>>k)%uint64(f.n))]
}

// Members returns the cluster members for a center.
func (f *FixedCenterStandard) Members(center noc.TileID) []noc.TileID {
	return f.members[center]
}

// FixedBoundaryCluster is the §4.4 extension: a fixed rectangular region of
// tiles sharing data with standard interleaving, suitable for partitioning
// a CMP into non-overlapping domains (the paper's "virtual domains" for
// workload consolidation). R-NUCA's main configuration does not use these;
// they are exercised by the partitioning example and its tests.
type FixedBoundaryCluster struct {
	topo   noc.Topology
	x0, y0 int
	w, h   int
	tiles  []noc.TileID
}

// NewFixedBoundaryCluster builds the cluster covering the w x h rectangle
// with top-left corner (x0, y0). The rectangle must fit inside the grid.
func NewFixedBoundaryCluster(topo noc.Topology, x0, y0, w, h int) (*FixedBoundaryCluster, error) {
	gw, gh := topo.Dims()
	if x0 < 0 || y0 < 0 || w <= 0 || h <= 0 || x0+w > gw || y0+h > gh {
		return nil, fmt.Errorf("rnuca: rectangle (%d,%d)+%dx%d outside %dx%d grid", x0, y0, w, h, gw, gh)
	}
	c := &FixedBoundaryCluster{topo: topo, x0: x0, y0: y0, w: w, h: h}
	for dy := 0; dy < h; dy++ {
		for dx := 0; dx < w; dx++ {
			c.tiles = append(c.tiles, noc.TileAt(topo, x0+dx, y0+dy))
		}
	}
	return c, nil
}

// Tiles returns the member tiles in row-major order.
func (c *FixedBoundaryCluster) Tiles() []noc.TileID { return c.tiles }

// Contains reports whether tile t is a member.
func (c *FixedBoundaryCluster) Contains(t noc.TileID) bool {
	cc := noc.CoordOf(c.topo, t)
	return cc.X >= c.x0 && cc.X < c.x0+c.w && cc.Y >= c.y0 && cc.Y < c.y0+c.h
}

// SliceFor returns the member slice for addr using standard interleaving
// at bit offset k.
func (c *FixedBoundaryCluster) SliceFor(addr uint64, k uint) noc.TileID {
	return c.tiles[int((addr>>k)%uint64(len(c.tiles)))]
}

// Partition splits the grid into equal non-overlapping fixed-boundary
// clusters of pw x ph tiles. Grid dimensions must be divisible by pw/ph.
func Partition(topo noc.Topology, pw, ph int) ([]*FixedBoundaryCluster, error) {
	gw, gh := topo.Dims()
	if pw <= 0 || ph <= 0 || gw%pw != 0 || gh%ph != 0 {
		return nil, fmt.Errorf("rnuca: %dx%d does not partition %dx%d", pw, ph, gw, gh)
	}
	var out []*FixedBoundaryCluster
	for y := 0; y < gh; y += ph {
		for x := 0; x < gw; x += pw {
			c, err := NewFixedBoundaryCluster(topo, x, y, pw, ph)
			if err != nil {
				return nil, err
			}
			out = append(out, c)
		}
	}
	return out, nil
}
