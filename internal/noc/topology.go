// Package noc models the on-chip interconnection network of the tiled CMP:
// a 2-D folded torus (the paper's choice, Table 1 and §5.1) and a 2-D mesh
// (the common alternative the paper argues against). It provides topology
// math (distances, dimension-order routes) and a Network that charges
// latency with a utilization-based queueing model or per-link FCFS queues.
// Routes and links are pure functions of the grid, so the Network numbers
// the directed links densely and keeps one table of every tile pair's
// route; the link queues and the flight recorder's per-link flit counts
// are slices indexed by link id.
//
// The paper's network parameters (Table 1): 32-byte links, 1-cycle link
// latency, 2-cycle routers, 4x4 torus for the 16-core CMP and 4x2 for the
// 8-core CMP.
package noc

import "fmt"

// TileID identifies a tile (core + L2 slice + router) on the die.
// Tiles are numbered row-major: tile = y*Width + x.
type TileID int

// Coord is a logical (x, y) position on the tile grid.
type Coord struct {
	X, Y int
}

// Topology abstracts the interconnect graph. Implementations must be
// deterministic and pure: the same pair always yields the same hop count
// and route.
type Topology interface {
	// Name identifies the topology ("torus" or "mesh").
	Name() string
	// Dims returns the grid width and height in tiles.
	Dims() (w, h int)
	// Tiles returns the total number of tiles.
	Tiles() int
	// Hops returns the minimal number of links traversed from a to b.
	Hops(a, b TileID) int
	// AppendRoute appends the directed links of the dimension-order
	// route from a to b to links and returns the extended slice. Links
	// are identified by (from, to) tile pairs; a == b appends nothing.
	AppendRoute(links []Link, a, b TileID) []Link
}

// Link is a directed link between adjacent routers.
type Link struct {
	From, To TileID
}

// grid holds shared geometry for torus and mesh.
type grid struct {
	w, h int
}

func (g grid) Dims() (int, int) { return g.w, g.h }
func (g grid) Tiles() int       { return g.w * g.h }

// Coord returns the logical coordinate of tile t.
func (g grid) coord(t TileID) Coord {
	return Coord{X: int(t) % g.w, Y: int(t) / g.w}
}

// tile returns the TileID at coordinate c (wrapping into range).
func (g grid) tile(c Coord) TileID {
	x := ((c.X % g.w) + g.w) % g.w
	y := ((c.Y % g.h) + g.h) % g.h
	return TileID(y*g.w + x)
}

// FoldedTorus2D is a 2-D torus with folded physical layout. Folding
// interleaves nodes physically so that every logical ring link spans at
// most two physical tile widths, eliminating the long wraparound wire;
// logically the network is a plain torus and each logical hop costs one
// link traversal (Table 1: 1-cycle links).
type FoldedTorus2D struct {
	grid
}

// NewFoldedTorus2D returns a w x h folded torus. Width and height must be
// positive; rings of size 1 or 2 degenerate gracefully (distance 0 or 1).
func NewFoldedTorus2D(w, h int) *FoldedTorus2D {
	if w <= 0 || h <= 0 {
		panic(fmt.Sprintf("noc: invalid torus dims %dx%d", w, h))
	}
	return &FoldedTorus2D{grid{w, h}}
}

// Name implements Topology.
func (t *FoldedTorus2D) Name() string { return "torus" }

// ringDist is the minimal distance between positions a and b on a ring of
// size n.
func ringDist(a, b, n int) int {
	d := a - b
	if d < 0 {
		d = -d
	}
	if n-d < d {
		d = n - d
	}
	return d
}

// ringStep returns the next position moving from a toward b along the
// shorter arc of a ring of size n. Ties (exactly half the ring) are broken
// by the parity of the current position: even positions route +1, odd
// positions route -1. The tie only arises on the first step of a route, so
// the parity is the source's; alternating directions this way keeps
// all-to-all traffic perfectly balanced across ring links (a biased
// tie-break would load +1 links 3x more than -1 links on a 4-ring).
func ringStep(a, b, n int) int {
	if a == b {
		return a
	}
	fwd := ((b-a)%n + n) % n // steps going +1
	bwd := n - fwd           // steps going -1
	if fwd < bwd || (fwd == bwd && a%2 == 0) {
		return (a + 1) % n
	}
	return (a - 1 + n) % n
}

// Hops implements Topology.
func (t *FoldedTorus2D) Hops(a, b TileID) int {
	ca, cb := t.coord(a), t.coord(b)
	return ringDist(ca.X, cb.X, t.w) + ringDist(ca.Y, cb.Y, t.h)
}

// AppendRoute implements Topology using dimension-order (X then Y)
// routing.
func (t *FoldedTorus2D) AppendRoute(links []Link, a, b TileID) []Link {
	cur := t.coord(a)
	dst := t.coord(b)
	for cur.X != dst.X {
		nxt := Coord{X: ringStep(cur.X, dst.X, t.w), Y: cur.Y}
		links = append(links, Link{t.tile(cur), t.tile(nxt)})
		cur = nxt
	}
	for cur.Y != dst.Y {
		nxt := Coord{X: cur.X, Y: ringStep(cur.Y, dst.Y, t.h)}
		links = append(links, Link{t.tile(cur), t.tile(nxt)})
		cur = nxt
	}
	return links
}

// Mesh2D is a 2-D mesh with no wraparound links. The paper notes meshes
// "are prone to hot spots and penalize tiles at the network edges"; we
// implement it both as a baseline and for the topology-comparison tests.
type Mesh2D struct {
	grid
}

// NewMesh2D returns a w x h mesh.
func NewMesh2D(w, h int) *Mesh2D {
	if w <= 0 || h <= 0 {
		panic(fmt.Sprintf("noc: invalid mesh dims %dx%d", w, h))
	}
	return &Mesh2D{grid{w, h}}
}

// Name implements Topology.
func (m *Mesh2D) Name() string { return "mesh" }

// Hops implements Topology (Manhattan distance).
func (m *Mesh2D) Hops(a, b TileID) int {
	ca, cb := m.coord(a), m.coord(b)
	dx, dy := ca.X-cb.X, ca.Y-cb.Y
	if dx < 0 {
		dx = -dx
	}
	if dy < 0 {
		dy = -dy
	}
	return dx + dy
}

// AppendRoute implements Topology using X-then-Y dimension-order
// routing.
func (m *Mesh2D) AppendRoute(links []Link, a, b TileID) []Link {
	cur := m.coord(a)
	dst := m.coord(b)
	step := func(v, target int) int {
		if v < target {
			return v + 1
		}
		return v - 1
	}
	for cur.X != dst.X {
		nxt := Coord{X: step(cur.X, dst.X), Y: cur.Y}
		links = append(links, Link{m.tile(cur), m.tile(nxt)})
		cur = nxt
	}
	for cur.Y != dst.Y {
		nxt := Coord{X: cur.X, Y: step(cur.Y, dst.Y)}
		links = append(links, Link{m.tile(cur), m.tile(nxt)})
		cur = nxt
	}
	return links
}

// CoordOf exposes the coordinate of a tile for a topology built on a grid.
// It works for both FoldedTorus2D and Mesh2D.
func CoordOf(t Topology, id TileID) Coord {
	w, _ := t.Dims()
	return Coord{X: int(id) % w, Y: int(id) / w}
}

// TileAt returns the TileID at (x, y), wrapping coordinates into the grid.
func TileAt(t Topology, x, y int) TileID {
	w, h := t.Dims()
	x = ((x % w) + w) % w
	y = ((y % h) + h) % h
	return TileID(y*w + x)
}
