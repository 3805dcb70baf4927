package noc

import (
	"testing"
	"testing/quick"
)

func TestTorusDistanceBasics(t *testing.T) {
	tor := NewFoldedTorus2D(4, 4)
	cases := []struct {
		a, b TileID
		want int
	}{
		{0, 0, 0},
		{0, 1, 1},
		{0, 3, 1},  // row wraparound
		{0, 12, 1}, // column wraparound
		{0, 5, 2},
		{0, 10, 4}, // diameter corner
		{5, 6, 1},
	}
	for _, c := range cases {
		if got := tor.Hops(c.a, c.b); got != c.want {
			t.Errorf("Hops(%d,%d) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestMeshDistanceBasics(t *testing.T) {
	m := NewMesh2D(4, 4)
	if got := m.Hops(0, 3); got != 3 {
		t.Errorf("mesh Hops(0,3) = %d, want 3 (no wraparound)", got)
	}
	if got := m.Hops(0, 15); got != 6 {
		t.Errorf("mesh Hops(0,15) = %d, want 6", got)
	}
}

func TestTorusBeatsMeshOnAverage(t *testing.T) {
	meanHops := func(topo Topology) float64 {
		n, sum := topo.Tiles(), 0
		for a := 0; a < n; a++ {
			for b := 0; b < n; b++ {
				sum += topo.Hops(TileID(a), TileID(b))
			}
		}
		return float64(sum) / float64(n*(n-1))
	}
	tor, msh := meanHops(NewFoldedTorus2D(4, 4)), meanHops(NewMesh2D(4, 4))
	if tor >= msh {
		t.Fatalf("torus mean hops %.3f should beat mesh %.3f", tor, msh)
	}
}

// Torus is vertex-transitive: every tile sees the same distance profile.
// This is why the paper favors it — no edge penalties, no hot spots.
func TestTorusHomogeneity(t *testing.T) {
	tor := NewFoldedTorus2D(4, 4)
	profile := func(src TileID) map[int]int {
		p := map[int]int{}
		for d := 0; d < tor.Tiles(); d++ {
			p[tor.Hops(src, TileID(d))]++
		}
		return p
	}
	base := profile(0)
	for s := 1; s < 16; s++ {
		p := profile(TileID(s))
		for k, v := range base {
			if p[k] != v {
				t.Fatalf("tile %d distance profile differs at %d hops: %d vs %d", s, k, p[k], v)
			}
		}
	}
}

func TestQuickTorusMetric(t *testing.T) {
	tor := NewFoldedTorus2D(4, 4)
	symmetric := func(a, b uint8) bool {
		x, y := TileID(a%16), TileID(b%16)
		return tor.Hops(x, y) == tor.Hops(y, x)
	}
	if err := quick.Check(symmetric, nil); err != nil {
		t.Error(err)
	}
	triangle := func(a, b, c uint8) bool {
		x, y, z := TileID(a%16), TileID(b%16), TileID(c%16)
		return tor.Hops(x, z) <= tor.Hops(x, y)+tor.Hops(y, z)
	}
	if err := quick.Check(triangle, nil); err != nil {
		t.Error(err)
	}
	identity := func(a, b uint8) bool {
		x, y := TileID(a%16), TileID(b%16)
		return (tor.Hops(x, y) == 0) == (x == y)
	}
	if err := quick.Check(identity, nil); err != nil {
		t.Error(err)
	}
}

func TestRouteMatchesHops(t *testing.T) {
	for _, topo := range []Topology{NewFoldedTorus2D(4, 4), NewFoldedTorus2D(4, 2), NewMesh2D(4, 4)} {
		n := topo.Tiles()
		for a := 0; a < n; a++ {
			for b := 0; b < n; b++ {
				route := topo.AppendRoute(nil, TileID(a), TileID(b))
				if len(route) != topo.Hops(TileID(a), TileID(b)) {
					t.Fatalf("%s: route %d->%d has %d links, hops=%d",
						topo.Name(), a, b, len(route), topo.Hops(TileID(a), TileID(b)))
				}
				// Route must be contiguous and end at b.
				cur := TileID(a)
				for _, l := range route {
					if l.From != cur {
						t.Fatalf("%s: discontiguous route %d->%d", topo.Name(), a, b)
					}
					if topo.Hops(l.From, l.To) != 1 {
						t.Fatalf("%s: route link %v not adjacent", topo.Name(), l)
					}
					cur = l.To
				}
				if cur != TileID(b) {
					t.Fatalf("%s: route %d->%d ends at %d", topo.Name(), a, b, cur)
				}
			}
		}
	}
}

func TestDegenerateGrids(t *testing.T) {
	t1 := NewFoldedTorus2D(1, 1)
	if t1.Hops(0, 0) != 0 {
		t.Fatal("1x1 torus should have zero distances")
	}
	t2 := NewFoldedTorus2D(2, 1)
	if t2.Hops(0, 1) != 1 {
		t.Fatal("2x1 torus adjacent distance should be 1")
	}
}

func TestTileCoordRoundTrip(t *testing.T) {
	topo := NewFoldedTorus2D(4, 4)
	for i := 0; i < 16; i++ {
		c := CoordOf(topo, TileID(i))
		if got := TileAt(topo, c.X, c.Y); got != TileID(i) {
			t.Fatalf("round trip failed for tile %d: %v -> %d", i, c, got)
		}
	}
	if TileAt(topo, -1, 0) != 3 {
		t.Fatalf("negative wrap: got %d want 3", TileAt(topo, -1, 0))
	}
	if TileAt(topo, 4, 0) != 0 {
		t.Fatalf("positive wrap: got %d want 0", TileAt(topo, 4, 0))
	}
}

func TestInvalidDimsPanic(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for 0-width torus")
		}
	}()
	NewFoldedTorus2D(0, 4)
}
