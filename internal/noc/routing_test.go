package noc

import "testing"

// Half-ring ties must split by source parity so that all-to-all traffic
// balances: even sources route +1, odd sources route -1.
func TestRingStepTieBreakByParity(t *testing.T) {
	// Ring of 4: distance from 0 to 2 is exactly half.
	if got := ringStep(0, 2, 4); got != 1 {
		t.Fatalf("even source tie should go +1, got %d", got)
	}
	if got := ringStep(1, 3, 4); got != 0 {
		t.Fatalf("odd source tie should go -1, got %d", got)
	}
	// Non-tie cases take the strictly shorter arc regardless of parity.
	if got := ringStep(0, 1, 4); got != 1 {
		t.Fatalf("short forward arc broken: %d", got)
	}
	if got := ringStep(1, 0, 4); got != 0 {
		t.Fatalf("short backward arc broken: %d", got)
	}
	if got := ringStep(0, 3, 4); got != 3 {
		t.Fatalf("wraparound arc broken: %d", got)
	}
	// Self step is the identity.
	if got := ringStep(2, 2, 4); got != 2 {
		t.Fatalf("self step moved: %d", got)
	}
}

func TestRingDist(t *testing.T) {
	cases := []struct{ a, b, n, want int }{
		{0, 0, 4, 0}, {0, 1, 4, 1}, {0, 2, 4, 2}, {0, 3, 4, 1},
		{1, 3, 4, 2}, {0, 1, 2, 1}, {0, 0, 1, 0},
		{0, 4, 8, 4}, {7, 0, 8, 1},
	}
	for _, c := range cases {
		if got := ringDist(c.a, c.b, c.n); got != c.want {
			t.Errorf("ringDist(%d,%d,%d) = %d, want %d", c.a, c.b, c.n, got, c.want)
		}
	}
}

// A route built step by step always shortens the remaining distance by
// exactly one — no detours, no oscillation.
func TestRouteMonotoneProgress(t *testing.T) {
	for _, topo := range []Topology{NewFoldedTorus2D(4, 4), NewFoldedTorus2D(4, 2), NewMesh2D(4, 4)} {
		n := topo.Tiles()
		for a := 0; a < n; a++ {
			for b := 0; b < n; b++ {
				remaining := topo.Hops(TileID(a), TileID(b))
				cur := TileID(a)
				for _, l := range topo.AppendRoute(nil, TileID(a), TileID(b)) {
					next := l.To
					nd := topo.Hops(next, TileID(b))
					if nd != remaining-1 {
						t.Fatalf("%s: route %d->%d: hop %d->%d distance %d -> %d",
							topo.Name(), a, b, cur, next, remaining, nd)
					}
					cur, remaining = next, nd
				}
			}
		}
	}
}
