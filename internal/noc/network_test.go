package noc

import (
	"testing"
)

func TestFlitsCalculation(t *testing.T) {
	cfg := DefaultLinkConfig()
	cases := []struct{ bytes, want int }{
		{0, 1}, {1, 1}, {8, 1}, {32, 1}, {33, 2}, {64, 2}, {72, 3},
	}
	for _, c := range cases {
		if got := cfg.Flits(c.bytes); got != c.want {
			t.Errorf("Flits(%d) = %d, want %d", c.bytes, got, c.want)
		}
	}
}

func TestUncontendedLatency(t *testing.T) {
	n := NewNetwork(NewFoldedTorus2D(4, 4), DefaultLinkConfig())
	// Same tile: free.
	if got := n.Latency(3, 3, CtrlBytes); got != 0 {
		t.Errorf("same-tile latency = %v, want 0", got)
	}
	// One hop control: link(1) + router(2) = 3.
	if got := n.Latency(0, 1, CtrlBytes); got != 3 {
		t.Errorf("1-hop ctrl latency = %v, want 3", got)
	}
	// One hop data (72B = 3 flits): 3 + 2 serialization = 5.
	if got := n.Latency(0, 1, DataBytes); got != 5 {
		t.Errorf("1-hop data latency = %v, want 5", got)
	}
	// Diameter control: 4 hops * 3 = 12.
	if got := n.Latency(0, 10, CtrlBytes); got != 12 {
		t.Errorf("4-hop ctrl latency = %v, want 12", got)
	}
}

func TestContentionRampsWithLoad(t *testing.T) {
	n := NewNetwork(NewFoldedTorus2D(4, 4), DefaultLinkConfig())
	// Light load window.
	for i := 0; i < 100; i++ {
		n.Latency(0, 5, DataBytes)
	}
	n.Advance(100000)
	light := n.queuePenalty
	// Heavy load window: many messages in few cycles.
	for i := 0; i < 100000; i++ {
		n.Latency(TileID(i%16), TileID((i*7)%16), DataBytes)
	}
	n.Advance(10000)
	heavy := n.queuePenalty
	if light >= heavy {
		t.Fatalf("queue penalty should rise with load: light=%v heavy=%v", light, heavy)
	}
	if heavy <= 0 {
		t.Fatalf("heavy penalty should be positive, got %v", heavy)
	}
}

func TestContentionSaturationClamped(t *testing.T) {
	n := NewNetwork(NewFoldedTorus2D(4, 4), DefaultLinkConfig())
	for i := 0; i < 1000000; i++ {
		n.Latency(0, 10, DataBytes)
	}
	n.Advance(10) // absurd overload
	if p := n.queuePenalty; p > 10 {
		t.Fatalf("penalty must stay clamped at saturation, got %v", p)
	}
}

func TestLatencyRecordsTraffic(t *testing.T) {
	n := NewNetwork(NewFoldedTorus2D(4, 4), DefaultLinkConfig())
	n.Latency(0, 5, DataBytes) // 2 hops, 3 flits
	n.Latency(3, 3, DataBytes) // same tile: no traffic
	if st := n.TotalStats(); st.Messages != 1 || st.FlitHops != 6 {
		t.Fatalf("Latency must record traffic: %+v", st)
	}
}

func TestMeshHotSpotVsTorus(t *testing.T) {
	// All-to-all traffic: mesh center links must be hotter than its edge
	// links; torus should be perfectly balanced per direction.
	mesh := NewNetwork(NewMesh2D(4, 4), DefaultLinkConfig())
	torus := NewNetwork(NewFoldedTorus2D(4, 4), DefaultLinkConfig())
	mesh.EnableLinkAccounting()
	torus.EnableLinkAccounting()
	for a := 0; a < 16; a++ {
		for b := 0; b < 16; b++ {
			mesh.Latency(TileID(a), TileID(b), CtrlBytes)
			torus.Latency(TileID(a), TileID(b), CtrlBytes)
		}
	}
	maxLoad := func(n *Network) (mx, mn uint64) {
		links, flits := n.LinkTraffic()
		if len(links) != n.links {
			t.Fatalf("all-to-all traffic crossed %d of %d links", len(links), n.links)
		}
		mn = ^uint64(0)
		for _, v := range flits {
			if v > mx {
				mx = v
			}
			if v < mn {
				mn = v
			}
		}
		return
	}
	mMax, mMin := maxLoad(mesh)
	tMax, tMin := maxLoad(torus)
	if mMax == mMin {
		t.Fatal("mesh should have unbalanced link loads under uniform traffic")
	}
	// With parity-balanced tie-breaking the torus is perfectly uniform
	// under all-to-all traffic (vertex transitivity), while the mesh
	// loads its center links more than its edges.
	if tMax != tMin {
		t.Fatalf("torus link loads should be balanced, got max %d min %d", tMax, tMin)
	}
	if mMax == mMin {
		t.Fatal("mesh should have unbalanced link loads under uniform traffic")
	}
	if mMax <= tMax {
		t.Fatalf("mesh peak link load (%d) should exceed torus peak (%d)", mMax, tMax)
	}
}

func TestNetworkReset(t *testing.T) {
	n := NewNetwork(NewFoldedTorus2D(4, 4), DefaultLinkConfig())
	n.Latency(0, 5, DataBytes)
	n.Advance(100)
	n.Reset()
	st := n.TotalStats()
	if st.Messages != 0 || st.FlitHops != 0 || st.Cycles != 0 {
		t.Fatalf("reset did not clear stats: %+v", st)
	}
}

func TestLinkCount(t *testing.T) {
	// 4x4 torus: 2 directed x-links and 2 directed y-links per tile = 64.
	n := NewNetwork(NewFoldedTorus2D(4, 4), DefaultLinkConfig())
	if n.links != 64 {
		t.Fatalf("4x4 torus link count = %d, want 64", n.links)
	}
	// 4x4 mesh: 2*(3*4) + 2*(4*3) = 48.
	m := NewNetwork(NewMesh2D(4, 4), DefaultLinkConfig())
	if m.links != 48 {
		t.Fatalf("4x4 mesh link count = %d, want 48", m.links)
	}
	// 4x2 torus: x-rings full (2*8=16), y dimension size 2 (8 directed).
	n8 := NewNetwork(NewFoldedTorus2D(4, 2), DefaultLinkConfig())
	if n8.links != 24 {
		t.Fatalf("4x2 torus link count = %d, want 24", n8.links)
	}
}

// On every grid up to 8x8, the route table numbers exactly the links
// one hop apart, which the reference derives from the topology's type,
// and each pair's route is as long as its hop distance.
func TestRouteTable(t *testing.T) {
	for w := 1; w <= 8; w++ {
		for h := 1; h <= 8; h++ {
			for _, topo := range []Topology{NewFoldedTorus2D(w, h), NewMesh2D(w, h)} {
				n := NewNetwork(topo, DefaultLinkConfig())
				n.buildRoutes()
				if ref := newRefNetwork(topo, DefaultLinkConfig()).linkCount(); len(n.linkOf) != n.links || n.links != ref {
					t.Fatalf("%dx%d %s: table numbers %d links, one-hop pairs %d, reference %d",
						w, h, topo.Name(), len(n.linkOf), n.links, ref)
				}
				for a := 0; a < n.tiles; a++ {
					for b := 0; b < n.tiles; b++ {
						if got, want := len(n.route(TileID(a), TileID(b))), topo.Hops(TileID(a), TileID(b)); got != want {
							t.Fatalf("%dx%d %s: route %d->%d has %d links, hops %d", w, h, topo.Name(), a, b, got, want)
						}
					}
				}
			}
		}
	}
}
