package mem

import (
	"testing"

	"rnuca/internal/noc"
)

func TestDefaultConfig(t *testing.T) {
	c := DefaultConfig(16)
	if c.Controllers != 4 {
		t.Fatalf("16 tiles should get 4 controllers, got %d", c.Controllers)
	}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	c8 := DefaultConfig(8)
	if c8.Controllers != 2 {
		t.Fatalf("8 tiles should get 2 controllers, got %d", c8.Controllers)
	}
	c2 := DefaultConfig(2)
	if c2.Controllers != 1 {
		t.Fatalf("tiny CMP should get 1 controller, got %d", c2.Controllers)
	}
}

func TestValidation(t *testing.T) {
	bad := Config{AccessCycles: 0, PageBytes: 8192, Controllers: 1, ControllerTiles: []noc.TileID{0}}
	if bad.Validate() == nil {
		t.Fatal("zero latency accepted")
	}
	bad = Config{AccessCycles: 90, PageBytes: 1000, Controllers: 1, ControllerTiles: []noc.TileID{0}}
	if bad.Validate() == nil {
		t.Fatal("non-power-of-two page accepted")
	}
	bad = Config{AccessCycles: 90, PageBytes: 8192, Controllers: 2, ControllerTiles: []noc.TileID{0}}
	if bad.Validate() == nil {
		t.Fatal("controller/tile mismatch accepted")
	}
}

func TestPageInterleaving(t *testing.T) {
	m := New(DefaultConfig(16))
	// Consecutive 8KB pages must round-robin across the 4 controllers.
	for p := uint64(0); p < 16; p++ {
		want := int(p % 4)
		if got := m.ControllerFor(p * 8192); got != want {
			t.Fatalf("page %d -> controller %d, want %d", p, got, want)
		}
		// All addresses within a page go to the same controller.
		if got := m.ControllerFor(p*8192 + 4096); got != want {
			t.Fatalf("mid-page address escaped controller %d", want)
		}
	}
}

func TestAccessLatencyComposition(t *testing.T) {
	cfg := DefaultConfig(16)
	m := New(cfg)
	n := noc.NewNetwork(noc.NewFoldedTorus2D(4, 4), noc.DefaultLinkConfig())
	// Access from the controller's own tile: no network, pure DRAM.
	ctl := m.ControllerFor(0)
	tile := m.ControllerTile(ctl)
	lat := m.Access(n, tile, 0)
	if lat != float64(cfg.AccessCycles) {
		t.Fatalf("local controller access = %v, want %d", lat, cfg.AccessCycles)
	}
	// Access from a remote tile must add request + data return traversals.
	topo := noc.NewFoldedTorus2D(4, 4)
	var far noc.TileID
	for i := 0; i < 16; i++ {
		if topo.Hops(noc.TileID(i), tile) == 2 {
			far = noc.TileID(i)
			break
		}
	}
	lat2 := m.Access(n, far, 0)
	// The uncontended traversals, charged on a fresh analytic network.
	ref := noc.NewNetwork(topo, noc.DefaultLinkConfig())
	wantNet := ref.Latency(far, tile, noc.CtrlBytes) + ref.Latency(tile, far, noc.DataBytes)
	if lat2 != float64(cfg.AccessCycles)+wantNet {
		t.Fatalf("remote access = %v, want %v", lat2, float64(cfg.AccessCycles)+wantNet)
	}
}

func TestControllerContention(t *testing.T) {
	m := New(DefaultConfig(16))
	n := noc.NewNetwork(noc.NewFoldedTorus2D(4, 4), noc.DefaultLinkConfig())
	base := m.Access(n, 0, 0)
	// Saturate controller 0, then advance a short window.
	for i := 0; i < 100000; i++ {
		m.Access(n, 0, 0)
	}
	m.Advance(1000)
	loaded := m.Access(n, 0, 0)
	if loaded <= base {
		t.Fatalf("loaded controller should be slower: %v vs %v", loaded, base)
	}
	// An idle controller keeps its base latency.
	m.Advance(1000000)
	m.Advance(1000000) // two idle windows clear the penalty
	idle := m.Access(n, 0, 0)
	if idle > base+1e-9 {
		t.Fatalf("idle controller retains penalty: %v vs %v", idle, base)
	}
}

func TestRequestsCounting(t *testing.T) {
	m := New(DefaultConfig(8))
	n := noc.NewNetwork(noc.NewFoldedTorus2D(4, 2), noc.DefaultLinkConfig())
	for i := 0; i < 10; i++ {
		m.Access(n, 0, uint64(i)*64)
	}
	if m.Requests() != 10 {
		t.Fatalf("requests = %d", m.Requests())
	}
	m.Reset()
	if m.Requests() != 0 {
		t.Fatal("reset failed")
	}
}
