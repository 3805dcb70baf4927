package rnuca

import (
	"testing"

	"rnuca/internal/cache"
	"rnuca/internal/noc"
)

// uniform gives every core of a 16-tile chip a private cluster of n
// slices.
func uniform(n int) []int {
	sizes := make([]int, 16)
	for i := range sizes {
		sizes[i] = n
	}
	return sizes
}

func TestPrivateClustersDefaultSizeOne(t *testing.T) {
	p, err := NewPlacement(torus16(), 4, nil, 16, 0)
	if err != nil {
		t.Fatal(err)
	}
	for owner, c := range p.priv {
		if c.size != 1 {
			t.Fatalf("default private cluster size of core %d = %d", owner, c.size)
		}
	}
	for owner := 0; owner < 16; owner++ {
		for a := uint64(0); a < 8; a++ {
			if got := p.SliceFor(cache.ClassPrivate, noc.TileID(owner), a<<16); got != noc.TileID(owner) {
				t.Fatalf("size-1 private slice for owner %d = %d", owner, got)
			}
		}
		tiles := p.PrivateClusterTiles(noc.TileID(owner))
		if len(tiles) != 1 || tiles[0] != noc.TileID(owner) {
			t.Fatalf("size-1 cluster tiles = %v", tiles)
		}
	}
}

func TestPrivateClustersSizeFour(t *testing.T) {
	p, err := NewPlacement(torus16(), 4, uniform(4), 16, 0)
	if err != nil {
		t.Fatal(err)
	}
	topo := torus16()
	for owner := 0; owner < 16; owner++ {
		seen := map[noc.TileID]bool{}
		for a := uint64(0); a < 64; a++ {
			s := p.SliceFor(cache.ClassPrivate, noc.TileID(owner), a<<16)
			seen[s] = true
			if topo.Hops(noc.TileID(owner), s) > 1 {
				t.Fatalf("private slice %d more than one hop from owner %d", s, owner)
			}
		}
		if len(seen) != 4 {
			t.Fatalf("owner %d spreads over %d slices, want 4", owner, len(seen))
		}
		// The purge set must cover every slice the owner can use.
		cluster := map[noc.TileID]bool{}
		for _, tl := range p.PrivateClusterTiles(noc.TileID(owner)) {
			cluster[tl] = true
		}
		for s := range seen {
			if !cluster[s] {
				t.Fatalf("slice %d used but not in purge set %v", s, p.PrivateClusterTiles(noc.TileID(owner)))
			}
		}
	}
}

// Unlike instructions, private clusters must never share replicas across
// owners: the same address owned by two different cores maps to slices
// *within each owner's cluster*, and that is fine because ownership is
// exclusive (a block has exactly one owner at a time).
func TestPrivateClustersDeterministicPerOwner(t *testing.T) {
	p, err := NewPlacement(torus16(), 4, uniform(4), 16, 0)
	if err != nil {
		t.Fatal(err)
	}
	for a := uint64(0); a < 32; a++ {
		s1 := p.SliceFor(cache.ClassPrivate, 3, a<<16)
		s2 := p.SliceFor(cache.ClassPrivate, 3, a<<16)
		if s1 != s2 {
			t.Fatal("private placement not deterministic")
		}
	}
}

func TestPrivateClustersFullChip(t *testing.T) {
	p, err := NewPlacement(torus16(), 4, uniform(16), 16, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Full-chip private clusters degenerate to standard interleaving.
	used := map[noc.TileID]bool{}
	for a := uint64(0); a < 64; a++ {
		used[p.SliceFor(cache.ClassPrivate, 5, a<<16)] = true
	}
	if len(used) != 16 {
		t.Fatalf("full-chip private cluster uses %d slices", len(used))
	}
	if len(p.PrivateClusterTiles(5)) != 16 {
		t.Fatal("full-chip purge set must cover all tiles")
	}
}

func TestPrivateClustersSizeEightFallback(t *testing.T) {
	p, err := NewPlacement(torus16(), 4, uniform(8), 16, 0)
	if err != nil {
		t.Fatal(err)
	}
	topo := torus16()
	used := map[noc.TileID]bool{}
	for a := uint64(0); a < 64; a++ {
		s := p.SliceFor(cache.ClassPrivate, 9, a<<16)
		used[s] = true
		if topo.Hops(9, s) > 2 {
			t.Fatalf("size-8 member %d too far from owner", s)
		}
	}
	if len(used) == 0 || len(used) > 8 {
		t.Fatalf("size-8 fallback uses %d slices", len(used))
	}
}

func TestPrivateClusterErrors(t *testing.T) {
	if _, err := NewPlacement(torus16(), 4, uniform(3), 16, 0); err == nil {
		t.Fatal("non-power-of-two private size accepted")
	}
	if _, err := NewPlacement(torus16(), 4, uniform(32), 16, 0); err == nil {
		t.Fatal("oversized private cluster accepted")
	}
	if _, err := NewPlacement(torus16(), 3, uniform(4), 16, 0); err == nil {
		t.Fatal("invalid instruction size accepted")
	}
	if _, err := NewPlacement(torus16(), 4, []int{1, 2}, 16, 0); err == nil {
		t.Fatal("two private sizes accepted for 16 tiles")
	}
}

// Rotational private clusters preserve the capacity-neutrality invariant:
// overlapping owners' clusters agree on which slice serves which residue.
func TestPrivateClusterInvariantSharedWithInstructionPath(t *testing.T) {
	p, err := NewPlacement(torus16(), 4, uniform(4), 16, 0)
	if err != nil {
		t.Fatal(err)
	}
	m := NewRIDMap(torus16(), 4, 0)
	for owner := 0; owner < 16; owner++ {
		for a := uint64(0); a < 64; a++ {
			s := p.SliceFor(cache.ClassPrivate, noc.TileID(owner), a<<16)
			if !m.StoresResidue(s, m.InterleaveBits(a<<16, 16)) {
				t.Fatalf("private placement violates residue invariant at owner %d", owner)
			}
		}
	}
}
