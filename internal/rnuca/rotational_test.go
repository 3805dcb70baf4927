package rnuca

import (
	"testing"
	"testing/quick"

	"rnuca/internal/cache"
	"rnuca/internal/noc"
)

func torus16() noc.Topology { return noc.NewFoldedTorus2D(4, 4) }
func torus8() noc.Topology  { return noc.NewFoldedTorus2D(4, 2) }

func TestRIDAssignmentRowsConsecutive(t *testing.T) {
	topo := torus16()
	m := NewRIDMap(topo, 4, 0)
	for y := 0; y < 4; y++ {
		for x := 0; x < 4; x++ {
			cur := int(m.RID(noc.TileAt(topo, x, y)))
			next := int(m.RID(noc.TileAt(topo, x+1, y)))
			if next != (cur+1)%4 {
				t.Fatalf("row RIDs not consecutive at (%d,%d): %d then %d", x, y, cur, next)
			}
		}
	}
}

func TestRIDAssignmentColumnsDifferByLog2N(t *testing.T) {
	topo := torus16()
	m := NewRIDMap(topo, 4, 0)
	for y := 0; y < 4; y++ {
		for x := 0; x < 4; x++ {
			cur := int(m.RID(noc.TileAt(topo, x, y)))
			below := int(m.RID(noc.TileAt(topo, x, y+1)))
			if below != (cur+2)%4 { // log2(4) == 2
				t.Fatalf("column RIDs at (%d,%d): %d then %d, want +2 mod 4", x, y, cur, below)
			}
		}
	}
}

func TestRIDRandomOriginStillValid(t *testing.T) {
	topo := torus16()
	for origin := 0; origin < 16; origin++ {
		m := NewRIDMap(topo, 4, noc.TileID(origin))
		if got := m.RID(noc.TileID(origin)); got != 0 {
			t.Fatalf("origin %d has RID %d, want 0", origin, got)
		}
		// Each RID must appear exactly 4 times on 16 tiles.
		counts := make(map[RID]int)
		for i := 0; i < 16; i++ {
			counts[m.RID(noc.TileID(i))]++
		}
		for r := RID(0); r < 4; r++ {
			if counts[r] != 4 {
				t.Fatalf("origin %d: RID %d appears %d times, want 4", origin, r, counts[r])
			}
		}
	}
}

// The central invariant of rotational interleaving: a slice stores the same
// 1/n of the addresses on behalf of every cluster it belongs to. Verified
// as: for every requestor tile and every address, the slice chosen
// satisfies (a + RID(slice) + 1) == 0 mod n.
func TestRotationalInterleavingInvariant(t *testing.T) {
	for _, topo := range []noc.Topology{torus16(), torus8()} {
		for origin := 0; origin < topo.Tiles(); origin++ {
			m := NewRIDMap(topo, 4, noc.TileID(origin))
			for req := 0; req < topo.Tiles(); req++ {
				for a := uint64(0); a < 64; a++ {
					slice := m.SliceFor(noc.TileID(req), a<<4, 4)
					res := m.InterleaveBits(a<<4, 4)
					if !m.StoresResidue(slice, res) {
						t.Fatalf("topo %s origin %d: requestor %d addr-bits %d -> slice %d (RID %d) violates invariant",
							topo.Name(), origin, req, res, slice, m.RID(slice))
					}
				}
			}
		}
	}
}

// Every size-4 cluster must be the center plus three one-hop neighbors, so
// instruction blocks are at most one hop away (§3.3.2).
func TestClusterMembersWithinOneHop(t *testing.T) {
	topo := torus16()
	m := NewRIDMap(topo, 4, 0)
	for c := 0; c < 16; c++ {
		tiles := m.ClusterTiles(noc.TileID(c))
		if len(tiles) != 4 {
			t.Fatalf("cluster at %d has %d tiles", c, len(tiles))
		}
		for _, tt := range tiles {
			if h := topo.Hops(noc.TileID(c), tt); h > 1 {
				t.Fatalf("cluster member %d is %d hops from center %d", tt, h, c)
			}
		}
	}
}

// Each tile's cluster must contain all n residues exactly once — otherwise
// some addresses would need more than one probe or would be unservable.
func TestClusterCoversAllResidues(t *testing.T) {
	topo := torus16()
	m := NewRIDMap(topo, 4, 0)
	for c := 0; c < 16; c++ {
		seen := map[noc.TileID]bool{}
		for a := 0; a < 4; a++ {
			s := m.SliceFor(noc.TileID(c), uint64(a)<<6, 6)
			if seen[s] {
				t.Fatalf("cluster %d maps two residues to slice %d", c, s)
			}
			seen[s] = true
		}
	}
}

// Replication property: on a 16-tile chip with size-4 clusters, each
// instruction block has exactly 4 replica locations (16/4), and each slice
// stores exactly 1/4 of the residues.
func TestReplicationDegree(t *testing.T) {
	p, err := NewPlacement(torus16(), 4, nil, 6, 0)
	if err != nil {
		t.Fatal(err)
	}
	for a := uint64(0); a < 16; a++ {
		reps := p.InstructionReplicaSlices(a << 6)
		if len(reps) != 4 {
			t.Fatalf("addr-bits %d: %d replicas, want 4", a, len(reps))
		}
	}
}

func TestValidClusterSizes4x4(t *testing.T) {
	got := ValidClusterSizes(torus16())
	want := []int{1, 2, 4, 16}
	if len(got) != len(want) {
		t.Fatalf("ValidClusterSizes = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("ValidClusterSizes = %v, want %v", got, want)
		}
	}
}

func TestSize8FallsBackToStandardInterleaving(t *testing.T) {
	p, err := NewPlacement(torus16(), 8, nil, 6, 0)
	if err != nil {
		t.Fatal(err)
	}
	if p.instr.rid != nil {
		t.Fatal("size-8 clusters must use the fixed-center standard fallback on a 4x4 torus")
	}
	// Every lookup must land within the 8 nearest tiles of the requestor.
	topo := torus16()
	for req := 0; req < 16; req++ {
		for a := uint64(0); a < 32; a++ {
			s := p.SliceFor(cache.ClassInstruction, noc.TileID(req), a<<6)
			if h := topo.Hops(noc.TileID(req), s); h > 2 {
				t.Fatalf("size-8 member %d is %d hops from %d", s, h, req)
			}
		}
	}
}

// Property-based: for random addresses, the invariant and single-probe
// determinism hold.
func TestQuickRotationalDeterminism(t *testing.T) {
	topo := torus16()
	m := NewRIDMap(topo, 4, 3)
	f := func(addr uint64, req uint8) bool {
		r := noc.TileID(int(req) % 16)
		s1 := m.SliceFor(r, addr, 10)
		s2 := m.SliceFor(r, addr, 10)
		if s1 != s2 {
			return false
		}
		return m.StoresResidue(s1, m.InterleaveBits(addr, 10))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// Property-based: two different centers that share a slice agree on which
// residue that slice serves (capacity neutrality: replicas never duplicate
// a block within a slice).
func TestQuickCapacityNeutrality(t *testing.T) {
	topo := torus16()
	m := NewRIDMap(topo, 4, 0)
	f := func(addr uint64, reqA, reqB uint8) bool {
		a := noc.TileID(int(reqA) % 16)
		b := noc.TileID(int(reqB) % 16)
		sa := m.SliceFor(a, addr, 10)
		sb := m.SliceFor(b, addr, 10)
		if sa == sb {
			return true // same slice serving the same residue: fine
		}
		// Different slices must still both satisfy the residue invariant.
		res := m.InterleaveBits(addr, 10)
		return m.StoresResidue(sa, res) && m.StoresResidue(sb, res)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestPlacementByClass(t *testing.T) {
	p, err := NewPlacement(torus16(), 4, nil, 6, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Private data goes to the local slice.
	for req := 0; req < 16; req++ {
		if got := p.SliceFor(cache.ClassPrivate, noc.TileID(req), uint64(req)<<16); got != noc.TileID(req) {
			t.Fatalf("private slice for %d = %d", req, got)
		}
	}
	// Shared data is address-interleaved: all 16 slices used, and the
	// mapping is requestor-independent.
	used := map[noc.TileID]bool{}
	for a := uint64(0); a < 64; a++ {
		s := p.SharedSlice(a << 6)
		used[s] = true
		if got := p.SliceFor(cache.ClassShared, noc.TileID(a%16), a<<6); got != s {
			t.Fatalf("shared block %d placed at %d, home %d", a, got, s)
		}
	}
	if len(used) != 16 {
		t.Fatalf("shared interleaving uses %d slices, want 16", len(used))
	}
	// Instructions stay within one hop with size-4 clusters.
	topo := p.topo
	for req := 0; req < 16; req++ {
		for a := uint64(0); a < 64; a++ {
			s := p.SliceFor(cache.ClassInstruction, noc.TileID(req), a<<6)
			if topo.Hops(noc.TileID(req), s) > 1 {
				t.Fatalf("instruction slice %d more than one hop from %d", s, req)
			}
		}
	}
}

func TestFixedBoundaryPartition(t *testing.T) {
	topo := torus16()
	parts, err := Partition(topo, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(parts) != 4 {
		t.Fatalf("got %d partitions, want 4", len(parts))
	}
	seen := map[noc.TileID]int{}
	for _, p := range parts {
		for _, tile := range p.Tiles() {
			seen[tile]++
		}
	}
	if len(seen) != 16 {
		t.Fatalf("partitions cover %d tiles, want 16", len(seen))
	}
	for tile, n := range seen {
		if n != 1 {
			t.Fatalf("tile %d covered %d times", tile, n)
		}
	}
	// Interleaving within a partition only touches member tiles.
	for _, p := range parts {
		for a := uint64(0); a < 64; a++ {
			s := p.SliceFor(a<<6, 6)
			if !p.Contains(s) {
				t.Fatalf("partition slice %d outside boundary", s)
			}
		}
	}
}

func TestPartitionErrors(t *testing.T) {
	topo := torus16()
	if _, err := Partition(topo, 3, 2); err == nil {
		t.Fatal("3x2 should not partition a 4x4 grid")
	}
	if _, err := NewFixedBoundaryCluster(topo, 3, 3, 2, 2); err == nil {
		t.Fatal("rectangle overflowing the grid must be rejected")
	}
	if _, err := NewPlacement(topo, 3, nil, 6, 0); err == nil {
		t.Fatal("non-power-of-two cluster size must be rejected")
	}
	if _, err := NewPlacement(topo, 32, nil, 6, 0); err == nil {
		t.Fatal("cluster size above tile count must be rejected")
	}
}

func TestInterleaveOffsetRespected(t *testing.T) {
	p, err := NewPlacement(torus16(), 4, nil, 16, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Addresses differing only below bit 16 must map to the same slice.
	base := uint64(0x1230000)
	s0 := p.SliceFor(cache.ClassInstruction, 5, base)
	for off := uint64(0); off < 1<<16; off += 4096 {
		if s := p.SliceFor(cache.ClassInstruction, 5, base|off); s != s0 {
			t.Fatalf("low-order bits changed the slice: %d vs %d", s, s0)
		}
	}
}
