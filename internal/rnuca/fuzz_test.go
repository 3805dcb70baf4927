package rnuca

import (
	"testing"

	"rnuca/internal/cache"
	"rnuca/internal/noc"
)

// FuzzRotationalInvariant drives the indexing function with arbitrary
// addresses, requestors, and origins: the residue invariant, single-probe
// determinism, and one-hop membership must hold for every input.
func FuzzRotationalInvariant(f *testing.F) {
	f.Add(uint64(0), uint8(0), uint8(0))
	f.Add(uint64(0xDEADBEEF), uint8(7), uint8(3))
	f.Add(^uint64(0), uint8(15), uint8(15))
	topo := noc.NewFoldedTorus2D(4, 4)
	f.Fuzz(func(t *testing.T, addr uint64, reqRaw, originRaw uint8) {
		req := noc.TileID(int(reqRaw) % 16)
		origin := noc.TileID(int(originRaw) % 16)
		m := NewRIDMap(topo, 4, origin)
		s1 := m.SliceFor(req, addr, 16)
		s2 := m.SliceFor(req, addr, 16)
		if s1 != s2 {
			t.Fatalf("non-deterministic lookup: %d vs %d", s1, s2)
		}
		if s1 < 0 || int(s1) >= topo.Tiles() {
			t.Fatalf("slice %d out of range", s1)
		}
		if !m.StoresResidue(s1, m.InterleaveBits(addr, 16)) {
			t.Fatalf("residue invariant violated: addr %#x req %d origin %d -> slice %d",
				addr, req, origin, s1)
		}
		if h := topo.Hops(req, s1); h > 1 {
			t.Fatalf("size-4 lookup landed %d hops away", h)
		}
	})
}

// FuzzPlacementClasses checks that the full placement engine never places
// a block outside the chip and keeps private data strictly local for every
// input.
func FuzzPlacementClasses(f *testing.F) {
	f.Add(uint64(0x1000), uint8(3))
	f.Add(uint64(0xFFFFFFFFFFFF), uint8(12))
	topo := noc.NewFoldedTorus2D(4, 4)
	p, err := NewPlacement(topo, 4, nil, 16, 0)
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, addr uint64, reqRaw uint8) {
		req := noc.TileID(int(reqRaw) % 16)
		if got := p.SliceFor(cache.ClassPrivate, req, addr); got != req {
			t.Fatalf("private data escaped local slice: %d", got)
		}
		s := p.SharedSlice(addr)
		if s < 0 || int(s) >= topo.Tiles() {
			t.Fatalf("shared slice %d out of range", s)
		}
		i := p.SliceFor(cache.ClassInstruction, req, addr)
		if topo.Hops(req, i) > 1 {
			t.Fatalf("instruction slice %d more than one hop from %d", i, req)
		}
	})
}
