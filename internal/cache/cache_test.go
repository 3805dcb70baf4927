package cache

import (
	"testing"
	"testing/quick"
	"unsafe"
)

func smallGeom() Geometry { return Geometry{SizeBytes: 4096, Ways: 4, BlockBytes: 64} } // 16 sets

func TestGeometry(t *testing.T) {
	g := Geometry{SizeBytes: 1 << 20, Ways: 16, BlockBytes: 64}
	if g.Sets() != 1024 {
		t.Fatalf("1MB/16-way/64B = %d sets, want 1024", g.Sets())
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := Geometry{SizeBytes: 1000, Ways: 3, BlockBytes: 64}
	if err := bad.Validate(); err == nil {
		t.Fatal("invalid geometry accepted")
	}
	if err := (Geometry{SizeBytes: 4096, Ways: 4, BlockBytes: 48}).Validate(); err == nil {
		t.Fatal("non-power-of-two block accepted")
	}
}

func TestLookupInsertBasics(t *testing.T) {
	c := New(smallGeom())
	if _, hit := c.Lookup(0x1000); hit {
		t.Fatal("empty cache hit")
	}
	c.Insert(0x1000, Shared, ClassPrivate)
	line, hit := c.Lookup(0x1000)
	if !hit {
		t.Fatal("inserted block missing")
	}
	if line.State != Shared || line.Class != ClassPrivate {
		t.Fatalf("line metadata wrong: %+v", line)
	}
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 1 {
		t.Fatalf("stats %+v, want 1 hit 1 miss", st)
	}
}

func TestLRUEviction(t *testing.T) {
	c := New(smallGeom()) // 16 sets, 4 ways
	// Fill one set: addresses with identical set index, different tags.
	// Set index bits are addr[9:6] for 16 sets of 64B blocks.
	mk := func(tag int) Addr { return Addr(tag<<10 | 0x0<<6) }
	for i := 0; i < 4; i++ {
		c.Insert(mk(i), Shared, ClassShared)
	}
	// Touch 0 to make it MRU; 1 becomes LRU.
	c.Lookup(mk(0))
	v := c.Insert(mk(9), Shared, ClassShared)
	if !v.Valid {
		t.Fatal("full set insert must evict")
	}
	if v.Addr != mk(1) {
		t.Fatalf("evicted %#x, want %#x (true LRU)", uint64(v.Addr), uint64(mk(1)))
	}
	if _, hit := c.Lookup(mk(1)); hit {
		t.Fatal("evicted block still present")
	}
	if _, hit := c.Lookup(mk(0)); !hit {
		t.Fatal("MRU block evicted")
	}
}

func TestDirtyEvictionCountsWriteback(t *testing.T) {
	c := New(smallGeom())
	mk := func(tag int) Addr { return Addr(tag<<10 | 0x2<<6) }
	c.Insert(mk(0), Modified, ClassPrivate)
	for i := 1; i < 5; i++ {
		c.Insert(mk(i), Shared, ClassShared)
	}
	if wb := c.Stats().Writebacks; wb != 1 {
		t.Fatalf("writebacks = %d, want 1", wb)
	}
}

func TestVictimAddressReconstruction(t *testing.T) {
	c := New(smallGeom())
	addr := Addr(0xDEAD<<10 | 0x7<<6)
	c.Insert(addr, Owned, ClassShared)
	// Force eviction with 4 more inserts into the same set.
	var ev Victim
	for i := 1; i <= 4; i++ {
		ev = c.Insert(Addr(i)<<10|0x7<<6, Shared, ClassShared)
	}
	if !ev.Valid || ev.Addr != addr {
		t.Fatalf("reconstructed victim %#x, want %#x", uint64(ev.Addr), uint64(addr))
	}
	if ev.Line.State != Owned {
		t.Fatalf("victim state %v, want Owned", ev.Line.State)
	}
}

func TestInvalidate(t *testing.T) {
	c := New(smallGeom())
	c.Insert(0x40, Modified, ClassPrivate)
	line, ok := c.Invalidate(0x40)
	if !ok || line.State != Modified {
		t.Fatalf("invalidate returned %+v %v", line, ok)
	}
	if _, ok := c.Invalidate(0x40); ok {
		t.Fatal("double invalidate succeeded")
	}
	if c.Lines() != 0 {
		t.Fatal("line count wrong after invalidate")
	}
}

func TestInvalidateRangePage(t *testing.T) {
	c := New(smallGeom())
	// Insert blocks from two 8KB pages.
	pageA, pageB := Addr(0x0), Addr(0x2000)
	for i := 0; i < 8; i++ {
		c.Insert(pageA+Addr(i*64), Shared, ClassPrivate)
		c.Insert(pageB+Addr(i*64), Modified, ClassPrivate)
	}
	var dirty int
	n := c.InvalidateRange(pageB, pageB+0x2000, func(a Addr, line Line) {
		if a < pageB || a >= pageB+0x2000 {
			t.Errorf("removed %#x outside the page", uint64(a))
		}
		if line.State.Dirty() {
			dirty++
		}
	})
	if n != 8 || dirty != 8 {
		t.Fatalf("purged %d blocks (%d dirty), want 8 (8)", n, dirty)
	}
	if c.Lines() != 8 {
		t.Fatalf("remaining %d, want 8", c.Lines())
	}
	if n := c.InvalidateRange(pageB, pageB+0x2000, nil); n != 0 {
		t.Fatalf("second purge removed %d", n)
	}
}

// A range whose end wraps past the top of the address space is empty,
// and one that starts in the top block stops instead of wrapping to 0.
func TestInvalidateRangeTopOfAddressSpace(t *testing.T) {
	c := New(smallGeom())
	top := ^Addr(0) &^ 63
	c.Insert(0, Shared, ClassShared)
	c.Insert(top, Shared, ClassShared)
	if n := c.InvalidateRange(top, top+64, nil); n != 0 {
		t.Fatalf("wrapped range removed %d", n)
	}
	if n := c.InvalidateRange(top+1, ^Addr(0), nil); n != 0 {
		t.Fatalf("range above the top block removed %d", n)
	}
	if n := c.InvalidateRange(top, ^Addr(0), nil); n != 1 || c.Lines() != 1 {
		t.Fatalf("top block purge removed %d, %d lines left", n, c.Lines())
	}
	if _, ok := c.Peek(0); !ok {
		t.Fatal("block 0 purged by a range at the top of the address space")
	}
}

func TestOccupancyByClass(t *testing.T) {
	c := New(smallGeom())
	c.Insert(0x0, Shared, ClassInstruction)
	c.Insert(0x40, Shared, ClassPrivate)
	c.Insert(0x80, Shared, ClassPrivate)
	c.Insert(0xC0, Shared, ClassShared)
	if c.Occupancy(ClassPrivate) != 2 || c.Occupancy(ClassInstruction) != 1 || c.Occupancy(ClassShared) != 1 {
		t.Fatalf("occupancy wrong: I=%d P=%d S=%d",
			c.Occupancy(ClassInstruction), c.Occupancy(ClassPrivate), c.Occupancy(ClassShared))
	}
	c.Invalidate(0x40)
	if c.Occupancy(ClassPrivate) != 1 {
		t.Fatal("occupancy not decremented on invalidate")
	}
}

func TestDoubleInsertPanics(t *testing.T) {
	c := New(smallGeom())
	c.Insert(0x40, Shared, ClassShared)
	defer func() {
		if recover() == nil {
			t.Fatal("double insert must panic")
		}
	}()
	c.Insert(0x40, Shared, ClassShared)
}

func TestPeekDoesNotDisturbLRUOrStats(t *testing.T) {
	c := New(smallGeom())
	mk := func(tag int) Addr { return Addr(tag<<10 | 0x1<<6) }
	for i := 0; i < 4; i++ {
		c.Insert(mk(i), Shared, ClassShared)
	}
	h0 := c.Stats().Hits
	c.Peek(mk(0)) // would refresh LRU if buggy
	c.Insert(mk(10), Shared, ClassShared)
	if _, hit := c.Lookup(mk(0)); hit {
		t.Fatal("Peek refreshed LRU; block 0 should have been the eviction victim")
	}
	if c.Stats().Hits != h0+0 {
		t.Fatal("Peek changed hit stats")
	}
}

// Occupancy never exceeds capacity; inserting N blocks keeps the most
// recently used ones resident.
func TestQuickCapacityBound(t *testing.T) {
	g := smallGeom()
	f := func(addrs []uint16) bool {
		c := New(g)
		seen := map[Addr]bool{}
		for _, a := range addrs {
			addr := Addr(a) << 6
			if seen[addr] {
				continue
			}
			if _, hit := c.Lookup(addr); !hit {
				c.Insert(addr, Shared, ClassShared)
				seen[addr] = true
			}
			if c.Lines() > g.Sets()*g.Ways {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestVictimCache(t *testing.T) {
	v := NewVictimCache(2)
	v.Put(0x40, Line{State: Modified})
	v.Put(0x80, Line{State: Shared})
	v.Put(0xC0, Line{State: Owned}) // displaces 0x40 (FIFO)
	if _, ok := v.Take(0x40); ok {
		t.Fatal("oldest entry should have been displaced")
	}
	line, ok := v.Take(0x80)
	if !ok || line.State != Shared {
		t.Fatalf("victim take failed: %+v %v", line, ok)
	}
	if v.Len() != 1 {
		t.Fatalf("len = %d, want 1", v.Len())
	}
	if v.Hits() != 1 || v.Misses() != 1 {
		t.Fatalf("hits=%d misses=%d", v.Hits(), v.Misses())
	}
}

func TestVictimCacheZeroEntries(t *testing.T) {
	v := NewVictimCache(0)
	v.Put(0x40, Line{})
	if v.Len() != 0 {
		t.Fatal("zero-entry victim cache stored a block")
	}
}

func TestClassString(t *testing.T) {
	if ClassInstruction.String() != "instruction" || ClassPrivate.String() != "private" ||
		ClassShared.String() != "shared" || ClassUnknown.String() != "unknown" {
		t.Fatal("Class.String mismatch")
	}
	if Modified.String() != "M" || Owned.String() != "O" || Shared.String() != "S" || Invalid.String() != "I" {
		t.Fatal("State.String mismatch")
	}
	if !Modified.Dirty() || !Owned.Dirty() || Shared.Dirty() {
		t.Fatal("State.Dirty mismatch")
	}
}

func TestCacheReset(t *testing.T) {
	c := New(smallGeom())
	c.Insert(0x40, Shared, ClassShared)
	c.Lookup(0x40)
	c.Reset()
	if c.Lines() != 0 || c.Stats().Hits != 0 {
		t.Fatal("reset incomplete")
	}
	if _, hit := c.Lookup(0x40); hit {
		t.Fatal("block survived reset")
	}
}

// A set's header and a line's metadata are 8 bytes each, so an untouched
// set costs 8 bytes and a line 16 with its tag.
func TestLayoutSizes(t *testing.T) {
	if h, l := unsafe.Sizeof(header{}), unsafe.Sizeof(Line{}); h != 8 || l != 8 {
		t.Fatalf("header %d bytes, Line %d bytes; want 8 and 8", h, l)
	}
}
