package coherence

import (
	"testing"
	"testing/quick"

	"rnuca/internal/cache"
)

func TestBitset(t *testing.T) {
	var b Bitset
	b = b.Set(3).Set(7).Set(3)
	if b.Count() != 2 || !b.Has(3) || !b.Has(7) || b.Has(5) {
		t.Fatalf("bitset ops wrong: %b", b)
	}
	b = b.Clear(3)
	if b.Has(3) || b.Count() != 1 {
		t.Fatal("clear failed")
	}
	ts := Bitset(0).Set(1).Set(9).Set(4).Tiles()
	if len(ts) != 3 || ts[0] != 1 || ts[1] != 4 || ts[2] != 9 {
		t.Fatalf("tiles = %v", ts)
	}
}

// A read served by a clean sharer picks its supplier without allocating,
// and a write lists the other sharers in ascending tile order.
func TestSharerWalksDoNotAllocate(t *testing.T) {
	d := NewDirectory(16)
	dist := func(tile int) int { return 16 - tile }
	for _, tile := range []int{9, 2, 12} {
		d.Read(0x40, tile, dist)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if act := d.Read(0x40, 5, dist); act.Provider != 12 {
			t.Fatalf("provider %d, want the nearest sharer 12", act.Provider)
		}
		d.Evict(0x40, 5, false)
	})
	if allocs != 0 {
		t.Fatalf("%v allocations per sharer read", allocs)
	}
	act := d.Write(0x40, 9, dist)
	if got := act.Invalidated; len(got) != 2 || got[0] != 2 || got[1] != 12 {
		t.Fatalf("invalidated %v, want [2 12]", got)
	}
}

func TestColdReadComesFromMemory(t *testing.T) {
	d := NewDirectory(16)
	act := d.Read(0x40, 3, nil)
	if act.Source != SourceMemory {
		t.Fatalf("cold read source = %v", act.Source)
	}
	e := d.Lookup(0x40)
	if e == nil || !e.Sharers.Has(3) || e.Owner != -1 {
		t.Fatalf("entry after cold read: %+v", e)
	}
	if e.State() != cache.Shared {
		t.Fatalf("state = %v, want S", e.State())
	}
}

func TestReadFromOwnerTransitionsToOwned(t *testing.T) {
	d := NewDirectory(16)
	d.Write(0x40, 2, nil) // tile 2 becomes M
	if st := d.Lookup(0x40).State(); st != cache.Modified {
		t.Fatalf("after write state = %v", st)
	}
	act := d.Read(0x40, 5, nil)
	if act.Source != SourceOwner || act.Provider != 2 {
		t.Fatalf("read after write: %+v", act)
	}
	e := d.Lookup(0x40)
	if e.Owner != 2 || !e.Sharers.Has(5) {
		t.Fatalf("entry: %+v", e)
	}
	if e.State() != cache.Owned {
		t.Fatalf("state = %v, want O", e.State())
	}
}

func TestReadFromNearestSharer(t *testing.T) {
	d := NewDirectory(16)
	d.Read(0x40, 1, nil)
	d.Read(0x40, 8, nil)
	// Requestor 9: pretend distance is |t-9|.
	dist := func(t int) int {
		if t > 9 {
			return t - 9
		}
		return 9 - t
	}
	act := d.Read(0x40, 9, dist)
	if act.Source != SourceSharer || act.Provider != 8 {
		t.Fatalf("nearest sharer: %+v", act)
	}
}

func TestWriteInvalidatesAllOthers(t *testing.T) {
	d := NewDirectory(16)
	d.Read(0x40, 1, nil)
	d.Read(0x40, 2, nil)
	d.Read(0x40, 3, nil)
	act := d.Write(0x40, 2, nil)
	if len(act.Invalidated) != 2 {
		t.Fatalf("invalidated %v, want tiles 1 and 3", act.Invalidated)
	}
	e := d.Lookup(0x40)
	if e.Owner != 2 || e.Sharers != 0 || e.State() != cache.Modified {
		t.Fatalf("entry after write: %+v", e)
	}
}

func TestUpgradeOwnCopy(t *testing.T) {
	d := NewDirectory(16)
	d.Write(0x40, 4, nil)
	act := d.Write(0x40, 4, nil)
	if act.Source != SourceNone || len(act.Invalidated) != 0 {
		t.Fatalf("silent upgrade: %+v", act)
	}
	// Owner with sharers: upgrade invalidates the sharers only.
	d.Read(0x40, 6, nil)
	act = d.Write(0x40, 4, nil)
	if act.Source != SourceNone || len(act.Invalidated) != 1 || act.Invalidated[0] != 6 {
		t.Fatalf("upgrade with sharers: %+v", act)
	}
	if d.Stats().Upgrades != 1 {
		t.Fatalf("upgrades = %d", d.Stats().Upgrades)
	}
}

func TestWriteToSharedComesFromSharerWithInvals(t *testing.T) {
	d := NewDirectory(16)
	d.Read(0x40, 1, nil)
	d.Read(0x40, 2, nil)
	act := d.Write(0x40, 7, nil)
	if act.Source != SourceSharer {
		t.Fatalf("source = %v", act.Source)
	}
	if len(act.Invalidated) != 2 {
		t.Fatalf("invalidated = %v", act.Invalidated)
	}
}

func TestEvictions(t *testing.T) {
	d := NewDirectory(16)
	d.Write(0x40, 3, nil)
	d.Read(0x40, 5, nil) // 3 owns (O), 5 shares
	act := d.Evict(0x40, 3, true)
	if !act.Writeback {
		t.Fatal("dirty owner eviction must write back")
	}
	e := d.Lookup(0x40)
	if e == nil || e.Owner != -1 || !e.Sharers.Has(5) {
		t.Fatalf("entry after owner eviction: %+v", e)
	}
	d.Evict(0x40, 5, false)
	if d.Lookup(0x40) != nil {
		t.Fatal("entry should vanish when last copy leaves")
	}
	if d.Entries() != 0 {
		t.Fatal("entry count wrong")
	}
}

func TestInvalidateAll(t *testing.T) {
	d := NewDirectory(16)
	d.Write(0x40, 3, nil)
	d.Read(0x40, 5, nil)
	d.Read(0x40, 9, nil)
	act := d.Invalidate(0x40)
	if len(act.Invalidated) != 3 || !act.Writeback {
		t.Fatalf("invalidate-all: %+v", act)
	}
	if d.Lookup(0x40) != nil {
		t.Fatal("entry survived invalidate-all")
	}
}

func TestHolders(t *testing.T) {
	d := NewDirectory(16)
	if h := d.Holders(0x40); h != nil {
		t.Fatalf("holders of untracked block: %v", h)
	}
	d.Write(0x40, 3, nil)
	d.Read(0x40, 1, nil)
	h := d.Holders(0x40)
	if len(h) != 2 || h[0] != 3 || h[1] != 1 {
		t.Fatalf("holders: %v", h)
	}
}

// Property: after any sequence of reads/writes/evicts, the MOSI invariants
// hold (single owner, owner not a sharer, no empty entries).
func TestQuickDirectoryInvariants(t *testing.T) {
	f := func(ops []uint16) bool {
		d := NewDirectory(16)
		live := map[cache.Addr]map[int]bool{} // tile -> has copy
		for _, op := range ops {
			tile := int(op % 16)
			addr := cache.Addr((op>>4)%8) * 64
			if live[addr] == nil {
				live[addr] = map[int]bool{}
			}
			switch (op >> 12) % 3 {
			case 0:
				d.Read(addr, tile, nil)
				live[addr][tile] = true
			case 1:
				d.Write(addr, tile, nil)
				live[addr] = map[int]bool{tile: true}
			case 2:
				if live[addr][tile] {
					d.Evict(addr, tile, op&1 == 0)
					delete(live[addr], tile)
				}
			}
			if d.CheckInvariants() != nil {
				return false
			}
		}
		// Directory holders must exactly match our shadow model.
		for addr, tiles := range live {
			holders := map[int]bool{}
			for _, h := range d.Holders(addr) {
				holders[h] = true
			}
			if len(holders) != len(tiles) {
				return false
			}
			for tl := range tiles {
				if !holders[tl] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestDirectoryBounds(t *testing.T) {
	for _, n := range []int{0, 65, -1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("NewDirectory(%d) should panic", n)
				}
			}()
			NewDirectory(n)
		}()
	}
}

// §2.2 sizing: 288K entries chip-wide for the private organization; the
// per-tile worst-case directory exceeds the 1MB L2 slice, while the shared
// organization's directory is roughly an order of magnitude smaller.
func TestPaperDirectorySizing(t *testing.T) {
	c := PaperSizing()
	if got := c.EntriesPrivate(); got != 288*1024 {
		t.Fatalf("private entries = %d, want 288K", got)
	}
	if got := c.EntriesShared(); got != 32*1024 {
		t.Fatalf("shared entries = %d, want 32K", got)
	}
	priv := c.BytesPerTilePrivate()
	if priv <= c.L2SliceBytes {
		t.Fatalf("private directory (%d bytes) must exceed the 1MB slice", priv)
	}
	sh := c.BytesPerTileShared()
	if sh >= priv/8 {
		t.Fatalf("shared directory (%d) should be ~9x smaller than private (%d)", sh, priv)
	}
	if sh > 512<<10 {
		t.Fatalf("shared directory (%d) should be a few hundred KB", sh)
	}
}

func TestDirectoryReset(t *testing.T) {
	d := NewDirectory(8)
	d.Write(0x40, 1, nil)
	d.Reset()
	if d.Entries() != 0 || d.Stats().Writes != 0 {
		t.Fatal("reset incomplete")
	}
}
