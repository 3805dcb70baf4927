package cache

import (
	"testing"
	"testing/quick"
)

// Victim address reconstruction round-trips for arbitrary addresses: any
// block inserted and then force-evicted reports its own address back.
func TestQuickReconstructRoundTrip(t *testing.T) {
	g := Geometry{SizeBytes: 64 << 10, Ways: 2, BlockBytes: 64}
	f := func(raw uint32) bool {
		c := New(g)
		addr := Addr(raw) &^ 63
		c.Insert(addr, Shared, ClassShared)
		found := false
		c.ForEach(func(a Addr, _ *Line) {
			if a == addr {
				found = true
			}
		})
		return found
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// The LRU stack property: fill a set, touch its blocks in a known
// permutation, then force evictions — victims must leave in exactly the
// touch order (least recently touched first).
func TestLRUStackProperty(t *testing.T) {
	g := Geometry{SizeBytes: 2048, Ways: 8, BlockBytes: 64} // 4 sets
	c := New(g)
	mk := func(tag int) Addr { return Addr(tag<<8 | 0<<6) } // set 0
	for tag := 0; tag < 8; tag++ {
		c.Insert(mk(tag), Shared, ClassShared)
	}
	perm := []int{5, 2, 7, 0, 3, 6, 1, 4} // touch order = eviction order
	for _, tg := range perm {
		if _, hit := c.Lookup(mk(tg)); !hit {
			t.Fatalf("tag %d missing during touch pass", tg)
		}
	}
	for step, want := range perm {
		v := c.Insert(mk(100+step), Shared, ClassShared)
		if !v.Valid {
			t.Fatalf("expected eviction at step %d", step)
		}
		if v.Addr != mk(want) {
			t.Fatalf("step %d evicted %#x, want tag %d (LRU order violated)",
				step, uint64(v.Addr), want)
		}
		// Fillers are most-recently-used, so every subsequent eviction
		// still targets the original blocks in touch order.
	}
}

// InvalidateRange over random states removes exactly what a walk of the
// whole array filtering on the range would, leaves every survivor where
// it was (same per-set order, hence the same ForEach sequence), and keeps
// occupancy equal to the survivors.
func TestQuickInvalidateRangeMatchesFullScan(t *testing.T) {
	g := Geometry{SizeBytes: 16 << 10, Ways: 4, BlockBytes: 64}
	f := func(addrs []uint16, lo, span uint16, classes []uint8) bool {
		c := New(g)
		for i, a := range addrs {
			addr := Addr(a) &^ 63
			if _, hit := c.Lookup(addr); !hit {
				class := ClassPrivate
				if i < len(classes) {
					class = Class(classes[i] % 4)
				}
				c.Insert(addr, Shared, class)
			}
		}
		from, to := Addr(lo), Addr(lo)+Addr(span)
		type kept struct {
			a    Addr
			line Line
		}
		var want []kept
		wantRemoved := 0
		c.ForEach(func(a Addr, line *Line) {
			if a >= from && a < to {
				wantRemoved++
				return
			}
			want = append(want, kept{a, *line})
		})
		if c.InvalidateRange(from, to, nil) != wantRemoved {
			return false
		}
		var got []kept
		c.ForEach(func(a Addr, line *Line) { got = append(got, kept{a, *line}) })
		if len(got) != len(want) || c.Lines() != len(got) {
			return false
		}
		for i := range got {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
