package ospage

import (
	"testing"
	"testing/quick"

	"rnuca/internal/cache"
	"rnuca/internal/trace"
)

// TLB capacity invariant: never more resident entries than capacity, and
// the most recently touched entry is always resident.
func TestQuickTLBCapacityAndMRU(t *testing.T) {
	f := func(pages []uint8) bool {
		tlb := NewTLB(8)
		var last PageID = ^PageID(0)
		for _, p := range pages {
			id := PageID(p % 32)
			if _, ok := tlb.Lookup(id); !ok {
				tlb.Fill(id, cache.ClassPrivate)
			}
			last = id
			if tlb.Len() > 8 {
				return false
			}
		}
		if last == ^PageID(0) {
			return true
		}
		_, ok := tlb.Lookup(last)
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// System-level property: regardless of access interleaving, every page
// ends in a consistent terminal state, and classifications observed
// through the TLB always match the page table.
func TestQuickSystemTLBTableAgreement(t *testing.T) {
	f := func(ops []uint16) bool {
		s := NewSystem(8192, 16, 4)
		for _, op := range ops {
			addr := uint64(op%64) * 8192
			cid := int(op>>6) % 4
			write := op&0x400 != 0
			ifetch := op&0x800 != 0 && !write
			res := s.Translate(addr, cid, cid, write, ifetch)
			// The returned class must match the table's record.
			e, ok := s.Table.Lookup(s.Table.PageOf(addr))
			if !ok || e.Class != res.Class {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Instruction pages never hold an owner; private pages always do.
func TestQuickOwnershipConsistency(t *testing.T) {
	f := func(ops []uint16) bool {
		tab := NewTable(8192)
		for _, op := range ops {
			p := PageID(op % 32)
			cid := int(op>>5) % 8
			kind := trace.Load
			if op&0x2000 != 0 {
				kind = trace.IFetch
			} else if op&0x1000 != 0 {
				kind = trace.Store
			}
			tab.Access(p, kind, cid, cid)
			e, _ := tab.Lookup(p)
			switch e.Class {
			case cache.ClassPrivate:
				if e.OwnerCID < 0 {
					return false
				}
			case cache.ClassInstruction, cache.ClassShared:
				if e.Class == cache.ClassInstruction && e.OwnerCID >= 0 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
