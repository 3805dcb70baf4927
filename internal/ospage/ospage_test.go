package ospage

import (
	"testing"
	"testing/quick"

	"rnuca/internal/cache"
	"rnuca/internal/trace"
)

func TestFirstTouchIsPrivate(t *testing.T) {
	tab := NewTable(8192)
	out := tab.Access(5, trace.Load, 2, 2)
	if out.Class != cache.ClassPrivate || out.Reclass != ReclassNone {
		t.Fatalf("first touch: %+v", out)
	}
	if e, _ := tab.Lookup(5); e.OwnerCID != 2 || e.OwnerTID != 2 {
		t.Fatalf("first touch entry: %+v", e)
	}
	if tab.Transitions().FirstTouches != 1 {
		t.Fatal("first touch not counted")
	}
	// Same core again: still private, no transition.
	out = tab.Access(5, trace.Store, 2, 2)
	if out.Class != cache.ClassPrivate || out.Reclass != ReclassNone {
		t.Fatalf("repeat access: %+v", out)
	}
}

func TestPrivateToSharedOnSecondThread(t *testing.T) {
	tab := NewTable(8192)
	tab.Access(7, trace.Load, 0, 0)
	out := tab.Access(7, trace.Load, 3, 3) // different core, different thread
	if out.Class != cache.ClassShared || out.Reclass != ReclassPrivateToShared {
		t.Fatalf("sharing transition: %+v", out)
	}
	if out.PrevOwner != 0 {
		t.Fatalf("previous owner = %d, want 0", out.PrevOwner)
	}
	// Monotone: never goes back to private.
	out = tab.Access(7, trace.Load, 5, 5)
	if out.Class != cache.ClassShared || out.Reclass != ReclassNone {
		t.Fatalf("shared page transitioned again: %+v", out)
	}
}

func TestThreadMigrationKeepsPrivate(t *testing.T) {
	tab := NewTable(8192)
	tab.Access(9, trace.Load, 1, 42)
	// Same thread 42 now on core 6: migration, not sharing.
	out := tab.Access(9, trace.Load, 6, 42)
	if out.Class != cache.ClassPrivate || out.Reclass != ReclassMigration {
		t.Fatalf("migration: %+v", out)
	}
	if e, _ := tab.Lookup(9); out.PrevOwner != 1 || e.OwnerCID != 6 || e.OwnerTID != 42 {
		t.Fatalf("owners: %+v, entry %+v", out, e)
	}
	// Subsequent access from the new core is a plain private access.
	out = tab.Access(9, trace.Store, 6, 42)
	if out.Reclass != ReclassNone || out.Class != cache.ClassPrivate {
		t.Fatalf("post-migration: %+v", out)
	}
}

func TestInstructionClassification(t *testing.T) {
	tab := NewTable(8192)
	out := tab.Access(11, trace.IFetch, 4, 4)
	if out.Class != cache.ClassInstruction {
		t.Fatalf("ifetch first touch: %+v", out)
	}
	// Any core fetching: still instruction, no transitions.
	out = tab.Access(11, trace.IFetch, 9, 9)
	if out.Class != cache.ClassInstruction || out.Reclass != ReclassNone {
		t.Fatalf("second ifetch: %+v", out)
	}
	// A data *read* of an instruction page is served by the instruction
	// placement (misclassified access, no transition).
	out = tab.Access(11, trace.Load, 2, 2)
	if out.Class != cache.ClassInstruction || out.Reclass != ReclassNone {
		t.Fatalf("data read of instr page: %+v", out)
	}
	// A *store* forces de-replication to shared.
	out = tab.Access(11, trace.Store, 2, 2)
	if out.Class != cache.ClassShared || out.Reclass != ReclassInstrToShared {
		t.Fatalf("store to instr page: %+v", out)
	}
}

func TestPrivateToInstruction(t *testing.T) {
	tab := NewTable(8192)
	tab.Access(13, trace.Load, 3, 3)
	out := tab.Access(13, trace.IFetch, 8, 8)
	if out.Class != cache.ClassInstruction || out.Reclass != ReclassPrivateToInstr || out.PrevOwner != 3 {
		t.Fatalf("private->instr: %+v", out)
	}
}

func TestPageOf(t *testing.T) {
	tab := NewTable(8192)
	if tab.PageOf(0) != 0 || tab.PageOf(8191) != 0 || tab.PageOf(8192) != 1 {
		t.Fatal("PageOf boundaries wrong")
	}
	if tab.pageBits != 13 {
		t.Fatalf("pageBits = %d, want 13", tab.pageBits)
	}
}

func TestCountByClass(t *testing.T) {
	tab := NewTable(8192)
	tab.Access(1, trace.Load, 0, 0)
	tab.Access(2, trace.Load, 0, 0)
	tab.Access(2, trace.Load, 1, 1) // becomes shared
	tab.Access(3, trace.IFetch, 0, 0)
	got := tab.CountByClass()
	if got[cache.ClassPrivate] != 1 || got[cache.ClassShared] != 1 || got[cache.ClassInstruction] != 1 {
		t.Fatalf("counts: %v", got)
	}
	if tab.Pages() != 3 {
		t.Fatalf("pages = %d", tab.Pages())
	}
}

// Classification is monotone for data pages: once shared, never private or
// instruction again via data accesses, regardless of access order.
func TestQuickSharedIsTerminalForData(t *testing.T) {
	f := func(ops []uint16) bool {
		tab := NewTable(8192)
		tab.Access(1, trace.Load, 0, 0)
		tab.Access(1, trace.Load, 1, 1) // force shared
		for _, op := range ops {
			cid := int(op % 16)
			kind := trace.Load
			if op&0x100 != 0 {
				kind = trace.Store
			}
			out := tab.Access(1, kind, cid, cid)
			if out.Class != cache.ClassShared {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestTLBBasics(t *testing.T) {
	tlb := NewTLB(2)
	if _, ok := tlb.Lookup(1); ok {
		t.Fatal("empty TLB hit")
	}
	tlb.Fill(1, cache.ClassPrivate)
	class, ok := tlb.Lookup(1)
	if !ok || class != cache.ClassPrivate {
		t.Fatalf("lookup: %v %v", class, ok)
	}
	tlb.Fill(2, cache.ClassShared)
	tlb.Lookup(1) // make 1 MRU
	tlb.Fill(3, cache.ClassInstruction)
	if _, ok := tlb.Lookup(2); ok {
		t.Fatal("LRU entry 2 should have been evicted")
	}
	if _, ok := tlb.Lookup(1); !ok {
		t.Fatal("MRU entry 1 evicted")
	}
	if tlb.Evictions() != 1 {
		t.Fatalf("evictions = %d", tlb.Evictions())
	}
}

func TestTLBShootdown(t *testing.T) {
	tlb := NewTLB(4)
	tlb.Fill(1, cache.ClassPrivate)
	if !tlb.Shootdown(1) {
		t.Fatal("shootdown missed present entry")
	}
	if tlb.Shootdown(1) {
		t.Fatal("double shootdown succeeded")
	}
	if _, ok := tlb.Lookup(1); ok {
		t.Fatal("entry survived shootdown")
	}
}

func TestSystemTranslationFlow(t *testing.T) {
	s := NewSystem(8192, 64, 4)
	// Core 0 touches a page: TLB miss, classified private.
	r := s.Translate(0x4000, 0, 0, false, false)
	if !r.TLBMiss || r.Class != cache.ClassPrivate {
		t.Fatalf("first translate: %+v", r)
	}
	// Second access: TLB hit, no walk.
	r = s.Translate(0x4abc, 0, 0, false, false)
	if r.TLBMiss {
		t.Fatal("second access should hit TLB")
	}
	// Core 1 (different thread) touches it: walk + reclassification.
	r = s.Translate(0x4000, 1, 1, false, false)
	if !r.TLBMiss || r.Reclass != ReclassPrivateToShared {
		t.Fatalf("sharing translate: %+v", r)
	}
	// Core 0's stale TLB entry must be gone: next access misses and sees
	// the shared classification.
	r = s.Translate(0x4000, 0, 0, false, false)
	if !r.TLBMiss || r.Class != cache.ClassShared {
		t.Fatalf("post-shootdown translate: %+v", r)
	}
}

func TestSystemInstructionStoreTrap(t *testing.T) {
	s := NewSystem(8192, 64, 2)
	s.Translate(0x2000, 0, 0, false, true) // ifetch: instruction page
	s.Translate(0x2000, 1, 1, false, true) // other core caches translation
	// Store via a TLB-resident instruction entry must trap and demote.
	r := s.Translate(0x2000, 0, 0, true, false)
	if r.Class != cache.ClassShared || r.Reclass != ReclassInstrToShared {
		t.Fatalf("store to instr page: %+v", r)
	}
	// The other core's translation must have been shot down.
	r = s.Translate(0x2040, 1, 1, false, false)
	if !r.TLBMiss || r.Class != cache.ClassShared {
		t.Fatalf("stale remote translation survived: %+v", r)
	}
}

func TestForceClassifiers(t *testing.T) {
	tab := NewTable(8192)
	tab.ForcePrivate(1, 2, 2)
	tab.ForceShared(2)
	tab.ForceInstruction(3)
	for p, want := range map[PageID]cache.Class{1: cache.ClassPrivate, 2: cache.ClassShared, 3: cache.ClassInstruction} {
		if e, ok := tab.Lookup(p); !ok || e.Class != want {
			t.Fatalf("page %d: %+v, %v; want %v", p, e, ok, want)
		}
	}
}

func TestBadConfigPanics(t *testing.T) {
	for _, fn := range []func(){
		func() { NewTable(1000) },
		func() { NewTable(0) },
		func() { NewTLB(0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic")
				}
			}()
			fn()
		}()
	}
}
