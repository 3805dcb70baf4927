package trace

import (
	"testing"

	"rnuca/internal/cache"
)

func ref(core int, kind Kind, addr uint64, class cache.Class) Ref {
	return Ref{Core: core, Thread: core, Kind: kind, Addr: addr, Class: class, Busy: 1}
}

func TestRefBasics(t *testing.T) {
	r := ref(3, Store, 0x12345, cache.ClassShared)
	if r.BlockAddr() != 0x12340 {
		t.Fatalf("block addr %#x", uint64(r.BlockAddr()))
	}
	if !r.IsWrite() {
		t.Fatal("store must be a write")
	}
	if ref(0, Load, 0, 0).IsWrite() || ref(0, IFetch, 0, 0).IsWrite() {
		t.Fatal("load/ifetch are not writes")
	}
	if IFetch.String() != "ifetch" || Load.String() != "load" || Store.String() != "store" {
		t.Fatal("Kind.String mismatch")
	}
}

func TestSliceStream(t *testing.T) {
	s := NewSliceStream([]Ref{ref(0, Load, 0, 0), ref(0, Load, 64, 0)})
	if s.Next().Addr != 0 || s.Next().Addr != 64 || s.Next().Addr != 0 {
		t.Fatal("slice stream must loop")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("empty stream must panic")
		}
	}()
	NewSliceStream(nil)
}

func TestClusteringSeparatesClasses(t *testing.T) {
	an := NewAnalyzer(4)
	// Instruction block fetched by all 4 cores, read-only.
	for c := 0; c < 4; c++ {
		an.Observe(ref(c, IFetch, 0x1000, cache.ClassInstruction))
	}
	// Private data block: single core, written.
	an.Observe(ref(2, Store, 0x2000, cache.ClassPrivate))
	an.Observe(ref(2, Load, 0x2000, cache.ClassPrivate))
	// Shared RW block: two cores, written.
	an.Observe(ref(0, Load, 0x3000, cache.ClassShared))
	an.Observe(ref(1, Store, 0x3000, cache.ClassShared))

	bubbles := an.ReferenceClustering()
	find := func(sharers int, instr bool) *Bubble {
		for i := range bubbles {
			if bubbles[i].Sharers == sharers && bubbles[i].Instruction == instr {
				return &bubbles[i]
			}
		}
		return nil
	}
	ib := find(4, true)
	if ib == nil || ib.RWFraction != 0 {
		t.Fatalf("instruction bubble wrong: %+v", ib)
	}
	pb := find(1, false)
	if pb == nil || !pb.Private || pb.RWFraction != 1 {
		t.Fatalf("private bubble wrong: %+v", pb)
	}
	sb := find(2, false)
	if sb == nil || sb.RWFraction != 1 || sb.Private {
		t.Fatalf("shared bubble wrong: %+v", sb)
	}
	// Access shares sum to 1.
	sum := 0.0
	for _, b := range bubbles {
		sum += b.AccessShare
	}
	if sum < 0.999 || sum > 1.001 {
		t.Fatalf("access shares sum to %v", sum)
	}
}

func TestBreakdown(t *testing.T) {
	an := NewAnalyzer(4)
	an.Observe(ref(0, IFetch, 0x1000, cache.ClassInstruction))
	an.Observe(ref(0, Load, 0x2000, cache.ClassPrivate))
	an.Observe(ref(0, Load, 0x3000, cache.ClassShared))
	an.Observe(ref(1, Store, 0x3000, cache.ClassShared))
	an.Observe(ref(0, Load, 0x4000, cache.ClassShared))
	an.Observe(ref(1, Load, 0x4000, cache.ClassShared))

	b := an.ReferenceBreakdown()
	if b.TotalAccesses != 6 {
		t.Fatalf("total %d", b.TotalAccesses)
	}
	if b.Instructions != 1 || b.DataPrivate != 1 || b.DataSharedRW != 2 || b.DataSharedRO != 2 {
		t.Fatalf("breakdown %+v, want 1 instr, 1 private, 2 shared-RW, 2 shared-RO", b)
	}
}

func TestWorkingSetCDFHottestFirst(t *testing.T) {
	an := NewAnalyzer(2)
	// Block A: 8 accesses; block B: 2 accesses, both private to core 0.
	for i := 0; i < 8; i++ {
		an.Observe(ref(0, Load, 0x1000, cache.ClassPrivate))
	}
	an.Observe(ref(0, Load, 0x2000, cache.ClassPrivate))
	an.Observe(ref(0, Load, 0x2000, cache.ClassPrivate))

	cdf := an.WorkingSetCDF(cache.ClassPrivate)
	// First 64B block (1/16 KB) must capture 80% of accesses.
	oneBlockKB := 64.0 / 1024.0
	if got := cdf.At(oneBlockKB); got < 0.79 || got > 0.81 {
		t.Fatalf("hottest block captures %v, want 0.8", got)
	}
	if got := cdf.At(2 * oneBlockKB); got < 0.999 {
		t.Fatalf("two blocks capture %v, want 1", got)
	}
}

func TestInstructionReuseInterleaving(t *testing.T) {
	an := NewAnalyzer(2)
	// Perfectly interleaved fetches: every access is a 1st access.
	for i := 0; i < 10; i++ {
		an.Observe(ref(i%2, IFetch, 0x1000, cache.ClassInstruction))
	}
	h := an.ReuseHistogram(true)
	if h[0] < 0.999 {
		t.Fatalf("interleaved fetches should all be 1st accesses: %v", h)
	}
	// Run of 4 by one core: buckets 1st, 2nd, 3rd-4th.
	an2 := NewAnalyzer(2)
	for i := 0; i < 4; i++ {
		an2.Observe(ref(0, IFetch, 0x1000, cache.ClassInstruction))
	}
	h2 := an2.ReuseHistogram(true)
	if h2[0] != 0.25 || h2[1] != 0.25 || h2[2] != 0.5 {
		t.Fatalf("run histogram wrong: %v", h2)
	}
}

func TestSharedReuseResetOnForeignWrite(t *testing.T) {
	an := NewAnalyzer(2)
	// Core 0 reads twice, core 1 writes, core 0 reads twice again: core
	// 0's runs are 1,2,1,2; core 1's write is its own 1st access.
	seq := []Ref{
		ref(0, Load, 0x3000, cache.ClassShared),
		ref(0, Load, 0x3000, cache.ClassShared),
		ref(1, Store, 0x3000, cache.ClassShared),
		ref(0, Load, 0x3000, cache.ClassShared),
		ref(0, Load, 0x3000, cache.ClassShared),
	}
	for _, r := range seq {
		an.Observe(r)
	}
	h := an.ReuseHistogram(false)
	// Buckets: 1st = 3 (two core-0 run starts + core-1 write), 2nd = 2.
	if h[0] != 0.6 || h[1] != 0.4 {
		t.Fatalf("shared reuse %v, want [0.6 0.4 ...]", h)
	}
	// A foreign *read* must NOT reset the run.
	an2 := NewAnalyzer(2)
	an2.Observe(ref(0, Load, 0x3000, cache.ClassShared))
	an2.Observe(ref(1, Load, 0x3000, cache.ClassShared))
	an2.Observe(ref(0, Load, 0x3000, cache.ClassShared))
	h2 := an2.ReuseHistogram(false)
	// core0: 1st, 2nd; core1: 1st => [2/3, 1/3].
	if h2[1] < 0.33 || h2[1] > 0.34 {
		t.Fatalf("foreign read reset the run: %v", h2)
	}
}

func TestSharerHistogram(t *testing.T) {
	an := NewAnalyzer(4)
	an.Observe(ref(0, Load, 0x1000, cache.ClassShared))
	an.Observe(ref(1, Load, 0x1000, cache.ClassShared))
	an.Observe(ref(2, Load, 0x1000, cache.ClassShared))
	an.Observe(ref(0, Load, 0x2000, cache.ClassPrivate))
	h := an.SharerHistogram(false)
	if h.Count(3) != 3 || h.Count(1) != 1 {
		t.Fatalf("sharer histogram wrong: 3->%d 1->%d", h.Count(3), h.Count(1))
	}
}

func TestReuseHistogramEmptyClasses(t *testing.T) {
	an := NewAnalyzer(2)
	an.Observe(ref(0, Load, 0x2000, cache.ClassPrivate))
	h := an.ReuseHistogram(true)
	for _, v := range h {
		if v != 0 {
			t.Fatal("no instruction blocks: histogram must be zero")
		}
	}
	// Single-sharer data is excluded from the shared-reuse histogram.
	h = an.ReuseHistogram(false)
	for _, v := range h {
		if v != 0 {
			t.Fatal("single-sharer blocks must not appear in shared reuse")
		}
	}
}
