package sim

import (
	"testing"

	"rnuca/internal/cache"
	"rnuca/internal/trace"
)

func TestAuditPassesOnConsistentState(t *testing.T) {
	ch := NewChassis(Config16())
	for i := 0; i < 2000; i++ {
		kind := trace.Load
		if i%4 == 0 {
			kind = trace.Store
		}
		r := trace.Ref{Core: i % 16, Thread: i % 16, Kind: kind,
			Addr: uint64(0x10000 + (i%512)*64), Class: cache.ClassShared, Busy: 1}
		ch.L1Service(r.Core, r)
	}
	if err := ch.Audit(); err != nil {
		t.Fatal(err)
	}
}

func TestAuditCatchesDirtyWithoutOwnership(t *testing.T) {
	ch := NewChassis(Config16())
	// Hand-corrupt: a dirty L1 line with no directory ownership.
	ch.L1D[3].Insert(0x40, cache.Modified, cache.ClassShared)
	if err := ch.Audit(); err == nil {
		t.Fatal("audit missed dirty line without directory ownership")
	}
}

func TestAuditCatchesStaleDirectoryHolder(t *testing.T) {
	ch := NewChassis(Config16())
	r := trace.Ref{Core: 2, Thread: 2, Kind: trace.Load, Addr: 0x80, Class: cache.ClassShared, Busy: 1}
	ch.L1Service(2, r)
	// A second core's read registers it as sharer...
	ch.L1Dir.Read(0x80, 5, nil)
	// ...but core 5's L1 never received the block. The audit must notice
	// the directory claims a copy core 5 does not hold — provided the
	// block is enumerable (core 2 still holds it).
	if err := ch.Audit(); err == nil {
		t.Fatal("audit missed stale directory holder")
	}
}

func TestL1PurgeRangeKeepsDirectoryConsistent(t *testing.T) {
	ch := NewChassis(Config16())
	base := uint64(0x4000)
	for b := uint64(0); b < 8; b++ {
		r := trace.Ref{Core: 7, Thread: 7, Kind: trace.Store, Addr: base + b*64, Class: cache.ClassPrivate, Busy: 1}
		ch.L1Service(7, r)
	}
	// Two blocks are also fetched as code, so they sit in both L1s: the
	// directory must keep core 7 until the second copy goes.
	for b := uint64(0); b < 2; b++ {
		r := trace.Ref{Core: 7, Thread: 7, Kind: trace.IFetch, Addr: base + b*64, Class: cache.ClassInstruction, Busy: 1}
		ch.L1Service(7, r)
	}
	// Another core's copy of a block on the page survives: only core 7's
	// L1s are purged.
	ch.L1Service(3, trace.Ref{Core: 3, Thread: 3, Kind: trace.Load, Addr: base + 0x1000, Class: cache.ClassShared, Busy: 1})
	n := ch.L1PurgeRange(7, cache.Addr(base), cache.Addr(base+0x2000))
	if n != 10 {
		t.Fatalf("purged %d lines, want 10", n)
	}
	// The directory drops core 7 when its last copy goes: the six dirty
	// L1D-only blocks write back, the two whose last copy is the clean
	// L1I line do not.
	if wb := ch.L1Dir.Stats().Writebacks; wb != 6 {
		t.Fatalf("%d writebacks, want 6", wb)
	}
	for b := uint64(0); b < 8; b++ {
		if _, ok := ch.L1Dir.Lookup(cache.Addr(base + b*64)); ok {
			t.Fatal("directory entry survived L1PurgeRange")
		}
	}
	if e, ok := ch.L1Dir.Lookup(cache.Addr(base + 0x1000)); !ok || !e.Sharers.Has(3) {
		t.Fatal("another core's copy was purged")
	}
	if err := ch.Audit(); err != nil {
		t.Fatal(err)
	}
}
