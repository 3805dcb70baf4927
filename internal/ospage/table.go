// Package ospage models the operating-system half of R-NUCA (§4.3 of the
// paper): classification of memory accesses at page granularity, performed
// at TLB-miss time and communicated to the cores through the TLB.
//
// The OS extends each page-table entry with a class and, for private
// pages, the core ID (CID) and software thread of the owner. One pure
// transition function, step, holds every rule:
//
//   - first touch        -> a fetch classifies the page instruction, a
//     load or store classifies it private to the accessor;
//   - an access by the owning core leaves a private page as it is;
//   - a load or store by another core on a private page -> either the
//     owning thread migrated (page stays private, re-owned, old copies
//     invalidated) or the page is actively shared (blocks invalidated at
//     the previous owner, page re-classified shared);
//   - instruction fetch from a private page -> re-classified instruction;
//   - store to an instruction page -> re-classified shared (replicated
//     read-only copies would otherwise break coherence);
//   - shared is terminal.
//
// Because the OS knows thread scheduling, migration vs. sharing is decided
// exactly, not heuristically. Each re-classification counts one TLB
// shootdown, the poison round the simulator charges once per
// re-classification; no page is ever left poisoned between accesses.
//
// System applies the rules only on a miss in the core's one unified TLB
// (plus the trap of a store through an instruction translation). So a
// load and then a fetch by the same core keep the page private: the fetch
// hits the TLB entry the load filled. internal/ingest, which walks the
// table on every access, re-classifies that page instruction.
package ospage

import (
	"fmt"

	"rnuca/internal/cache"
	"rnuca/internal/trace"
)

// PageID identifies a page: physical address >> log2(page size).
type PageID uint64

// ReclassKind distinguishes the page transitions that carry a cost.
type ReclassKind uint8

// Reclassification kinds.
const (
	ReclassNone ReclassKind = iota
	// ReclassPrivateToShared: a second thread touched a private page.
	ReclassPrivateToShared
	// ReclassMigration: the owning thread moved to another core; the page
	// stays private but blocks at the old core are invalidated.
	ReclassMigration
	// ReclassInstrToShared: a store hit an instruction page; replicas must
	// be purged chip-wide and the page becomes shared data.
	ReclassInstrToShared
	// ReclassPrivateToInstr: an instruction fetch hit a page previously
	// classified private (e.g. JIT code or loader-touched pages).
	ReclassPrivateToInstr
)

// Entry is a page-table entry with the R-NUCA extensions. The zero
// Entry (class cache.ClassUnknown) is an untouched page. The owner
// fields name the owning core and thread of a private page and are -1
// for instruction and shared pages.
type Entry struct {
	Class    cache.Class
	OwnerCID int
	OwnerTID int
}

// Outcome reports what a page access did, so the cache designs can charge
// the appropriate latency and purge the right blocks.
type Outcome struct {
	// Class is the page's classification after this access; placement
	// uses it directly. The owner of a private page is in its Entry.
	Class cache.Class
	// Reclass is the transition performed by this access, if any.
	Reclass ReclassKind
	// PrevOwner is the core whose cached blocks must be invalidated on a
	// reclassification (valid when Reclass != ReclassNone; -1 when the
	// transition has no unique previous owner).
	PrevOwner int
}

// step is §4.3 in one place: the entry a page holds after an access of
// the given kind by core cid running thread tid, and what the access saw.
//
//rnuca:hotpath
func step(e Entry, kind trace.Kind, cid, tid int) (Entry, Outcome) {
	instr := Entry{Class: cache.ClassInstruction, OwnerCID: -1, OwnerTID: -1}
	shared := Entry{Class: cache.ClassShared, OwnerCID: -1, OwnerTID: -1}
	switch e.Class {
	case cache.ClassUnknown:
		// First touch: trap to the OS, which classifies the page.
		if kind == trace.IFetch {
			return instr, Outcome{Class: cache.ClassInstruction}
		}
		return Entry{Class: cache.ClassPrivate, OwnerCID: cid, OwnerTID: tid},
			Outcome{Class: cache.ClassPrivate}
	case cache.ClassPrivate:
		prev := e.OwnerCID
		switch {
		case kind == trace.IFetch:
			// Code on a data-classified page: purge the owner's copies
			// and re-classify instruction so it can replicate.
			return instr, Outcome{Class: cache.ClassInstruction, Reclass: ReclassPrivateToInstr, PrevOwner: prev}
		case prev == cid:
			return e, Outcome{Class: cache.ClassPrivate}
		case e.OwnerTID == tid:
			// The owning thread moved cores: invalidate at the previous
			// core, the page stays private with the new owner.
			e.OwnerCID = cid
			return e, Outcome{Class: cache.ClassPrivate, Reclass: ReclassMigration, PrevOwner: prev}
		default:
			// A second thread: invalidate at the previous owner,
			// re-classify shared.
			return shared, Outcome{Class: cache.ClassShared, Reclass: ReclassPrivateToShared, PrevOwner: prev}
		}
	case cache.ClassInstruction:
		if kind != trace.Store {
			// A data read of an instruction page follows the page class
			// (the paper's <0.75% misclassification; reads of read-only
			// replicas are safe).
			return e, Outcome{Class: cache.ClassInstruction}
		}
		// A store to a replicated read-only page: purge every replica,
		// re-classify shared.
		return shared, Outcome{Class: cache.ClassShared, Reclass: ReclassInstrToShared, PrevOwner: -1}
	default:
		// Shared is the safe superset: fetches from it are served at the
		// interleaved home (counted as misclassified), never re-classified.
		return e, Outcome{Class: cache.ClassShared}
	}
}

// Transitions counts classification activity, one field per transition.
// TLBShootdowns counts one chip-wide shootdown per re-classification.
type Transitions struct {
	FirstTouches    uint64
	PrivateToShared uint64
	Migrations      uint64
	InstrToShared   uint64
	PrivateToInstr  uint64
	TLBShootdowns   uint64
}

// count records one applied access: whether it was the page's first
// touch, and the re-classification it performed.
func (c *Transitions) count(first bool, k ReclassKind) {
	if first {
		c.FirstTouches++
	}
	switch k {
	case ReclassNone:
		return
	case ReclassPrivateToShared:
		c.PrivateToShared++
	case ReclassMigration:
		c.Migrations++
	case ReclassInstrToShared:
		c.InstrToShared++
	case ReclassPrivateToInstr:
		c.PrivateToInstr++
	}
	c.TLBShootdowns++
}

// Table is the OS page table for one simulated machine.
type Table struct {
	pageBits uint
	entries  map[PageID]Entry
	trans    Transitions
}

// MaxPageBytes caps the page size at 64 times Table 1's 8 KB page.
const MaxPageBytes = 64 * (8 << 10)

// CheckPageBytes reports a page size that is not a positive power of
// two or exceeds MaxPageBytes, the one page-size rule of the page table
// and the memory controllers' interleaving.
func CheckPageBytes(pageBytes int) error {
	if pageBytes <= 0 || pageBytes&(pageBytes-1) != 0 {
		return fmt.Errorf("ospage: page size %d not a positive power of two", pageBytes)
	}
	if pageBytes > MaxPageBytes {
		return fmt.Errorf("ospage: page size %d above %d", pageBytes, MaxPageBytes)
	}
	return nil
}

// NewTable builds a page table for the given page size (8 KB in Table 1).
func NewTable(pageBytes int) *Table {
	if err := CheckPageBytes(pageBytes); err != nil {
		panic(err)
	}
	bits := uint(0)
	for b := pageBytes; b > 1; b >>= 1 {
		bits++
	}
	return &Table{pageBits: bits, entries: map[PageID]Entry{}}
}

// PageOf returns the page containing a physical address.
func (t *Table) PageOf(addr uint64) PageID { return PageID(addr >> t.pageBits) }

// Lookup returns the entry for a page and whether the page was touched.
func (t *Table) Lookup(p PageID) (Entry, bool) {
	e, ok := t.entries[p]
	return e, ok
}

// Transitions returns the cumulative classification counters.
func (t *Table) Transitions() Transitions { return t.trans }

// Access classifies one access of the given kind to page p by core cid
// running software thread tid, the OS's page walk on a TLB miss.
func (t *Table) Access(p PageID, kind trace.Kind, cid, tid int) Outcome {
	old := t.entries[p]
	e, out := step(old, kind, cid, tid)
	if e != old {
		t.entries[p] = e
	}
	t.trans.count(old.Class == cache.ClassUnknown, out.Reclass)
	return out
}

// Delete forgets a page; its next access is a first touch again.
func (t *Table) Delete(p PageID) { delete(t.entries, p) }

// ForcePrivate pre-classifies a page as private to a core, used to warm
// tables from checkpoints like the paper's methodology (§5.1).
func (t *Table) ForcePrivate(p PageID, cid, tid int) {
	t.entries[p] = Entry{Class: cache.ClassPrivate, OwnerCID: cid, OwnerTID: tid}
}

// ForceShared pre-classifies a page as shared data.
func (t *Table) ForceShared(p PageID) {
	t.entries[p] = Entry{Class: cache.ClassShared, OwnerCID: -1, OwnerTID: -1}
}

// ForceInstruction pre-classifies a page as instruction.
func (t *Table) ForceInstruction(p PageID) {
	t.entries[p] = Entry{Class: cache.ClassInstruction, OwnerCID: -1, OwnerTID: -1}
}

// Pages returns the number of classified pages.
func (t *Table) Pages() int { return len(t.entries) }

// CountByClass returns how many pages currently hold each classification.
func (t *Table) CountByClass() map[cache.Class]int {
	out := map[cache.Class]int{}
	for _, e := range t.entries {
		out[e.Class]++
	}
	return out
}
