// Package ospage models the operating-system half of R-NUCA (§4.3 of the
// paper): classification of memory accesses at page granularity, performed
// at TLB-miss time and communicated to the cores through the TLB.
//
// The OS extends each page-table entry with a Private bit, the core ID
// (CID) of the last accessor, and a Poisoned bit used to serialize
// re-classification:
//
//   - first touch        -> page classified private, accessor recorded;
//   - instruction fetch  -> page classified instruction;
//   - TLB miss by a different core on a private page -> either the owning
//     thread migrated (page stays private, re-owned, old copies
//     invalidated) or the page is actively shared (page poisoned, TLB
//     entries shot down, blocks invalidated at the previous accessor,
//     page re-classified shared);
//   - store to an instruction-classified page -> re-classified shared
//     (replicated read-only copies would otherwise break coherence).
//
// Because the OS knows thread scheduling, migration vs. sharing is decided
// exactly, not heuristically.
package ospage

import "fmt"

// PageID identifies a page: physical address >> log2(page size).
type PageID uint64

// Class is the OS-visible page classification.
type Class uint8

// Page classifications.
const (
	Unclassified Class = iota
	Private
	SharedData
	Instruction
)

// String implements fmt.Stringer.
func (c Class) String() string {
	switch c {
	case Private:
		return "private"
	case SharedData:
		return "shared"
	case Instruction:
		return "instruction"
	default:
		return "unclassified"
	}
}

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

	numReclassKinds
)

// String implements fmt.Stringer.
func (k ReclassKind) String() string {
	switch k {
	case ReclassPrivateToShared:
		return "private->shared"
	case ReclassMigration:
		return "migration"
	case ReclassInstrToShared:
		return "instr->shared"
	case ReclassPrivateToInstr:
		return "private->instr"
	default:
		return "none"
	}
}

// Entry is a page-table entry with the R-NUCA extensions.
type Entry struct {
	Class    Class
	OwnerCID int // last accessor, meaningful for private pages
	OwnerTID int // owning software thread, used to detect migration
	Poisoned bool
}

// Stats counts classification activity.
type Stats struct {
	FirstTouches uint64
	// Reclassifications counts transitions, indexed by ReclassKind.
	Reclassifications [numReclassKinds]uint64
	PoisonWaits       uint64
	TLBShootdowns     uint64
}

// Table is the OS page table for one simulated machine.
type Table struct {
	pageBits uint
	entries  map[PageID]*Entry
	stats    Stats
}

// CheckPageBytes reports a page size that is not a positive power of
// two, the one page-size rule of the page table and the memory
// controllers' interleaving.
func CheckPageBytes(pageBytes int) error {
	if pageBytes <= 0 || pageBytes&(pageBytes-1) != 0 {
		return fmt.Errorf("ospage: page size %d not a positive power of two", pageBytes)
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
	return &Table{pageBits: bits, entries: map[PageID]*Entry{}}
}

// PageBits returns log2 of the page size.
func (t *Table) PageBits() uint { return t.pageBits }

// PageOf returns the page containing a physical address.
func (t *Table) PageOf(addr uint64) PageID { return PageID(addr >> t.pageBits) }

// Lookup returns the entry for a page, or nil if untouched.
func (t *Table) Lookup(p PageID) *Entry { return t.entries[p] }

// Stats returns a copy of the counters.
func (t *Table) Stats() Stats { return t.stats }

// Transitions is a flat snapshot of the classification counters with
// one named field per transition, the form the flight recorder
// delta-encodes between consecutive snapshots.
type Transitions struct {
	FirstTouches    uint64
	PrivateToShared uint64
	Migrations      uint64
	InstrToShared   uint64
	PrivateToInstr  uint64
	PoisonWaits     uint64
	TLBShootdowns   uint64
}

// Transitions returns the cumulative classification counters in flat form.
func (t *Table) Transitions() Transitions {
	return Transitions{
		FirstTouches:    t.stats.FirstTouches,
		PrivateToShared: t.stats.Reclassifications[ReclassPrivateToShared],
		Migrations:      t.stats.Reclassifications[ReclassMigration],
		InstrToShared:   t.stats.Reclassifications[ReclassInstrToShared],
		PrivateToInstr:  t.stats.Reclassifications[ReclassPrivateToInstr],
		PoisonWaits:     t.stats.PoisonWaits,
		TLBShootdowns:   t.stats.TLBShootdowns,
	}
}

// Outcome reports what a page access did, so the cache designs can charge
// the appropriate latency and purge the right blocks.
type Outcome struct {
	// Class is the page's classification after this access; placement
	// uses it directly.
	Class Class
	// Owner is the page's current owner CID (private pages).
	Owner int
	// Reclass is the transition performed by this access, if any.
	Reclass ReclassKind
	// PrevOwner is the core whose cached blocks must be invalidated on a
	// reclassification (valid when Reclass != ReclassNone and the
	// transition has a unique previous owner).
	PrevOwner int
	// PoisonWait is true when this access found the page poisoned and had
	// to wait for an in-flight re-classification (charged as a delay).
	PoisonWait bool
}

// AccessData classifies a data access (load or store) by core cid running
// software thread tid. write marks stores, which force instruction pages to
// be re-classified.
func (t *Table) AccessData(p PageID, cid, tid int, write bool) Outcome {
	e := t.entries[p]
	if e == nil {
		// First touch: trap to OS, classify private, record accessor.
		t.stats.FirstTouches++
		e = &Entry{Class: Private, OwnerCID: cid, OwnerTID: tid}
		t.entries[p] = e
		return Outcome{Class: Private, Owner: cid}
	}
	switch e.Class {
	case Private:
		if e.OwnerCID == cid {
			return Outcome{Class: Private, Owner: cid}
		}
		// Different core. The OS knows scheduling: same thread on a new
		// core is a migration; a different thread means real sharing.
		out := Outcome{PoisonWait: e.Poisoned, PrevOwner: e.OwnerCID}
		if e.Poisoned {
			t.stats.PoisonWaits++
		}
		if e.OwnerTID == tid {
			// Thread migration: invalidate at previous accessor, page
			// stays private with the new owner (§4.3, last paragraph).
			t.poisonCycle(e)
			e.OwnerCID = cid
			t.stats.Reclassifications[ReclassMigration]++
			out.Class, out.Owner, out.Reclass = Private, cid, ReclassMigration
			return out
		}
		// Active sharing: poison, shoot down, invalidate at previous
		// accessor, re-classify shared.
		t.poisonCycle(e)
		e.Class = SharedData
		t.stats.Reclassifications[ReclassPrivateToShared]++
		out.Class, out.Owner, out.Reclass = SharedData, -1, ReclassPrivateToShared
		return out
	case SharedData:
		return Outcome{Class: SharedData, Owner: -1, PoisonWait: e.Poisoned}
	case Instruction:
		if !write {
			// Read of an instruction page: placement follows the page
			// class (this is the <0.75% misclassification the paper
			// measures; reads of read-only replicas are safe).
			return Outcome{Class: Instruction, Owner: -1}
		}
		// A store to a replicated read-only page cannot be allowed:
		// poison, purge every replica, re-classify shared.
		t.poisonCycle(e)
		e.Class = SharedData
		t.stats.Reclassifications[ReclassInstrToShared]++
		return Outcome{Class: SharedData, Owner: -1, Reclass: ReclassInstrToShared, PrevOwner: -1}
	default:
		panic("ospage: unclassified entry present in table")
	}
}

// AccessInstr classifies an instruction fetch by core cid.
func (t *Table) AccessInstr(p PageID, cid int) Outcome {
	e := t.entries[p]
	if e == nil {
		t.stats.FirstTouches++
		e = &Entry{Class: Instruction, OwnerCID: -1, OwnerTID: -1}
		t.entries[p] = e
		return Outcome{Class: Instruction, Owner: -1}
	}
	switch e.Class {
	case Instruction:
		return Outcome{Class: Instruction, Owner: -1, PoisonWait: e.Poisoned}
	case Private:
		// Code on a previously data-classified page: purge the owner's
		// copies and re-classify as instruction so it can replicate.
		prev := e.OwnerCID
		t.poisonCycle(e)
		e.Class = Instruction
		e.OwnerCID, e.OwnerTID = -1, -1
		t.stats.Reclassifications[ReclassPrivateToInstr]++
		return Outcome{Class: Instruction, Owner: -1, Reclass: ReclassPrivateToInstr, PrevOwner: prev}
	case SharedData:
		// Fetching code from a shared-data page: serve it at its
		// address-interleaved location (misclassified access, counted by
		// the accuracy experiment; no transition, shared is the safe
		// superset).
		return Outcome{Class: SharedData, Owner: -1, PoisonWait: e.Poisoned}
	default:
		panic("ospage: unclassified entry present in table")
	}
}

// poisonCycle models the poison/shootdown protocol: set Poisoned, shoot
// down TLB entries, then clear. In the timing model the sequence is
// instantaneous but counted; the simulator charges its latency from the
// counters.
func (t *Table) poisonCycle(e *Entry) {
	e.Poisoned = true
	t.stats.TLBShootdowns++
	e.Poisoned = false
}

// ForcePrivate pre-classifies a page as private to a core, used to warm
// tables from checkpoints like the paper's methodology (§5.1).
func (t *Table) ForcePrivate(p PageID, cid, tid int) {
	t.entries[p] = &Entry{Class: Private, OwnerCID: cid, OwnerTID: tid}
}

// ForceShared pre-classifies a page as shared data.
func (t *Table) ForceShared(p PageID) {
	t.entries[p] = &Entry{Class: SharedData, OwnerCID: -1, OwnerTID: -1}
}

// ForceInstruction pre-classifies a page as instruction.
func (t *Table) ForceInstruction(p PageID) {
	t.entries[p] = &Entry{Class: Instruction, OwnerCID: -1, OwnerTID: -1}
}

// Pages returns the number of classified pages.
func (t *Table) Pages() int { return len(t.entries) }

// CountByClass returns how many pages currently hold each classification.
func (t *Table) CountByClass() map[Class]int {
	out := map[Class]int{}
	for _, e := range t.entries {
		out[e.Class]++
	}
	return out
}
