package ingest

import (
	"fmt"

	"rnuca/internal/cache"
	"rnuca/internal/ospage"
	"rnuca/internal/trace"
)

// ClassifyMode selects how the converter assigns cache.Class to refs
// whose source format carries no ground truth.
type ClassifyMode int

// Classification modes.
const (
	// ClassifyStream assigns each ref the class its page holds at the
	// moment of the access, walking the OS page table (§4.3 first-touch
	// semantics) on every access: single pass, online.
	ClassifyStream ClassifyMode = iota
	// ClassifyTwoPass decodes the inputs twice: the first pass settles
	// every page's final classification, the second labels each ref with
	// it. This is the retrospective ground truth the paper's
	// characterization figures use (a page shared at any point is shared
	// throughout), at the cost of reading every input twice.
	ClassifyTwoPass
	// ClassifyOff leaves every ref's class unknown; the replaying
	// design's own OS layer still rediscovers classes at run time.
	ClassifyOff
)

// String implements fmt.Stringer.
func (m ClassifyMode) String() string {
	switch m {
	case ClassifyStream:
		return "stream"
	case ClassifyTwoPass:
		return "twopass"
	default:
		return "off"
	}
}

// ParseClassifyMode parses a ClassifyMode name.
func ParseClassifyMode(s string) (ClassifyMode, error) {
	switch s {
	case "stream":
		return ClassifyStream, nil
	case "twopass", "two-pass":
		return ClassifyTwoPass, nil
	case "off", "none", "keep":
		return ClassifyOff, nil
	}
	return 0, fmt.Errorf("ingest: unknown classify mode %q (stream, twopass, off)", s)
}

// ClassifyStats counts the classifier's page activity: the ospage.Table
// counters, so converted corpora can be sanity-checked against the
// paper's §5.2 numbers, plus the bounded table's size and evictions.
type ClassifyStats struct {
	// Pages is the number of pages currently tracked; Evictions counts
	// pages dropped by the bounded-memory table (0 when unbounded).
	Pages, Evictions uint64
	ospage.Transitions
}

// PageTable classifies a reference stream that carries no ground truth
// with R-NUCA's OS page table (§4.3): it calls ospage.Table's
// transitions instead of mirroring them. Unlike the simulated OS, which
// walks the table only on a TLB miss, Observe walks it on every access,
// so it can re-classify a page earlier than the simulator does (for
// instance, a load and then a fetch by one core make the page
// instruction here, while the simulator's fetch hits the TLB entry the
// load filled and the page stays private).
//
// The table runs at ingest time over arbitrarily large foreign traces,
// so its memory can be bounded: with maxPages > 0 the oldest page is
// evicted (FIFO, deterministic) once the bound is reached, and a later
// touch of an evicted page re-runs first-touch classification.
type PageTable struct {
	*ospage.Table
	maxPages  int
	fifo      []ospage.PageID // insertion order, kept only when bounded
	head      int
	evictions uint64
}

// NewPageTable builds a classifier page table. pageBytes must pass
// ospage.CheckPageBytes (the paper's OS uses 8KB pages); maxPages bounds
// the table's memory, 0 meaning unbounded.
func NewPageTable(pageBytes, maxPages int) *PageTable {
	return &PageTable{Table: ospage.NewTable(pageBytes), maxPages: maxPages}
}

// Stats returns the counters, with Pages refreshed to the current size.
func (t *PageTable) Stats() ClassifyStats {
	return ClassifyStats{Pages: uint64(t.Pages()), Evictions: t.evictions, Transitions: t.Transitions()}
}

// track records a page about to be first touched in a bounded table,
// evicting the oldest tracked pages first when the table is full.
func (t *PageTable) track(p ospage.PageID) {
	if t.maxPages <= 0 {
		return
	}
	for t.Pages() >= t.maxPages && t.head < len(t.fifo) {
		t.Delete(t.fifo[t.head])
		t.head++
		t.evictions++
	}
	if t.head > len(t.fifo)/2 {
		t.fifo = append([]ospage.PageID(nil), t.fifo[t.head:]...)
		t.head = 0
	}
	t.fifo = append(t.fifo, p)
}

// Observe classifies one reference online, updating the table and
// returning the class the access sees — the class placement would use
// had the OS classified this stream at run time.
func (t *PageTable) Observe(r trace.Ref) cache.Class {
	p := t.PageOf(r.Addr)
	if _, ok := t.Lookup(p); !ok {
		t.track(p)
	}
	return t.Access(p, r.Kind, r.Core, r.Thread).Class
}

// Final returns the settled class for one reference after a full
// Observe pass — the page's terminal classification, or a first-touch
// default (instruction for fetches, private for data) when the page was
// never tracked or was evicted by the bounded table.
func (t *PageTable) Final(r trace.Ref) cache.Class {
	if e, ok := t.Lookup(t.PageOf(r.Addr)); ok {
		return e.Class
	}
	if r.Kind == trace.IFetch {
		return cache.ClassInstruction
	}
	return cache.ClassPrivate
}
