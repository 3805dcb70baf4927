package ospage

import (
	"fmt"

	"rnuca/internal/cache"
	"rnuca/internal/trace"
)

// TLB is a per-core translation lookaside buffer caching page
// classifications. R-NUCA communicates placement information through the
// standard TLB mechanism (§4.3): a hit means the core already knows the
// page's class; a miss walks the page table (and may trap to the
// OS for classification), which the simulator charges.
//
// The TLB is fully associative with true LRU, the common organization for
// the UltraSPARC-class cores in Table 1. It is array-backed: a fixed pool
// of lines threaded on an intrusive recency list (head most recently used,
// tail the victim) and found through a small open-addressed index with
// linear probing and backward-shift deletion. A lookup, a fill and an
// eviction each cost a few probes and never allocate. The list order is
// the order of last touch, so the victim is exactly the line with the
// oldest touch.
type TLB struct {
	lines []tlbLine
	// head and tail bound the recency list over live lines; free heads
	// the list of unused lines, threaded through next.
	head, tail, free int32
	live             int
	// index maps a page's hash position to its line: slot+1, 0 empty.
	// It has at least twice as many positions as lines, so a probe
	// always reaches an empty position.
	index []int32
	shift uint // 64 - log2(len(index))

	hits    uint64
	misses  uint64
	evicted uint64
}

type tlbLine struct {
	page       PageID
	class      cache.Class
	prev, next int32
}

// noLine terminates the recency and free lists.
const noLine = -1

// NewTLB returns a TLB with the given entry count.
func NewTLB(entries int) *TLB { return newTLBs(entries, 1)[0] }

// MaxTLBEntries caps a core's TLB at 64 times Table 1's 64 entries.
const MaxTLBEntries = 64 * 64

// CheckTLBEntries reports a TLB entry count outside 1..MaxTLBEntries.
func CheckTLBEntries(entries int) error {
	if entries <= 0 || entries > MaxTLBEntries {
		return fmt.Errorf("ospage: %d TLB entries outside 1..%d", entries, MaxTLBEntries)
	}
	return nil
}

// newTLBs builds n empty TLBs with the given entry count. Their structs,
// lines and indexes share one allocation each: a chip's TLBs are built
// in every R-NUCA job's setup.
func newTLBs(entries, n int) []*TLB {
	if err := CheckTLBEntries(entries); err != nil {
		panic(err)
	}
	size, bits := 2, uint(1)
	for size < 2*entries {
		size, bits = size<<1, bits+1
	}
	tlbs := make([]TLB, n)
	lines := make([]tlbLine, n*entries)
	index := make([]int32, n*size)
	out := make([]*TLB, n)
	for k := range tlbs {
		t := &tlbs[k]
		t.lines = lines[k*entries : (k+1)*entries : (k+1)*entries]
		t.index = index[k*size : (k+1)*size : (k+1)*size]
		t.head, t.tail, t.shift = noLine, noLine, 64-bits
		// The free list starts at line 0 and runs through every line.
		for i := range t.lines {
			t.lines[i].next = int32(i + 1)
		}
		t.lines[entries-1].next = noLine
		out[k] = t
	}
	return out
}

// find returns the index position holding page p and its line, or the
// empty position where p would be placed and noLine.
//
//rnuca:hotpath
func (t *TLB) find(p PageID) (pos uint64, line int32) {
	mask := uint64(len(t.index) - 1)
	for pos = t.home(p); ; pos = (pos + 1) & mask {
		line = t.index[pos] - 1
		if line < 0 || t.lines[line].page == p {
			return pos, line
		}
	}
}

// home is a page's first probe position (Fibonacci hashing).
func (t *TLB) home(p PageID) uint64 { return uint64(p) * 0x9E3779B97F4A7C15 >> t.shift }

// Lookup returns the cached classification for a page.
//
//rnuca:hotpath
func (t *TLB) Lookup(p PageID) (cache.Class, bool) {
	_, i := t.find(p)
	if i < 0 {
		t.misses++
		return cache.ClassUnknown, false
	}
	t.hits++
	t.touch(i)
	return t.lines[i].class, true
}

// Fill installs a translation after a page walk, evicting LRU if full.
//
//rnuca:hotpath
func (t *TLB) Fill(p PageID, class cache.Class) {
	pos, i := t.find(p)
	if i >= 0 {
		t.lines[i].class = class
		t.touch(i)
		return
	}
	if t.free == noLine {
		// Evict the least recently used line. Removing it can shift
		// entries along p's probe run, so p's position is looked up again.
		t.Shootdown(t.lines[t.tail].page)
		t.evicted++
		pos, _ = t.find(p)
	}
	i = t.free
	t.free = t.lines[i].next
	t.lines[i] = tlbLine{page: p, class: class}
	t.pushFront(i)
	t.index[pos] = i + 1
	t.live++
}

// Shootdown removes a translation (the re-classification protocol).
// It reports whether the entry was present.
//
//rnuca:hotpath
func (t *TLB) Shootdown(p PageID) bool {
	pos, i := t.find(p)
	if i < 0 {
		return false
	}
	t.remove(pos, i)
	return true
}

// remove drops line i, found at index position pos, onto the free list.
func (t *TLB) remove(pos uint64, i int32) {
	// Backward-shift deletion: pull each later entry of the probe run
	// into the hole unless its home lies cyclically after the hole.
	mask := uint64(len(t.index) - 1)
	for j := (pos + 1) & mask; t.index[j] != 0; j = (j + 1) & mask {
		if (j-t.home(t.lines[t.index[j]-1].page))&mask >= (j-pos)&mask {
			t.index[pos] = t.index[j]
			pos = j
		}
	}
	t.index[pos] = 0
	t.unlink(i)
	t.lines[i].next = t.free
	t.free = i
	t.live--
}

// touch makes line i the most recently used.
func (t *TLB) touch(i int32) {
	if t.head != i {
		t.unlink(i)
		t.pushFront(i)
	}
}

func (t *TLB) unlink(i int32) {
	l := &t.lines[i]
	if l.prev != noLine {
		t.lines[l.prev].next = l.next
	} else {
		t.head = l.next
	}
	if l.next != noLine {
		t.lines[l.next].prev = l.prev
	} else {
		t.tail = l.prev
	}
}

func (t *TLB) pushFront(i int32) {
	l := &t.lines[i]
	l.prev, l.next = noLine, t.head
	if t.head != noLine {
		t.lines[t.head].prev = i
	} else {
		t.tail = i
	}
	t.head = i
}

// Len returns the number of live entries.
func (t *TLB) Len() int { return t.live }

// Hits returns the hit count.
func (t *TLB) Hits() uint64 { return t.hits }

// Misses returns the miss count.
func (t *TLB) Misses() uint64 { return t.misses }

// Evictions returns the capacity eviction count.
func (t *TLB) Evictions() uint64 { return t.evicted }

// System bundles the page table with per-core TLBs and drives the
// classification protocol including shootdowns, exactly as a core would
// experience it: TLB probe, then on a miss a table walk plus possible OS
// trap.
type System struct {
	Table *Table
	TLBs  []*TLB
}

// NewSystem builds the OS layer for ncores cores.
func NewSystem(pageBytes, tlbEntries, ncores int) *System {
	return &System{Table: NewTable(pageBytes), TLBs: newTLBs(tlbEntries, ncores)}
}

// Result describes one translated access.
type Result struct {
	Outcome
	// TLBMiss is true when the access required a page walk.
	TLBMiss bool
}

// Translate performs the full access path for core cid running thread tid:
// TLB probe, page walk on miss, classification transitions, and TLB
// shootdowns at every other core on a re-classification.
//
//rnuca:hotpath
func (s *System) Translate(addr uint64, cid, tid int, write, ifetch bool) Result {
	kind := trace.Load
	switch {
	case ifetch:
		kind = trace.IFetch
	case write:
		kind = trace.Store
	}
	p := s.Table.PageOf(addr)
	tlb := s.TLBs[cid]
	if class, ok := tlb.Lookup(p); ok {
		// Hit: the cached class steers placement with no OS involvement.
		// Transitions only happen on TLB misses (the paper classifies "at
		// the time of a TLB miss"), with one exception mirroring the
		// hardware: a store through a TLB entry marked instruction traps
		// so the OS can de-replicate the page.
		if kind != trace.Store || class != cache.ClassInstruction {
			return Result{Outcome: Outcome{Class: class}}
		}
		tlb.Shootdown(p)
	}
	out := s.Table.Access(p, kind, cid, tid)
	if out.Reclass != ReclassNone {
		// Shoot down stale translations chip-wide; the entry at the
		// previous accessor is the one that must go, but the protocol
		// conservatively visits all TLBs holding the page.
		for i, other := range s.TLBs {
			if i != cid {
				other.Shootdown(p)
			}
		}
	}
	tlb.Fill(p, out.Class)
	return Result{Outcome: out, TLBMiss: true}
}
