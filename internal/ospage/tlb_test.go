package ospage

import (
	"encoding/binary"
	"math/rand"
	"testing"

	"rnuca/internal/cache"
)

// refTLB is the straightforward fully associative true-LRU TLB: a map
// plus a scan for the entry with the oldest touch. The array-backed TLB
// must agree with it on every call, which is what keeps simulated results
// unchanged.
type refTLB struct {
	entries               int
	lines                 map[PageID]*refLine
	tick                  uint64
	hits, misses, evicted uint64
}

type refLine struct {
	class cache.Class
	lru   uint64
}

func newRefTLB(entries int) *refTLB {
	return &refTLB{entries: entries, lines: map[PageID]*refLine{}}
}

func (t *refTLB) lookup(p PageID) (cache.Class, bool) {
	l, ok := t.lines[p]
	if !ok {
		t.misses++
		return cache.ClassUnknown, false
	}
	t.hits++
	t.tick++
	l.lru = t.tick
	return l.class, true
}

func (t *refTLB) fill(p PageID, class cache.Class) {
	t.tick++
	if l, ok := t.lines[p]; ok {
		l.class, l.lru = class, t.tick
		return
	}
	if len(t.lines) >= t.entries {
		var victim PageID
		oldest := ^uint64(0)
		for id, l := range t.lines {
			if l.lru < oldest {
				victim, oldest = id, l.lru
			}
		}
		delete(t.lines, victim)
		t.evicted++
	}
	t.lines[p] = &refLine{class: class, lru: t.tick}
}

func (t *refTLB) shootdown(p PageID) bool {
	_, ok := t.lines[p]
	delete(t.lines, p)
	return ok
}

// checkStructure verifies the TLB's internal invariants: the index holds
// exactly the live lines, each reachable from its home position without
// crossing an empty slot; the recency list is a consistent doubly linked
// list over the live lines; the free list holds the rest.
func checkStructure(t *testing.T, tlb *TLB) {
	t.Helper()
	indexed := 0
	for pos, v := range tlb.index {
		if v == 0 {
			continue
		}
		indexed++
		p := tlb.lines[v-1].page
		if got, line := tlb.find(p); line != v-1 || got != uint64(pos) {
			t.Fatalf("page %d at index position %d is not reachable (find -> %d, line %d)", p, pos, got, line)
		}
	}
	if indexed != tlb.live {
		t.Fatalf("index holds %d entries, %d live", indexed, tlb.live)
	}
	n, prev := 0, int32(noLine)
	for i := tlb.head; i != noLine; i = tlb.lines[i].next {
		if tlb.lines[i].prev != prev {
			t.Fatalf("line %d: prev %d, want %d", i, tlb.lines[i].prev, prev)
		}
		if _, line := tlb.find(tlb.lines[i].page); line != i {
			t.Fatalf("listed line %d (page %d) is not indexed", i, tlb.lines[i].page)
		}
		prev = i
		n++
	}
	if prev != tlb.tail || n != tlb.live {
		t.Fatalf("recency list: %d lines ending at %d, want %d ending at %d", n, prev, tlb.live, tlb.tail)
	}
	free := 0
	for i := tlb.free; i != noLine; i = tlb.lines[i].next {
		free++
	}
	if free+tlb.live != len(tlb.lines) {
		t.Fatalf("%d free + %d live lines, capacity %d", free, tlb.live, len(tlb.lines))
	}
}

// runAgainstReference drives both TLBs with one operation per 8-byte
// word of ops and fails on the first disagreement.
func runAgainstReference(t *testing.T, entries int, pageSpace uint64, ops []byte) {
	t.Helper()
	tlb, ref := NewTLB(entries), newRefTLB(entries)
	for len(ops) >= 8 {
		w := binary.LittleEndian.Uint64(ops)
		ops = ops[8:]
		p := PageID((w >> 8) % pageSpace)
		switch w % 4 {
		case 0, 1:
			c1, ok1 := tlb.Lookup(p)
			c2, ok2 := ref.lookup(p)
			if c1 != c2 || ok1 != ok2 {
				t.Fatalf("Lookup(%d) = %v %v, reference %v %v", p, c1, ok1, c2, ok2)
			}
		case 2:
			class := cache.Class(w >> 4 % 4)
			tlb.Fill(p, class)
			ref.fill(p, class)
		case 3:
			if got, want := tlb.Shootdown(p), ref.shootdown(p); got != want {
				t.Fatalf("Shootdown(%d) = %v, reference %v", p, got, want)
			}
		}
		if tlb.Len() != len(ref.lines) || tlb.Hits() != ref.hits || tlb.Misses() != ref.misses || tlb.Evictions() != ref.evicted {
			t.Fatalf("len/hits/misses/evictions %d/%d/%d/%d, reference %d/%d/%d/%d",
				tlb.Len(), tlb.Hits(), tlb.Misses(), tlb.Evictions(),
				len(ref.lines), ref.hits, ref.misses, ref.evicted)
		}
		checkStructure(t, tlb)
	}
	// Every resident translation agrees, and nothing else is resident.
	for p, l := range ref.lines {
		if c, ok := tlb.Lookup(p); !ok || c != l.class {
			t.Fatalf("resident page %d: %v %v, reference %v", p, c, ok, l.class)
		}
	}
}

// The array-backed TLB makes the same hit/miss decision, returns the same
// translation and evicts the same victim as the map-and-scan reference on
// random operation sequences. Small page spaces force constant eviction
// and long probe runs through the index; a huge one exercises the hash.
func TestTLBMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, tc := range []struct {
		entries   int
		pageSpace uint64
	}{
		{1, 4}, {2, 5}, {4, 16}, {8, 12}, {16, 64}, {64, 96}, {64, 1 << 40},
	} {
		ops := make([]byte, 8*20000)
		rng.Read(ops)
		runAgainstReference(t, tc.entries, tc.pageSpace, ops)
	}
}

func FuzzTLBMatchesReference(f *testing.F) {
	f.Add(uint8(3), uint8(9), []byte("0123456789abcdef0123456789abcdef0123456789abcdef"))
	f.Fuzz(func(t *testing.T, entries, pageSpace uint8, ops []byte) {
		runAgainstReference(t, int(entries%64)+1, uint64(pageSpace)+1, ops)
	})
}

// Pages that share a home position form one probe run; removing an entry
// from the middle of a run must leave every later entry reachable,
// including a run that wraps past the end of the index.
func TestTLBCollidingPagesStayReachable(t *testing.T) {
	tlb := NewTLB(8) // 16 index positions
	last := uint64(len(tlb.index) - 1)
	var pages []PageID
	for p := PageID(0); len(pages) < 8; p++ {
		if h := tlb.home(p); h == last || h == 0 {
			pages = append(pages, p)
		}
	}
	for _, p := range pages {
		tlb.Fill(p, cache.ClassPrivate)
	}
	checkStructure(t, tlb)
	for _, victim := range []int{0, 3, 7} {
		if !tlb.Shootdown(pages[victim]) {
			t.Fatalf("page %d not resident", pages[victim])
		}
		checkStructure(t, tlb)
	}
	for i, p := range pages {
		_, ok := tlb.Lookup(p)
		if shot := i == 0 || i == 3 || i == 7; ok == shot {
			t.Fatalf("page %d resident = %v after shootdowns", p, ok)
		}
	}
}

// Lookups, fills, evictions and shootdowns on a full TLB never allocate.
func TestTLBDoesNotAllocate(t *testing.T) {
	tlb := NewTLB(64)
	for p := PageID(0); p < 64; p++ {
		tlb.Fill(p, cache.ClassPrivate)
	}
	next := PageID(64)
	allocs := testing.AllocsPerRun(1000, func() {
		tlb.Lookup(next - 10)
		tlb.Fill(next, cache.ClassShared)
		tlb.Shootdown(next - 5)
		tlb.Fill(next-5, cache.ClassInstruction)
		next++
	})
	if allocs != 0 {
		t.Fatalf("%v allocations per operation group", allocs)
	}
}
