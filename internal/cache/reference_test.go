package cache

import (
	"fmt"
	"math"
	"testing"
)

// refCache is the slice-of-slices cache the set-major arrays replaced:
// one heap slice per set, a 64-bit recency counter, lines appended on
// fill and shifted down on invalidation. The fuzzers below hold Cache to
// it operation by operation.
type refCache struct {
	geom      Geometry
	sets      [][]refLine
	setMask   uint64
	blockBits uint
	setBits   uint
	tick      uint64
	stats     Stats
	occupancy [4]int
}

type refLine struct {
	tag   uint64
	state State
	class Class
	lru   uint64
}

func (l refLine) line() Line { return Line{State: l.state, Class: l.class} }

func newRefCache(g Geometry) *refCache {
	r := &refCache{geom: g, sets: make([][]refLine, g.Sets()), setMask: uint64(g.Sets() - 1)}
	for b := g.BlockBytes; b > 1; b >>= 1 {
		r.blockBits++
	}
	for s := g.Sets(); s > 1; s >>= 1 {
		r.setBits++
	}
	return r
}

func (r *refCache) index(addr Addr) (int, uint64) {
	block := uint64(addr) >> r.blockBits
	return int(block & r.setMask), block >> r.setBits
}

func (r *refCache) reconstruct(set int, tag uint64) Addr {
	return Addr((tag<<r.setBits | uint64(set)) << r.blockBits)
}

func (r *refCache) find(addr Addr) (int, int) {
	set, tag := r.index(addr)
	for i, l := range r.sets[set] {
		if l.tag == tag {
			return set, i
		}
	}
	return set, -1
}

func (r *refCache) Lookup(addr Addr) (*refLine, bool) {
	set, i := r.find(addr)
	if i < 0 {
		r.stats.Misses++
		return nil, false
	}
	r.tick++
	l := &r.sets[set][i]
	l.lru = r.tick
	r.stats.Hits++
	return l, true
}

func (r *refCache) Peek(addr Addr) (*refLine, bool) {
	set, i := r.find(addr)
	if i < 0 {
		return nil, false
	}
	return &r.sets[set][i], true
}

func (r *refCache) Insert(addr Addr, st State, class Class) Victim {
	set, tag := r.index(addr)
	if _, i := r.find(addr); i >= 0 {
		panic(fmt.Sprintf("reference: double insert of %#x", uint64(addr)))
	}
	r.tick++
	nl := refLine{tag: tag, state: st, class: class, lru: r.tick}
	lines := r.sets[set]
	if len(lines) < r.geom.Ways {
		r.sets[set] = append(lines, nl)
		r.occupancy[class]++
		return Victim{}
	}
	vi := 0
	for i := 1; i < len(lines); i++ {
		if lines[i].lru < lines[vi].lru {
			vi = i
		}
	}
	ev := lines[vi]
	r.stats.Evictions++
	if ev.state.Dirty() {
		r.stats.Writebacks++
	}
	r.occupancy[ev.class]--
	r.occupancy[class]++
	lines[vi] = nl
	return Victim{Addr: r.reconstruct(set, ev.tag), Line: ev.line(), Valid: true}
}

func (r *refCache) Invalidate(addr Addr) (Line, bool) {
	set, i := r.find(addr)
	if i < 0 {
		return Line{}, false
	}
	ev := r.sets[set][i]
	r.occupancy[ev.class]--
	r.sets[set] = append(r.sets[set][:i], r.sets[set][i+1:]...)
	return ev.line(), true
}

func (r *refCache) InvalidateRange(lo, hi Addr, removed func(Addr, Line)) int {
	block := Addr(r.geom.BlockBytes)
	n := 0
	for a := (lo + block - 1) &^ (block - 1); a >= lo && a < hi; a += block {
		if line, ok := r.Invalidate(a); ok {
			removed(a, line)
			n++
		}
	}
	return n
}

func (r *refCache) ForEach(fn func(Addr, Line)) {
	for set, lines := range r.sets {
		for _, l := range lines {
			fn(r.reconstruct(set, l.tag), l.line())
		}
	}
}

func (r *refCache) Reset() {
	for i := range r.sets {
		r.sets[i] = nil
	}
	r.tick = 0
	r.stats = Stats{}
	r.occupancy = [4]int{}
}

// refVictimCache is the map-and-FIFO victim cache the fixed slots
// replaced.
type refVictimCache struct {
	entries      int
	lines        map[Addr]Line
	order        []Addr
	hits, misses uint64
}

func newRefVictimCache(entries int) *refVictimCache {
	return &refVictimCache{entries: entries, lines: map[Addr]Line{}}
}

func (v *refVictimCache) Put(addr Addr, line Line) (Addr, Line, bool) {
	if v.entries == 0 {
		return addr, line, true
	}
	if _, ok := v.lines[addr]; ok {
		v.lines[addr] = line
		return 0, Line{}, false
	}
	var dAddr Addr
	var dLine Line
	displaced := false
	if len(v.order) >= v.entries {
		dAddr, dLine, displaced = v.order[0], v.lines[v.order[0]], true
		v.order = v.order[1:]
		delete(v.lines, dAddr)
	}
	v.lines[addr] = line
	v.order = append(v.order, addr)
	return dAddr, dLine, displaced
}

func (v *refVictimCache) Take(addr Addr) (Line, bool) {
	line, ok := v.lines[addr]
	if !ok {
		v.misses++
		return Line{}, false
	}
	v.hits++
	delete(v.lines, addr)
	for i, a := range v.order {
		if a == addr {
			v.order = append(v.order[:i], v.order[i+1:]...)
			break
		}
	}
	return line, true
}

// fuzzGeoms are the fuzzers' cache shapes: Table 1's 2-way L1 and 16-way
// and 12-way L2 slices, cut to a few sets, and a direct-mapped array.
var fuzzGeoms = []Geometry{
	{SizeBytes: 16 * 64, Ways: 1, BlockBytes: 64},
	{SizeBytes: 8 * 2 * 64, Ways: 2, BlockBytes: 64},
	{SizeBytes: 4 * 12 * 64, Ways: 12, BlockBytes: 64},
	{SizeBytes: 4 * 16 * 64, Ways: 16, BlockBytes: 64},
}

// entry is one ForEach visit, compared without the recency stamp.
type entry struct {
	addr  Addr
	state State
	class Class
}

// sameAsRef fails t unless c and r hold the same lines in the same ForEach
// order with the same Stats and per-class occupancy.
func sameAsRef(t *testing.T, step int, c *Cache, r *refCache) {
	t.Helper()
	if c.Stats() != r.stats {
		t.Fatalf("step %d: stats %+v, reference %+v", step, c.Stats(), r.stats)
	}
	for cl := Class(0); cl < 4; cl++ {
		if c.Occupancy(cl) != r.occupancy[cl] {
			t.Fatalf("step %d: occupancy[%v] %d, reference %d", step, cl, c.Occupancy(cl), r.occupancy[cl])
		}
	}
	var got, want []entry
	c.ForEach(func(a Addr, l *Line) { got = append(got, entry{a, l.State, l.Class}) })
	r.ForEach(func(a Addr, l Line) { want = append(want, entry{a, l.State, l.Class}) })
	if len(got) != len(want) || c.Lines() != len(want) {
		t.Fatalf("step %d: %d lines (%d by ForEach), reference %d", step, c.Lines(), len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("step %d: ForEach[%d] = %+v, reference %+v", step, i, got[i], want[i])
		}
	}
}

// sameVictim compares two Insert results, leaving out the recency stamp.
func sameVictim(v, rv Victim) bool {
	return v.Addr == rv.Addr && v.Valid == rv.Valid && v.Line.State == rv.Line.State && v.Line.Class == rv.Line.Class
}

// panics reports whether f panics.
func panics(f func()) (p bool) {
	defer func() { p = recover() != nil }()
	f()
	return false
}

// FuzzCacheMatchesReference drives Cache and refCache with one operation
// tape and requires the same hits, victims, returned lines, Stats,
// occupancy and ForEach order after every step. The first byte picks the
// geometry, the high address bits every block shares, and whether the
// recency counter starts a few ticks below its wrap.
func FuzzCacheMatchesReference(f *testing.F) {
	f.Add([]byte{0, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9})
	f.Add([]byte{3, 200, 2, 1, 2, 17, 2, 33, 2, 49, 0, 1, 2, 65, 3, 17, 4, 1})
	f.Add([]byte{0x82, 7, 2, 5, 2, 53, 2, 101, 0, 5, 2, 149, 2, 197, 5, 0, 2, 5})
	f.Add([]byte{0xC1, 3, 2, 0, 2, 8, 2, 16, 1, 8, 6, 8, 4, 0, 2, 24, 3, 8})
	f.Fuzz(func(t *testing.T, tape []byte) {
		if len(tape) < 2 {
			return
		}
		g := fuzzGeoms[tape[0]%4]
		c, r := New(g), newRefCache(g)
		if tape[0]&0x80 != 0 {
			c.tick = math.MaxUint32 - uint32(tape[1]%8)
		}
		high := Addr(tape[1]) << 40
		blocks := 2 * g.Sets() * g.Ways
		at := func(b byte) Addr { return high | Addr(int(b)%blocks)<<6 }
		for i, step := 2, 0; i+1 < len(tape); i, step = i+2, step+1 {
			op, addr := tape[i]%7, at(tape[i+1])
			switch op {
			case 0: // a read reference: lookup, fill on a miss
				l, hit := c.Lookup(addr)
				rl, rhit := r.Lookup(addr)
				if hit != rhit || hit && (l.State != rl.state || l.Class != rl.class) {
					t.Fatalf("step %d: Lookup(%#x) = %v, reference %v", step, uint64(addr), hit, rhit)
				}
				if !hit {
					cl := Class(tape[i+1] >> 6)
					if v, rv := c.Insert(addr, Shared, cl), r.Insert(addr, Shared, cl); !sameVictim(v, rv) {
						t.Fatalf("step %d: Insert(%#x) victim %+v, reference %+v", step, uint64(addr), v, rv)
					}
				}
			case 1: // a write hit marks the returned line Modified
				l, hit := c.Lookup(addr)
				rl, rhit := r.Lookup(addr)
				if hit != rhit {
					t.Fatalf("step %d: Lookup(%#x) = %v, reference %v", step, uint64(addr), hit, rhit)
				}
				if hit {
					l.State, rl.state = Modified, Modified
				}
			case 2: // a fill, or a double insert both must refuse
				_, resident := r.Peek(addr)
				st, cl := State(1+tape[i+1]%3), Class(tape[i+1]>>6)
				if resident {
					if !panics(func() { c.Insert(addr, st, cl) }) {
						t.Fatalf("step %d: double insert of %#x did not panic", step, uint64(addr))
					}
				} else if v, rv := c.Insert(addr, st, cl), r.Insert(addr, st, cl); !sameVictim(v, rv) {
					t.Fatalf("step %d: Insert(%#x) victim %+v, reference %+v", step, uint64(addr), v, rv)
				}
			case 3:
				l, ok := c.Peek(addr)
				rl, rok := r.Peek(addr)
				if ok != rok || ok && (l.State != rl.state || l.Class != rl.class) {
					t.Fatalf("step %d: Peek(%#x) = %v, reference %v", step, uint64(addr), ok, rok)
				}
			case 4:
				l, ok := c.Invalidate(addr)
				rl, rok := r.Invalidate(addr)
				if ok != rok || l.State != rl.State || l.Class != rl.Class {
					t.Fatalf("step %d: Invalidate(%#x) = %+v %v, reference %+v %v", step, uint64(addr), l, ok, rl, rok)
				}
			case 5:
				lo, hi := addr, addr+Addr(tape[i]/7)<<6
				var got, want []entry
				n := c.InvalidateRange(lo, hi, func(a Addr, l Line) { got = append(got, entry{a, l.State, l.Class}) })
				rn := r.InvalidateRange(lo, hi, func(a Addr, l Line) { want = append(want, entry{a, l.State, l.Class}) })
				if n != rn || fmt.Sprint(got) != fmt.Sprint(want) {
					t.Fatalf("step %d: InvalidateRange removed %v, reference %v", step, got, want)
				}
			case 6:
				if tape[i+1]%16 == 0 {
					c.Reset()
					r.Reset()
				}
			}
			sameAsRef(t, step, c, r)
		}
	})
}

// A recency counter moved to a few ticks below its wrap, once the sets
// are full, renumbers every set on the way through, and every victim
// still matches the reference's, whose 64-bit counter never wraps.
func TestRecencyWrapMatchesReference(t *testing.T) {
	for _, g := range fuzzGeoms {
		t.Run(fmt.Sprintf("%d-way", g.Ways), func(t *testing.T) {
			c, r := New(g), newRefCache(g)
			blocks := 3 * g.Sets() * g.Ways
			wrapped := false
			for i := 0; i < 40*blocks; i++ {
				if i == 10*blocks {
					// A jump forward keeps every set's recency order.
					c.tick = math.MaxUint32 - 3
				}
				// A stride coprime to the block count revisits blocks in
				// a shifting order, so hits and evictions interleave.
				addr := Addr((i*7+i/blocks)%blocks) << 6
				if i%5 == 4 {
					addr = Addr(i%g.Sets()) << 6
				}
				before := c.tick
				_, hit := c.Lookup(addr)
				if _, rhit := r.Lookup(addr); hit != rhit {
					t.Fatalf("ref %d: Lookup(%#x) = %v, reference %v", i, uint64(addr), hit, rhit)
				}
				if !hit {
					v, rv := c.Insert(addr, Shared, ClassShared), r.Insert(addr, Shared, ClassShared)
					if !sameVictim(v, rv) {
						t.Fatalf("ref %d: victim %+v, reference %+v", i, v, rv)
					}
				}
				if c.tick < before {
					wrapped = true
				}
				sameAsRef(t, i, c, r)
			}
			if !wrapped {
				t.Fatal("the recency counter never wrapped")
			}
		})
	}
}

// FuzzVictimMatchesReference drives VictimCache and the map-and-FIFO
// reference with one Put/Take tape and requires the same displaced
// blocks, taken lines, hit and miss counts and length after every step.
func FuzzVictimMatchesReference(f *testing.F) {
	f.Add([]byte{2, 0, 1, 2, 3, 4, 5, 129, 131, 6})
	f.Add([]byte{0, 1, 129})
	f.Add([]byte{16, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 137, 138, 3})
	f.Fuzz(func(t *testing.T, tape []byte) {
		if len(tape) == 0 {
			return
		}
		entries := int(tape[0] % 20)
		v, r := NewVictimCache(entries), newRefVictimCache(entries)
		for i, b := range tape[1:] {
			addr := Addr(b&0x1F) << 6
			if b&0x80 == 0 {
				line := Line{State: State(b >> 5 & 3), Class: Class(i % 4)}
				da, dl, ok := v.Put(addr, line)
				ra, rl, rok := r.Put(addr, line)
				if da != ra || dl != rl || ok != rok {
					t.Fatalf("step %d: Put(%#x) displaced %#x %+v %v, reference %#x %+v %v",
						i, uint64(addr), uint64(da), dl, ok, uint64(ra), rl, rok)
				}
			} else {
				l, ok := v.Take(addr)
				rl, rok := r.Take(addr)
				if l != rl || ok != rok {
					t.Fatalf("step %d: Take(%#x) = %+v %v, reference %+v %v", i, uint64(addr), l, ok, rl, rok)
				}
			}
			if v.Len() != len(r.lines) || v.Hits() != r.hits || v.Misses() != r.misses {
				t.Fatalf("step %d: len %d hits %d misses %d, reference %d %d %d",
					i, v.Len(), v.Hits(), v.Misses(), len(r.lines), r.hits, r.misses)
			}
		}
	})
}
