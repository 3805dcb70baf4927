// Package cache implements the cache structures of the tiled CMP: set
// associative arrays with true-LRU replacement and small fully-associative
// victim caches, as configured in Table 1 of the paper (64-byte blocks,
// 2-way 64KB L1s, 16-way 1MB or 12-way 3MB L2 slices, 16-entry victim
// caches). Table 1's 32 MSHRs have no structure here: the engine folds
// the memory-level parallelism they allow into sim.Engine.OffChipMLP.
//
// The arrays store metadata only (tags, state, access class); the simulator
// is trace-driven and never materializes data bytes.
package cache

import "fmt"

// Addr is a physical block-aligned byte address.
type Addr uint64

// Class labels the access class of a cached block, following the paper's
// three-way classification (§3.2). It is carried on cache lines so the
// simulator can account occupancy and misses per class.
type Class uint8

// Access classes.
const (
	ClassUnknown Class = iota
	ClassInstruction
	ClassPrivate
	ClassShared
)

// String implements fmt.Stringer.
func (c Class) String() string {
	switch c {
	case ClassInstruction:
		return "instruction"
	case ClassPrivate:
		return "private"
	case ClassShared:
		return "shared"
	default:
		return "unknown"
	}
}

// State is a coherence state for a cached block (MOSI, after the Piranha
// protocol the paper models).
type State uint8

// MOSI states. Invalid lines are simply absent from the array.
const (
	Invalid State = iota
	Shared
	Owned
	Modified
)

// String implements fmt.Stringer.
func (s State) String() string {
	switch s {
	case Shared:
		return "S"
	case Owned:
		return "O"
	case Modified:
		return "M"
	default:
		return "I"
	}
}

// Dirty reports whether the state requires writeback on eviction.
func (s State) Dirty() bool { return s == Owned || s == Modified }

// Geometry describes a cache array.
type Geometry struct {
	SizeBytes  int // total capacity
	Ways       int // associativity
	BlockBytes int // line size
}

// Sets returns the number of sets implied by the geometry.
func (g Geometry) Sets() int {
	denom := g.Ways * g.BlockBytes
	if denom == 0 {
		return 0
	}
	return g.SizeBytes / denom
}

// Caps on a cache's geometry: 64 times the largest Table 1 value (the
// 8-core chip's 3 MB slice, 16 ways, 64-byte blocks).
const (
	MaxSizeBytes  = 64 * (3 << 20)
	MaxWays       = 64 * 16
	MaxBlockBytes = 64 * 64
)

// Validate checks that the geometry is internally consistent: positive
// sizes within the caps, power-of-two block size and set count (required
// for bit-sliced indexing).
func (g Geometry) Validate() error {
	if g.SizeBytes <= 0 || g.Ways <= 0 || g.BlockBytes <= 0 {
		return fmt.Errorf("cache: non-positive geometry %+v", g)
	}
	if g.SizeBytes > MaxSizeBytes || g.Ways > MaxWays || g.BlockBytes > MaxBlockBytes {
		return fmt.Errorf("cache: geometry %+v above the caps of %d bytes, %d ways, %d-byte blocks",
			g, MaxSizeBytes, MaxWays, MaxBlockBytes)
	}
	if g.SizeBytes%(g.Ways*g.BlockBytes) != 0 {
		return fmt.Errorf("cache: size %d not divisible by ways*block %d", g.SizeBytes, g.Ways*g.BlockBytes)
	}
	if g.BlockBytes&(g.BlockBytes-1) != 0 {
		return fmt.Errorf("cache: block size %d not a power of two", g.BlockBytes)
	}
	s := g.Sets()
	if s&(s-1) != 0 {
		return fmt.Errorf("cache: set count %d not a power of two", s)
	}
	return nil
}

// Line is one cache line's metadata.
type Line struct {
	Tag   uint64
	State State
	Class Class
	// Sharer is auxiliary per-design metadata: for directory lines it is
	// unused; for replicated instruction lines the designs record the
	// owning cluster center here for invalidation accounting.
	Sharer int16
	// lru is the recency counter: larger is more recent.
	lru uint64
}

// Stats counts cache events.
type Stats struct {
	Hits       uint64
	Misses     uint64
	Evictions  uint64
	Writebacks uint64
	// Per-class occupancy-weighted event counts.
	HitsByClass   [4]uint64
	MissesByClass [4]uint64
}

// Cache is a set-associative array with true LRU replacement.
// It is not safe for concurrent use; the simulator is single-threaded per
// simulated machine.
type Cache struct {
	geom      Geometry
	sets      [][]Line // sets[i] has at most geom.Ways lines
	setMask   uint64
	blockBits uint
	tick      uint64
	stats     Stats
	occupancy [4]int // live lines per class
}

// New builds a cache with the given geometry. It panics on invalid
// geometry: cache shapes are static configuration, so an error return would
// only be plumbed upward to a panic anyway.
func New(geom Geometry) *Cache {
	if err := geom.Validate(); err != nil {
		panic(err)
	}
	sets := geom.Sets()
	c := &Cache{
		geom:    geom,
		sets:    make([][]Line, sets),
		setMask: uint64(sets - 1),
	}
	for b := geom.BlockBytes; b > 1; b >>= 1 {
		c.blockBits++
	}
	return c
}

// Geometry returns the cache shape.
func (c *Cache) Geometry() Geometry { return c.geom }

// Stats returns a copy of the event counters.
func (c *Cache) Stats() Stats { return c.stats }

// Occupancy returns the number of live lines holding the given class.
func (c *Cache) Occupancy(class Class) int { return c.occupancy[class] }

// Lines returns the number of live lines.
func (c *Cache) Lines() int {
	n := 0
	for _, o := range c.occupancy {
		n += o
	}
	return n
}

// index splits a block address into set index and tag.
func (c *Cache) index(addr Addr) (set int, tag uint64) {
	block := uint64(addr) >> c.blockBits
	return int(block & c.setMask), block >> uint(popcount(c.setMask))
}

func popcount(x uint64) int {
	n := 0
	for x != 0 {
		x &= x - 1
		n++
	}
	return n
}

// Lookup probes the cache. On a hit it refreshes LRU and returns the line.
// The returned pointer is valid until the next mutation of the cache.
//
//rnuca:hotpath
func (c *Cache) Lookup(addr Addr) (*Line, bool) {
	set, tag := c.index(addr)
	for i := range c.sets[set] {
		if c.sets[set][i].Tag == tag {
			c.tick++
			c.sets[set][i].lru = c.tick
			c.stats.Hits++
			c.stats.HitsByClass[c.sets[set][i].Class]++
			return &c.sets[set][i], true
		}
	}
	c.stats.Misses++
	return nil, false
}

// Peek probes without updating LRU or statistics (used by the directory and
// the invariant-checking tests).
//
//rnuca:hotpath
func (c *Cache) Peek(addr Addr) (*Line, bool) {
	set, tag := c.index(addr)
	for i := range c.sets[set] {
		if c.sets[set][i].Tag == tag {
			return &c.sets[set][i], true
		}
	}
	return nil, false
}

// Victim describes a line evicted by Insert.
type Victim struct {
	Addr  Addr
	Line  Line
	Valid bool
}

// Insert places a block with the given state and class, evicting the LRU
// line of the set if full. It must not be called for a resident block
// (callers Lookup first); doing so panics, because silently duplicating a
// tag would corrupt occupancy accounting.
//
//rnuca:hotpath
func (c *Cache) Insert(addr Addr, st State, class Class) Victim {
	set, tag := c.index(addr)
	lines := c.sets[set]
	for i := range lines {
		if lines[i].Tag == tag {
			panic(fmt.Sprintf("cache: double insert of %#x", uint64(addr)))
		}
	}
	c.tick++
	nl := Line{Tag: tag, State: st, Class: class, lru: c.tick}
	if len(lines) < c.geom.Ways {
		//rnuca:alloc-ok set growth is bounded by Ways and happens only while the set first fills; steady state replaces in place
		c.sets[set] = append(lines, nl)
		c.occupancy[class]++
		return Victim{}
	}
	// Evict true-LRU.
	vi := 0
	for i := 1; i < len(lines); i++ {
		if lines[i].lru < lines[vi].lru {
			vi = i
		}
	}
	ev := lines[vi]
	c.stats.Evictions++
	if ev.State.Dirty() {
		c.stats.Writebacks++
	}
	c.occupancy[ev.Class]--
	c.occupancy[class]++
	victimAddr := c.reconstruct(set, ev.Tag)
	lines[vi] = nl
	return Victim{Addr: victimAddr, Line: ev, Valid: true}
}

// reconstruct rebuilds the block address from set index and tag.
func (c *Cache) reconstruct(set int, tag uint64) Addr {
	setBits := uint(popcount(c.setMask))
	block := tag<<setBits | uint64(set)
	return Addr(block << c.blockBits)
}

// Invalidate removes a block if present, returning its line (for writeback
// decisions by the caller).
func (c *Cache) Invalidate(addr Addr) (Line, bool) {
	set, tag := c.index(addr)
	lines := c.sets[set]
	for i := range lines {
		if lines[i].Tag == tag {
			ev := lines[i]
			c.occupancy[ev.Class]--
			c.sets[set] = append(lines[:i], lines[i+1:]...)
			return ev, true
		}
	}
	return Line{}, false
}

// InvalidateRange removes every resident block whose address lies in
// [lo, hi), passing each removed block to removed when it is non-nil, and
// returns the number removed. It probes one set per block of the range
// rather than walking the array, so the R-NUCA page re-classification
// shootdown pays for the page it purges, not for the slice's capacity.
// Survivors keep their order within each set.
func (c *Cache) InvalidateRange(lo, hi Addr, removed func(Addr, Line)) int {
	block := Addr(c.geom.BlockBytes)
	n := 0
	// a >= lo stops the walk if rounding up or stepping wraps past the
	// top of the address space.
	for a := (lo + block - 1) &^ (block - 1); a >= lo && a < hi; a += block {
		if line, ok := c.Invalidate(a); ok {
			if removed != nil {
				removed(a, line)
			}
			n++
		}
	}
	return n
}

// ForEach visits every live line. The callback must not mutate the cache.
func (c *Cache) ForEach(fn func(Addr, *Line)) {
	for set := range c.sets {
		for i := range c.sets[set] {
			fn(c.reconstruct(set, c.sets[set][i].Tag), &c.sets[set][i])
		}
	}
}

// Reset empties the cache and clears statistics.
func (c *Cache) Reset() {
	for i := range c.sets {
		c.sets[i] = nil
	}
	c.tick = 0
	c.stats = Stats{}
	c.occupancy = [4]int{}
}
