// Package cache implements the cache structures of the tiled CMP: set
// associative arrays with true-LRU replacement and small fully-associative
// victim caches, as configured in Table 1 of the paper (64-byte blocks,
// 2-way 64KB L1s, 16-way 1MB or 12-way 3MB L2 slices, 16-entry victim
// caches). Table 1's 32 MSHRs have no structure here: the engine folds
// the memory-level parallelism they allow into sim.Engine.OffChipMLP.
//
// The arrays store metadata only (tags, state, access class); the simulator
// is trace-driven and never materializes data bytes.
//
// # Layout
//
// A Cache is set-major and pointer-free. Each set has one 8-byte header:
// the arena offset of its block, its live line count and its block's
// capacity. A block holds a set's lines in two parallel runs: the tags,
// which probes scan, and 8 bytes of metadata per line (Line: state,
// class and a 32-bit recency stamp). The set and tag shifts are computed
// once, in New.
//
// # Growth by capacity class
//
// A set's block grows on demand through capacity classes 1, 2, 4, … up
// to the associativity. Blocks are carved from chunks (32 lines first,
// doubling up to 4096) that are never copied or moved; an outgrown block
// goes to its class's free list, and the next set to grow into that
// class takes it. Growing copies the set's few lines, never the arena.
//
// A set does not get all its ways at once because fills are sparse. An
// R-NUCA cell of the Figure 12 MIX comparison (50k+100k references)
// touches 29,376 of Config8's 32,768 L2 sets but holds 68,111 lines,
// 2.3 per 12-way set. Its arena, free blocks included, is 102,144 lines;
// all ways at once would reserve 352,512. A cold 900-reference OLTP-DB2
// job touches 571 of 16,384 L2 sets with about one line each, and an
// untouched set costs only its header.
package cache

import (
	"cmp"
	"fmt"
	"math"
	"math/bits"
	"slices"
)

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

// Line is one cache line's metadata, 8 bytes. Its tag lives in the
// cache's tag array, which probes scan.
type Line struct {
	State State
	Class Class
	// lru is the recency stamp: within a set, larger is more recent.
	lru uint32
}

// Stats counts cache events.
type Stats struct {
	Hits       uint64
	Misses     uint64
	Evictions  uint64
	Writebacks uint64
}

// header is one set's header: where its block starts in the arena, the
// lines it holds, and the lines its block has room for (0 before the
// set's first insert).
type header struct {
	off  uint32 // chunk index<<chunkBits | position in the chunk
	n    uint16
	room uint16
}

// chunk is one allocation of the arena: the tags and metadata of
// len(tags) lines.
type chunk struct {
	tags []uint64
	meta []Line
}

// Chunk sizes, in lines: a cache's first chunk holds minChunk lines (or
// one full set, if larger), and each next one doubles up to 1<<chunkBits.
const (
	chunkBits = 12
	chunkMask = 1<<chunkBits - 1
	minChunk  = 32
	// classes counts the capacity classes of a MaxWays-way set: 1, 2,
	// 4, …, 1024 lines.
	classes = 11
)

// Cache is a set-associative array with true LRU replacement.
// It is not safe for concurrent use; the simulator is single-threaded per
// simulated machine.
type Cache struct {
	geom   Geometry
	sets   []header
	chunks []chunk
	carve  uint32 // arena offset of the next uncarved line of the last chunk
	left   int    // uncarved lines left in the last chunk
	// free holds, per capacity class (1, 2, 4, …, MaxWays lines), one plus
	// the offset of the first free block, or 0. A free block's first tag
	// links to the next the same way.
	free      [classes]uint32
	setMask   uint64
	blockBits uint
	tagShift  uint
	tick      uint32
	stats     Stats
	occupancy [4]int // live lines per class
}

// New builds a cache with the given geometry. It panics on invalid
// geometry: cache shapes are static configuration, so an error return would
// only be plumbed upward to a panic anyway. No line storage is allocated
// until the first insert.
func New(geom Geometry) *Cache {
	if err := geom.Validate(); err != nil {
		panic(err)
	}
	sets := geom.Sets()
	blockBits := uint(bits.TrailingZeros(uint(geom.BlockBytes)))
	return &Cache{
		geom:      geom,
		sets:      make([]header, sets),
		setMask:   uint64(sets - 1),
		blockBits: blockBits,
		tagShift:  blockBits + uint(bits.TrailingZeros(uint(sets))),
	}
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
	return int(uint64(addr) >> c.blockBits & c.setMask), uint64(addr) >> c.tagShift
}

// reconstruct rebuilds the block address from set index and tag.
func (c *Cache) reconstruct(set int, tag uint64) Addr {
	return Addr(tag<<c.tagShift | uint64(set)<<c.blockBits)
}

// span returns the tags and metadata of the n lines at arena offset off.
func (c *Cache) span(off uint32, n int) ([]uint64, []Line) {
	ck := &c.chunks[off>>chunkBits]
	p := int(off & chunkMask)
	return ck.tags[p : p+n], ck.meta[p : p+n]
}

// live returns the tags and metadata of a set's live lines.
func (c *Cache) live(h header) ([]uint64, []Line) {
	if h.n == 0 {
		return nil, nil
	}
	return c.span(h.off, int(h.n))
}

// stamp advances the recency counter and returns it. Before the counter
// would wrap, every set's lines are renumbered 1..n in recency order;
// LRU compares stamps only within a set, so no victim changes.
func (c *Cache) stamp() uint32 {
	if c.tick == math.MaxUint32 {
		c.renumber()
	}
	c.tick++
	return c.tick
}

// renumber replaces each set's recency stamps with their ranks, 1 for
// the least recent, and restarts the counter above every rank.
func (c *Cache) renumber() {
	order := make([]int, 0, c.geom.Ways)
	for _, h := range c.sets {
		_, meta := c.live(h)
		order = order[:0]
		for i := range meta {
			order = append(order, i)
		}
		slices.SortFunc(order, func(a, b int) int { return cmp.Compare(meta[a].lru, meta[b].lru) })
		for rank, i := range order {
			meta[i].lru = uint32(rank + 1)
		}
	}
	c.tick = uint32(c.geom.Ways)
}

// Lookup probes the cache. On a hit it refreshes LRU and returns the line.
// The returned pointer is valid until the next mutation of the cache.
//
//rnuca:hotpath
func (c *Cache) Lookup(addr Addr) (*Line, bool) {
	set, tag := c.index(addr)
	tags, meta := c.live(c.sets[set])
	for i, t := range tags {
		if t == tag {
			line := &meta[i]
			line.lru = c.stamp()
			c.stats.Hits++
			return line, true
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
	tags, meta := c.live(c.sets[set])
	for i, t := range tags {
		if t == tag {
			return &meta[i], true
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
	h := &c.sets[set]
	tags, meta := c.live(*h)
	for _, t := range tags {
		if t == tag {
			panic(fmt.Sprintf("cache: double insert of %#x", uint64(addr)))
		}
	}
	nl := Line{State: st, Class: class, lru: c.stamp()}
	if len(tags) < c.geom.Ways {
		if h.n == h.room {
			c.grow(h)
		}
		tags, meta = c.span(h.off, int(h.n)+1)
		tags[h.n], meta[h.n] = tag, nl
		h.n++
		c.occupancy[class]++
		return Victim{}
	}
	// Evict true-LRU.
	vi := 0
	for i := 1; i < len(meta); i++ {
		if meta[i].lru < meta[vi].lru {
			vi = i
		}
	}
	ev := meta[vi]
	c.stats.Evictions++
	if ev.State.Dirty() {
		c.stats.Writebacks++
	}
	c.occupancy[ev.Class]--
	c.occupancy[class]++
	victimAddr := c.reconstruct(set, tags[vi])
	tags[vi], meta[vi] = tag, nl
	return Victim{Addr: victimAddr, Line: ev, Valid: true}
}

// grow moves a full set into a block of its next capacity class, copying
// its lines in order, and frees the outgrown block.
//
//rnuca:hotpath
func (c *Cache) grow(h *header) {
	room := 1
	if h.room > 0 {
		room = min(2*int(h.room), c.geom.Ways)
	}
	off := c.alloc(room)
	if h.n > 0 {
		tags, meta := c.span(off, int(h.n))
		oldTags, oldMeta := c.live(*h)
		copy(tags, oldTags)
		copy(meta, oldMeta)
		c.release(h.off, int(h.room))
	}
	h.off, h.room = off, uint16(room)
}

// sizeClass is the free-list index of a block of room lines: room
// rounded up to a power of two, as a log.
func sizeClass(room int) int { return bits.Len(uint(room - 1)) }

// alloc returns the offset of a free block of room lines: one from the
// class's free list, or else one carved from the current chunk.
//
//rnuca:hotpath
func (c *Cache) alloc(room int) uint32 {
	k := sizeClass(room)
	if head := c.free[k]; head != 0 {
		off := head - 1
		c.free[k] = uint32(c.chunks[off>>chunkBits].tags[off&chunkMask])
		return off
	}
	if c.left < room {
		c.nextChunk()
	}
	off := c.carve
	c.carve += uint32(room)
	c.left -= room
	return off
}

// release puts a block of room lines on its class's free list.
func (c *Cache) release(off uint32, room int) {
	k := sizeClass(room)
	c.chunks[off>>chunkBits].tags[off&chunkMask] = uint64(c.free[k])
	c.free[k] = off + 1
}

// nextChunk allocates the next chunk and starts carving it. The rest of
// the previous chunk, less than one block, stays unused.
//
//rnuca:hotpath
func (c *Cache) nextChunk() {
	n := max(minChunk, c.geom.Ways)
	for i := 0; i < len(c.chunks) && n < 1<<chunkBits; i++ {
		n *= 2
	}
	n = min(n, 1<<chunkBits)
	//rnuca:alloc-ok one chunk per 32 to 4096 lines first filled, and never copied
	c.chunks = append(c.chunks, chunk{tags: make([]uint64, n), meta: make([]Line, n)})
	c.carve = uint32(len(c.chunks)-1) << chunkBits
	c.left = n
}

// Invalidate removes a block if present, returning its line (for writeback
// decisions by the caller). Later lines of the set keep their order.
func (c *Cache) Invalidate(addr Addr) (Line, bool) {
	set, tag := c.index(addr)
	h := &c.sets[set]
	tags, meta := c.live(*h)
	for i, t := range tags {
		if t == tag {
			ev := meta[i]
			c.occupancy[ev.Class]--
			copy(tags[i:], tags[i+1:])
			copy(meta[i:], meta[i+1:])
			h.n--
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

// ForEach visits every live line, set by set and in each set's order. The
// callback must not mutate the cache.
func (c *Cache) ForEach(fn func(Addr, *Line)) {
	for set, h := range c.sets {
		tags, meta := c.live(h)
		for i := range tags {
			fn(c.reconstruct(set, tags[i]), &meta[i])
		}
	}
}

// Reset empties the cache, drops its line storage and clears statistics.
func (c *Cache) Reset() {
	clear(c.sets)
	c.chunks, c.free = nil, [classes]uint32{}
	c.carve, c.left = 0, 0
	c.tick = 0
	c.stats = Stats{}
	c.occupancy = [4]int{}
}
