// Package coherence implements the full-map MOSI directory protocol the
// paper models (a four-state protocol after Piranha, §5.1). Two designs
// need it:
//
//   - the private-L2 baseline keeps L2 slices coherent through an
//     address-interleaved distributed directory (the paper optimistically
//     assumes zero area overhead for it, §2.2/§5.1);
//   - the shared-L2 organizations (shared baseline and R-NUCA) only keep
//     the L1 caches coherent, with directory state co-located with each
//     block's home L2 slice.
//
// The simulator is single-threaded, so directory transactions are atomic;
// transient states and races do not arise. What the timing model needs —
// and what this package reports — is who supplied the data and how many
// invalidations each transaction generated.
package coherence

import (
	"fmt"
	"math/bits"

	"rnuca/internal/cache"
)

// Bitset tracks up to 64 sharer tiles.
type Bitset uint64

// Set returns the bitset with tile t added.
func (b Bitset) Set(t int) Bitset { return b | 1<<uint(t) }

// Clear returns the bitset with tile t removed.
func (b Bitset) Clear(t int) Bitset { return b &^ (1 << uint(t)) }

// Has reports whether tile t is present.
func (b Bitset) Has(t int) bool { return b&(1<<uint(t)) != 0 }

// Count returns the number of tiles present.
func (b Bitset) Count() int { return bits.OnesCount64(uint64(b)) }

// Tiles returns the member tiles in ascending order.
func (b Bitset) Tiles() []int {
	var out []int
	for v := uint64(b); v != 0; v &= v - 1 {
		out = append(out, bits.TrailingZeros64(v))
	}
	return out
}

// Entry is one block's directory state, as Lookup reports it.
type Entry struct {
	// Owner holds the tile with the M or O copy, or -1.
	Owner int
	// Sharers holds tiles with S copies (never includes Owner).
	Sharers Bitset
}

// State derives the aggregate MOSI state.
func (e Entry) State() cache.State {
	switch {
	case e.Owner >= 0 && e.Sharers == 0:
		return cache.Modified
	case e.Owner >= 0:
		return cache.Owned
	case e.Sharers != 0:
		return cache.Shared
	default:
		return cache.Invalid
	}
}

// Source says where a transaction's data came from, which determines the
// latency the design charges.
type Source uint8

// Data sources.
const (
	SourceMemory Source = iota // off-chip
	SourceOwner                // forwarded from the M/O copy
	SourceSharer               // forwarded from a clean S copy
	SourceNone                 // upgrade: requestor already has data
)

// String implements fmt.Stringer.
func (s Source) String() string {
	switch s {
	case SourceMemory:
		return "memory"
	case SourceOwner:
		return "owner"
	case SourceSharer:
		return "sharer"
	default:
		return "none"
	}
}

// Action describes what a transaction did.
type Action struct {
	Source Source
	// Provider is the tile that supplied data (valid for SourceOwner and
	// SourceSharer).
	Provider int
	// Invalidated lists the tiles whose copies were invalidated, in
	// ascending order after the previous owner. It is nil when none were,
	// and otherwise a view of a buffer the directory owns: it stays valid
	// only until the directory's next transaction, so a caller that needs
	// it longer copies it.
	Invalidated []int
	// Writeback is true when a dirty copy was flushed to memory.
	Writeback bool
}

// Nearest picks the supplier among candidate tiles: the design passes a
// distance function (hops from the requestor); ties break on tile ID.
type Nearest func(tile int) int

// Directory is a full-map directory over a fixed set of tiles.
//
// Entries are stored by value in an open-addressed table: linear probing
// from a Fibonacci hash of the block address, backward-shift deletion, 64
// slots to start, doubling when an insertion would take the load past
// 3/4. A transaction is one probe run over 24-byte slots, and tracking a
// new block allocates nothing until the table doubles.
type Directory struct {
	tiles int
	slots []slot
	live  int  // used slots
	limit int  // live count at which the next insertion doubles the table
	shift uint // 64 - log2(len(slots))
	// inval backs Write's Action.Invalidated; a write invalidates at most
	// 64 tiles.
	inval [64]int

	reads      uint64
	writes     uint64
	upgrades   uint64
	invals     uint64
	writebacks uint64
}

// slot is one table position: a tracked block's entry, or unused.
type slot struct {
	addr    cache.Addr
	sharers Bitset
	owner   int8 // -1 when no tile holds an M or O copy
	used    bool
}

// initialSlots is the table size of a new or reset directory.
const initialSlots = 64

// NewDirectory builds a directory for n tiles (n <= 64).
func NewDirectory(n int) *Directory {
	if n <= 0 || n > 64 {
		panic(fmt.Sprintf("coherence: directory supports 1..64 tiles, got %d", n))
	}
	d := &Directory{tiles: n}
	d.alloc(initialSlots)
	return d
}

// alloc installs an empty table of n slots, a power of two.
func (d *Directory) alloc(n int) {
	d.slots = make([]slot, n)
	d.limit = n / 4 * 3
	d.shift = 64 - uint(bits.TrailingZeros(uint(n)))
}

// home is a block's first probe position (Fibonacci hashing).
func (d *Directory) home(addr cache.Addr) uint64 {
	return uint64(addr) * 0x9E3779B97F4A7C15 >> d.shift
}

// find returns the position holding addr's entry, or the empty position
// where it would be inserted.
//
//rnuca:hotpath
func (d *Directory) find(addr cache.Addr) (pos uint64, ok bool) {
	mask := uint64(len(d.slots) - 1)
	for pos = d.home(addr); ; pos = (pos + 1) & mask {
		if s := &d.slots[pos]; !s.used || s.addr == addr {
			return pos, s.used
		}
	}
}

// insert tracks a new block at pos, the empty position find returned,
// doubling the table first when it is at its load limit. Growth is the
// directory's only allocation: it happens a few times per run, while
// the number of tracked blocks first climbs to its high-water mark.
func (d *Directory) insert(pos uint64, addr cache.Addr, owner int, sharers Bitset) {
	if d.live >= d.limit {
		d.grow()
		pos, _ = d.find(addr)
	}
	d.slots[pos] = slot{addr: addr, sharers: sharers, owner: int8(owner), used: true}
	d.live++
}

// grow doubles the table and re-inserts every entry.
func (d *Directory) grow() {
	old := d.slots
	d.alloc(2 * len(old))
	for i := range old {
		if old[i].used {
			pos, _ := d.find(old[i].addr)
			d.slots[pos] = old[i]
		}
	}
}

// remove drops the entry at pos.
//
//rnuca:hotpath
func (d *Directory) remove(pos uint64) {
	// Backward-shift deletion: pull each later entry of the probe run
	// into the hole unless its home lies cyclically after the hole.
	mask := uint64(len(d.slots) - 1)
	for j := (pos + 1) & mask; d.slots[j].used; j = (j + 1) & mask {
		if (j-d.home(d.slots[j].addr))&mask >= (j-pos)&mask {
			d.slots[pos] = d.slots[j]
			pos = j
		}
	}
	d.slots[pos] = slot{}
	d.live--
}

// Lookup returns the entry for a block and whether the block is tracked.
// The entry is a copy: changing it does not change the directory.
func (d *Directory) Lookup(addr cache.Addr) (Entry, bool) {
	pos, ok := d.find(addr)
	if !ok {
		return Entry{Owner: -1}, false
	}
	s := &d.slots[pos]
	return Entry{Owner: int(s.owner), Sharers: s.sharers}, true
}

// Entries returns the number of tracked blocks.
func (d *Directory) Entries() int { return d.live }

// Read performs a read transaction for tile t. The dist function gives the
// hop distance from the requestor to any tile, used to pick the nearest
// clean supplier (directory-based protocols forward to a single supplier).
//
//rnuca:hotpath
func (d *Directory) Read(addr cache.Addr, t int, dist Nearest) Action {
	d.reads++
	pos, ok := d.find(addr)
	if !ok {
		d.insert(pos, addr, -1, Bitset(0).Set(t))
		return Action{Source: SourceMemory, Provider: -1}
	}
	e := &d.slots[pos]
	if int(e.owner) == t || e.sharers.Has(t) {
		// Already present (refill after L1 eviction with L2 copy alive):
		// no protocol action.
		return Action{Source: SourceNone, Provider: t}
	}
	if e.owner >= 0 {
		// Owner forwards data and stays owner (M -> O on first share).
		e.sharers = e.sharers.Set(t)
		return Action{Source: SourceOwner, Provider: int(e.owner)}
	}
	// Clean sharers: nearest one forwards.
	provider := d.nearestOf(e.sharers, dist)
	e.sharers = e.sharers.Set(t)
	return Action{Source: SourceSharer, Provider: provider}
}

// Write performs a write (read-for-ownership) transaction for tile t:
// every other copy is invalidated and t becomes the modified owner.
//
//rnuca:hotpath
func (d *Directory) Write(addr cache.Addr, t int, dist Nearest) Action {
	d.writes++
	pos, ok := d.find(addr)
	if !ok {
		d.insert(pos, addr, t, 0)
		return Action{Source: SourceMemory, Provider: -1}
	}
	e := &d.slots[pos]
	owner := int(e.owner)
	if owner == t && e.sharers == 0 {
		// Silent upgrade of our own M copy.
		return Action{Source: SourceNone, Provider: t}
	}
	act := Action{Source: SourceMemory, Provider: -1}
	n := 0
	switch {
	case owner >= 0 && owner != t:
		act.Source, act.Provider = SourceOwner, owner
		d.inval[n] = owner
		n++
	case owner == t:
		// We own it but sharers exist: upgrade, data already local.
		d.upgrades++
		act.Source, act.Provider = SourceNone, t
	case e.sharers != 0:
		act.Source = SourceSharer
		act.Provider = d.nearestOf(e.sharers, dist)
	}
	for v := uint64(e.sharers.Clear(t)); v != 0; v &= v - 1 {
		d.inval[n] = bits.TrailingZeros64(v)
		n++
	}
	if n > 0 {
		act.Invalidated = d.inval[:n:n]
	}
	d.invals += uint64(n)
	e.owner, e.sharers = int8(t), 0
	return act
}

// Evict removes tile t's copy. dirty marks a modified/owned eviction, which
// writes back to memory; if clean sharers remain they keep the block alive.
//
//rnuca:hotpath
func (d *Directory) Evict(addr cache.Addr, t int, dirty bool) Action {
	act := Action{Source: SourceNone, Provider: -1}
	pos, ok := d.find(addr)
	if !ok {
		return act
	}
	e := &d.slots[pos]
	if int(e.owner) == t {
		e.owner = -1
		if dirty {
			d.writebacks++
			act.Writeback = true
		}
	} else {
		e.sharers = e.sharers.Clear(t)
	}
	if e.owner < 0 && e.sharers == 0 {
		d.remove(pos)
	}
	return act
}

// Holders returns every tile with a copy of the block.
func (d *Directory) Holders(addr cache.Addr) []int {
	pos, ok := d.find(addr)
	if !ok {
		return nil
	}
	e := &d.slots[pos]
	var out []int
	if e.owner >= 0 {
		out = append(out, int(e.owner))
	}
	return append(out, e.sharers.Tiles()...)
}

// nearestOf walks the set's bits directly: it runs on every read that
// finds clean sharers, and Tiles would allocate a slice per call.
func (d *Directory) nearestOf(b Bitset, dist Nearest) int {
	best, bestD := -1, 1<<30
	for v := uint64(b); v != 0; v &= v - 1 {
		t := bits.TrailingZeros64(v)
		dd := 0
		if dist != nil {
			dd = dist(t)
		}
		if best < 0 || dd < bestD || (dd == bestD && t < best) {
			best, bestD = t, dd
		}
	}
	return best
}

// DirStats reports protocol activity counters.
type DirStats struct {
	Reads, Writes, Upgrades, Invalidations, Writebacks uint64
}

// Stats returns the counters.
func (d *Directory) Stats() DirStats {
	return DirStats{
		Reads:         d.reads,
		Writes:        d.writes,
		Upgrades:      d.upgrades,
		Invalidations: d.invals,
		Writebacks:    d.writebacks,
	}
}

// CheckInvariants walks every entry validating MOSI invariants: owner not
// in sharer set, no empty entries. It returns the violation at the lowest
// address, so a corrupt directory reports the same error on every run
// whatever the table's layout. The simulator's audit mode calls this
// after every window.
func (d *Directory) CheckInvariants() error {
	var first error
	var firstAddr cache.Addr
	for i := range d.slots {
		s := &d.slots[i]
		if !s.used || (first != nil && s.addr >= firstAddr) {
			continue
		}
		if err := d.checkEntry(s); err != nil {
			first, firstAddr = err, s.addr
		}
	}
	return first
}

// checkEntry validates one entry.
func (d *Directory) checkEntry(s *slot) error {
	addr, owner := uint64(s.addr), int(s.owner)
	if owner < -1 || owner >= d.tiles {
		return fmt.Errorf("coherence: block %#x owner %d out of range", addr, owner)
	}
	if owner >= 0 && s.sharers.Has(owner) {
		return fmt.Errorf("coherence: block %#x owner %d also in sharer set", addr, owner)
	}
	if owner < 0 && s.sharers == 0 {
		return fmt.Errorf("coherence: block %#x has empty entry", addr)
	}
	if out := uint64(s.sharers) >> uint(d.tiles); out != 0 {
		return fmt.Errorf("coherence: block %#x sharer %d out of range", addr, d.tiles+bits.TrailingZeros64(out))
	}
	return nil
}

// Reset clears all state and shrinks the table to its initial size.
func (d *Directory) Reset() {
	d.alloc(initialSlots)
	d.live = 0
	d.reads, d.writes, d.upgrades, d.invals, d.writebacks = 0, 0, 0, 0, 0
}
