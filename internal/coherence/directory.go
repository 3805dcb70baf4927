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
	"sort"

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

// Entry is one block's directory state.
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
	// Invalidated lists the tiles whose copies were invalidated.
	Invalidated []int
	// Writeback is true when a dirty copy was flushed to memory.
	Writeback bool
}

// Nearest picks the supplier among candidate tiles: the design passes a
// distance function (hops from the requestor); ties break on tile ID.
type Nearest func(tile int) int

// Directory is a full-map directory over a fixed set of tiles.
type Directory struct {
	tiles   int
	entries map[cache.Addr]*Entry

	reads      uint64
	writes     uint64
	upgrades   uint64
	invals     uint64
	writebacks uint64
}

// NewDirectory builds a directory for n tiles (n <= 64).
func NewDirectory(n int) *Directory {
	if n <= 0 || n > 64 {
		panic(fmt.Sprintf("coherence: directory supports 1..64 tiles, got %d", n))
	}
	return &Directory{tiles: n, entries: make(map[cache.Addr]*Entry)}
}

// Lookup returns the entry for a block, or nil.
func (d *Directory) Lookup(addr cache.Addr) *Entry { return d.entries[addr] }

// Entries returns the number of tracked blocks.
func (d *Directory) Entries() int { return len(d.entries) }

// Read performs a read transaction for tile t. The dist function gives the
// hop distance from the requestor to any tile, used to pick the nearest
// clean supplier (directory-based protocols forward to a single supplier).
func (d *Directory) Read(addr cache.Addr, t int, dist Nearest) Action {
	d.reads++
	e := d.entries[addr]
	if e == nil {
		d.entries[addr] = &Entry{Owner: -1, Sharers: Bitset(0).Set(t)}
		return Action{Source: SourceMemory, Provider: -1}
	}
	if e.Owner == t || e.Sharers.Has(t) {
		// Already present (refill after L1 eviction with L2 copy alive):
		// no protocol action.
		return Action{Source: SourceNone, Provider: t}
	}
	if e.Owner >= 0 {
		// Owner forwards data and stays owner (M -> O on first share).
		provider := e.Owner
		e.Sharers = e.Sharers.Set(t)
		return Action{Source: SourceOwner, Provider: provider}
	}
	// Clean sharers: nearest one forwards.
	provider := d.nearestOf(e.Sharers, dist)
	e.Sharers = e.Sharers.Set(t)
	return Action{Source: SourceSharer, Provider: provider}
}

// Write performs a write (read-for-ownership) transaction for tile t:
// every other copy is invalidated and t becomes the modified owner.
func (d *Directory) Write(addr cache.Addr, t int, dist Nearest) Action {
	d.writes++
	e := d.entries[addr]
	if e == nil {
		d.entries[addr] = &Entry{Owner: t}
		return Action{Source: SourceMemory, Provider: -1}
	}
	act := Action{Source: SourceMemory, Provider: -1}
	if e.Owner == t && e.Sharers == 0 {
		// Silent upgrade of our own M copy.
		return Action{Source: SourceNone, Provider: t}
	}
	switch {
	case e.Owner >= 0 && e.Owner != t:
		act.Source, act.Provider = SourceOwner, e.Owner
		act.Invalidated = append(act.Invalidated, e.Owner)
	case e.Owner == t:
		// We own it but sharers exist: upgrade, data already local.
		d.upgrades++
		act.Source, act.Provider = SourceNone, t
	case e.Sharers != 0:
		act.Source = SourceSharer
		act.Provider = d.nearestOf(e.Sharers, dist)
	}
	for v := uint64(e.Sharers.Clear(t)); v != 0; v &= v - 1 {
		act.Invalidated = append(act.Invalidated, bits.TrailingZeros64(v))
	}
	d.invals += uint64(len(act.Invalidated))
	e.Owner = t
	e.Sharers = 0
	return act
}

// Evict removes tile t's copy. dirty marks a modified/owned eviction, which
// writes back to memory; if clean sharers remain they keep the block alive.
func (d *Directory) Evict(addr cache.Addr, t int, dirty bool) Action {
	e := d.entries[addr]
	if e == nil {
		return Action{Source: SourceNone, Provider: -1}
	}
	var act Action
	act.Source = SourceNone
	act.Provider = -1
	if e.Owner == t {
		e.Owner = -1
		if dirty {
			d.writebacks++
			act.Writeback = true
		}
	} else {
		e.Sharers = e.Sharers.Clear(t)
	}
	if e.Owner < 0 && e.Sharers == 0 {
		delete(d.entries, addr)
	}
	return act
}

// Invalidate forcibly removes every copy (page purge during R-NUCA
// re-classification, which uses OS shootdowns rather than this directory,
// but the private baseline needs it for page migrations too). It returns
// the tiles that held copies and whether a writeback occurred.
func (d *Directory) Invalidate(addr cache.Addr) Action {
	e := d.entries[addr]
	if e == nil {
		return Action{Source: SourceNone, Provider: -1}
	}
	var act Action
	act.Source = SourceNone
	act.Provider = -1
	if e.Owner >= 0 {
		act.Invalidated = append(act.Invalidated, e.Owner)
		act.Writeback = true
		d.writebacks++
	}
	act.Invalidated = append(act.Invalidated, e.Sharers.Tiles()...)
	d.invals += uint64(len(act.Invalidated))
	delete(d.entries, addr)
	return act
}

// Holders returns every tile with a copy of the block.
func (d *Directory) Holders(addr cache.Addr) []int {
	e := d.entries[addr]
	if e == nil {
		return nil
	}
	var out []int
	if e.Owner >= 0 {
		out = append(out, e.Owner)
	}
	out = append(out, e.Sharers.Tiles()...)
	return out
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
// address, so a corrupt directory reports the same error on every run.
// The simulator's audit mode calls this after every window.
func (d *Directory) CheckInvariants() error {
	addrs := make([]cache.Addr, 0, len(d.entries))
	for addr := range d.entries {
		addrs = append(addrs, addr)
	}
	sort.Slice(addrs, func(i, j int) bool { return addrs[i] < addrs[j] })
	for _, addr := range addrs {
		e := d.entries[addr]
		if e.Owner < -1 || e.Owner >= d.tiles {
			return fmt.Errorf("coherence: block %#x owner %d out of range", uint64(addr), e.Owner)
		}
		if e.Owner >= 0 && e.Sharers.Has(e.Owner) {
			return fmt.Errorf("coherence: block %#x owner %d also in sharer set", uint64(addr), e.Owner)
		}
		if e.Owner < 0 && e.Sharers == 0 {
			return fmt.Errorf("coherence: block %#x has empty entry", uint64(addr))
		}
		for _, s := range e.Sharers.Tiles() {
			if s >= d.tiles {
				return fmt.Errorf("coherence: block %#x sharer %d out of range", uint64(addr), s)
			}
		}
	}
	return nil
}

// Reset clears all state.
func (d *Directory) Reset() {
	d.entries = make(map[cache.Addr]*Entry)
	d.reads, d.writes, d.upgrades, d.invals, d.writebacks = 0, 0, 0, 0, 0
}
