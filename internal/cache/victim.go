package cache

import "fmt"

// VictimCache is a small fully-associative buffer that captures blocks
// evicted from a primary array (Table 1: 16-entry victim caches behind the
// L1s and L2 slices). A hit in the victim cache swaps the block back into
// the primary array, converting what would have been a long-latency miss
// into a short local refill.
//
// Its entries slots are allocated once and hold the resident blocks in
// FIFO order, oldest first.
type VictimCache struct {
	slots  []victimSlot // slots[:n] are resident
	n      int
	hits   uint64
	misses uint64
}

type victimSlot struct {
	addr Addr
	line Line
}

// MaxVictimEntries caps a victim cache at 64 times Table 1's 16 entries.
const MaxVictimEntries = 64 * 16

// CheckVictimEntries reports a negative victim-cache size or one above
// MaxVictimEntries.
func CheckVictimEntries(entries int) error {
	if entries < 0 {
		return fmt.Errorf("cache: negative victim cache size %d", entries)
	}
	if entries > MaxVictimEntries {
		return fmt.Errorf("cache: victim cache size %d above %d", entries, MaxVictimEntries)
	}
	return nil
}

// NewVictimCache returns a victim cache holding up to entries blocks.
func NewVictimCache(entries int) *VictimCache {
	if err := CheckVictimEntries(entries); err != nil {
		panic(err)
	}
	return &VictimCache{slots: make([]victimSlot, entries)}
}

// Put stores an evicted block, displacing the oldest entry if full; the
// displaced block (if any) is returned so callers can keep directory state
// consistent. A block already resident keeps its place and takes the new
// line. A zero-entry victim cache accepts nothing and reports the
// incoming block as displaced.
func (v *VictimCache) Put(addr Addr, line Line) (Addr, Line, bool) {
	if len(v.slots) == 0 {
		return addr, line, true
	}
	if i := v.find(addr); i >= 0 {
		v.slots[i].line = line
		return 0, Line{}, false
	}
	var out victimSlot
	displaced := v.n == len(v.slots)
	if displaced {
		out = v.slots[0]
		v.remove(0)
	}
	v.slots[v.n] = victimSlot{addr, line}
	v.n++
	return out.addr, out.line, displaced
}

// Take removes and returns the block if present (a victim hit).
func (v *VictimCache) Take(addr Addr) (Line, bool) {
	i := v.find(addr)
	if i < 0 {
		v.misses++
		return Line{}, false
	}
	v.hits++
	line := v.slots[i].line
	v.remove(i)
	return line, true
}

// find returns the slot holding addr, or -1.
func (v *VictimCache) find(addr Addr) int {
	for i := range v.slots[:v.n] {
		if v.slots[i].addr == addr {
			return i
		}
	}
	return -1
}

// remove closes slot i's gap, keeping the FIFO order.
func (v *VictimCache) remove(i int) {
	copy(v.slots[i:v.n], v.slots[i+1:v.n])
	v.n--
}

// Len returns the number of resident entries.
func (v *VictimCache) Len() int { return v.n }

// Hits returns the number of successful Take calls.
func (v *VictimCache) Hits() uint64 { return v.hits }

// Misses returns the number of failed Take calls.
func (v *VictimCache) Misses() uint64 { return v.misses }
