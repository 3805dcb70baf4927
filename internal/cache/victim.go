package cache

import "fmt"

// VictimCache is a small fully-associative buffer that captures blocks
// evicted from a primary array (Table 1: 16-entry victim caches behind the
// L1s and L2 slices). A hit in the victim cache swaps the block back into
// the primary array, converting what would have been a long-latency miss
// into a short local refill.
type VictimCache struct {
	entries int
	lines   map[Addr]Line
	order   []Addr // FIFO order for replacement
	hits    uint64
	misses  uint64
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
	return &VictimCache{
		entries: entries,
		lines:   make(map[Addr]Line, entries),
	}
}

// Put stores an evicted block, displacing the oldest entry if full; the
// displaced block (if any) is returned so callers can keep directory state
// consistent. A zero-entry victim cache accepts nothing and reports the
// incoming block as displaced.
func (v *VictimCache) Put(addr Addr, line Line) (Addr, Line, bool) {
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
		dAddr = v.order[0]
		dLine = v.lines[dAddr]
		displaced = true
		v.order = v.order[1:]
		delete(v.lines, dAddr)
	}
	v.lines[addr] = line
	v.order = append(v.order, addr)
	return dAddr, dLine, displaced
}

// Take removes and returns the block if present (a victim hit).
func (v *VictimCache) Take(addr Addr) (Line, bool) {
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

// Len returns the number of resident entries.
func (v *VictimCache) Len() int { return len(v.lines) }

// Hits returns the number of successful Take calls.
func (v *VictimCache) Hits() uint64 { return v.hits }

// Misses returns the number of failed Take calls.
func (v *VictimCache) Misses() uint64 { return v.misses }
