package ospage

import "rnuca/internal/cache"

// Peek returns the TLB's translation for p without touching its recency
// order or its hit and miss counters, so a test can read the state a
// core's TLB holds.
func (t *TLB) Peek(p PageID) (cache.Class, bool) {
	_, i := t.find(p)
	if i < 0 {
		return cache.ClassUnknown, false
	}
	return t.lines[i].class, true
}
