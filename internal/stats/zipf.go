package stats

import (
	"container/list"
	"math"
	"sync"
)

// ZipfTableBudget caps the bytes of CDF tables the process retains. The
// whole workload catalog (primary, extended, and both MIX variants) needs
// about 36 MB of distinct tables, so figure runs never evict.
const ZipfTableBudget = 64 << 20

// Zipf draws from a Zipf-like distribution over [0, n) with skew s >= 0.
// s == 0 degenerates to uniform. Higher s concentrates probability on low
// ranks, which is how the workload generators model hot database pages and
// hot instruction blocks.
//
// A Zipf is an immutable CDF table plus its own draw state. The table
// depends only on (n, s), so it is shared process-wide: every Zipf over
// the same (n, s) — the cores of one workload, the cells of a Compare,
// successive jobs — reads one slice, built once. The RNG is never
// shared, so each generator's draw sequence is exactly what a private
// table would give.
type Zipf struct {
	n   int
	cdf []float64 // shared and read-only
	rng *RNG
}

// NewZipf returns a Zipf(s) generator over n ranks drawing from rng.
//
// The CDF comes from a process-wide table cache. The first caller for an
// (n, s) pair builds it; concurrent callers for the same pair wait for
// that one build, and callers for other pairs never wait behind it. The
// cache retains at most 64 MB of tables and evicts the least recently
// used beyond that. A table still held by a live Zipf survives eviction.
// A table larger than the whole budget is built for this caller alone.
func NewZipf(rng *RNG, n int, s float64) *Zipf {
	if n <= 0 {
		panic("stats: NewZipf with non-positive n")
	}
	return &Zipf{n: n, cdf: tables.get(n, s), rng: rng}
}

// Draw returns the next rank in [0, n).
func (z *Zipf) Draw() int {
	u := z.rng.Float64()
	// Binary search the precomputed CDF.
	lo, hi := 0, z.n-1
	for lo < hi {
		mid := (lo + hi) / 2
		if z.cdf[mid] < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// N returns the number of ranks.
func (z *Zipf) N() int { return z.n }

// zipfCDF computes the normalized Zipf(s) CDF over n ranks.
func zipfCDF(n int, s float64) []float64 {
	cdf := make([]float64, n)
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += 1.0 / math.Pow(float64(i+1), s)
		cdf[i] = sum
	}
	inv := 1.0 / sum
	for i := range cdf {
		cdf[i] *= inv
	}
	return cdf
}

// tables is the process-wide CDF table cache behind NewZipf.
var tables = newTableCache(ZipfTableBudget)

// zipfKey names a table. The skew is keyed by its bit pattern so that
// equal keys always mean bit-identical tables.
type zipfKey struct {
	n int
	s uint64
}

// zipfTable is one cache entry. The goroutine that registers the entry
// writes cdf and then closes done; every other reader waits on done
// first, so cdf is never read before it is complete. elem is the entry's
// place in the LRU list (nil while building) and is only touched with
// the cache's mutex held.
type zipfTable struct {
	key  zipfKey
	cdf  []float64
	done chan struct{}
	elem *list.Element
}

// tableCache memoizes CDF tables under a retained-byte budget.
type tableCache struct {
	budget int64                            // immutable after construction
	build  func(n int, s float64) []float64 // immutable after construction

	mu     sync.Mutex
	tables map[zipfKey]*zipfTable // guarded by mu
	lru    *list.List             // guarded by mu
	bytes  int64                  // guarded by mu
}

func newTableCache(budget int64) *tableCache {
	return &tableCache{
		budget: budget,
		build:  zipfCDF,
		tables: map[zipfKey]*zipfTable{},
		lru:    list.New(),
	}
}

// get returns the table for (n, s), building it on first use. The build
// runs outside the lock; the LRU list holds built tables only, most
// recently used at the front, and eviction pops its back.
func (c *tableCache) get(n int, s float64) []float64 {
	if int64(n) > c.budget/8 {
		return c.build(n, s)
	}
	k := zipfKey{n: n, s: math.Float64bits(s)}
	c.mu.Lock()
	if t, ok := c.tables[k]; ok {
		if t.elem != nil {
			c.lru.MoveToFront(t.elem)
		}
		c.mu.Unlock()
		<-t.done
		return t.cdf
	}
	t := &zipfTable{key: k, done: make(chan struct{})}
	c.tables[k] = t
	c.mu.Unlock()

	t.cdf = c.build(n, s)

	c.mu.Lock()
	t.elem = c.lru.PushFront(t)
	c.bytes += int64(n) * 8
	// t is at the front and fits the budget alone, so it is never the
	// victim here.
	for c.bytes > c.budget {
		old := c.lru.Remove(c.lru.Back()).(*zipfTable)
		delete(c.tables, old.key)
		c.bytes -= int64(len(old.cdf)) * 8
	}
	c.mu.Unlock()
	close(t.done)
	return t.cdf
}
