package stats

import (
	"math"
	"sync/atomic"
	"testing"
)

// freshTables swaps in an empty table cache with the given byte budget
// for the rest of the test and returns its build counter. hook, when
// non-nil, runs at the start of every build (before the CDF is
// computed), so a test can hold a build in flight.
func freshTables(t *testing.T, budget int64, hook func(n int, s float64)) *atomic.Int64 {
	t.Helper()
	var builds atomic.Int64
	c := newTableCache(budget)
	c.build = func(n int, s float64) []float64 {
		builds.Add(1)
		if hook != nil {
			hook(n, s)
		}
		return zipfCDF(n, s)
	}
	prev := tables
	tables = c
	t.Cleanup(func() { tables = prev })
	return &builds
}

// cachedTable reports whether the current cache retains (n, s).
func cachedTable(n int, s float64) bool {
	tables.mu.Lock()
	defer tables.mu.Unlock()
	_, ok := tables.tables[zipfKey{n: n, s: math.Float64bits(s)}]
	return ok
}

// retainedBytes reports the current cache's retained table bytes.
func retainedBytes() int64 {
	tables.mu.Lock()
	defer tables.mu.Unlock()
	return tables.bytes
}
