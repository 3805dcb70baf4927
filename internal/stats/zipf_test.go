package stats

import (
	"math"
	"sync"
	"testing"
	"time"
)

// referenceCDF is the Zipf CDF computed from scratch, independently of
// the table cache.
func referenceCDF(n int, s float64) []float64 {
	cdf := make([]float64, n)
	sum := 0.0
	for i := range cdf {
		sum += 1.0 / math.Pow(float64(i+1), s)
		cdf[i] = sum
	}
	for i := range cdf {
		cdf[i] *= 1.0 / sum
	}
	return cdf
}

func TestZipfTableMatchesReference(t *testing.T) {
	freshTables(t, ZipfTableBudget, nil)
	cases := []struct {
		n int
		s float64
	}{{1, 0}, {1, 1.2}, {7, 0}, {100, 0.99}, {4096, 0.5}, {20480, 1.1}}
	for _, c := range cases {
		want := referenceCDF(c.n, c.s)
		// The first call builds the table, the second reads it back.
		for pass := 0; pass < 2; pass++ {
			got := NewZipf(NewRNG(1), c.n, c.s).cdf
			if len(got) != len(want) {
				t.Fatalf("(%d, %v): %d ranks, want %d", c.n, c.s, len(got), len(want))
			}
			for i := range want {
				if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
					t.Fatalf("(%d, %v) pass %d: cdf[%d] = %v, want %v", c.n, c.s, pass, i, got[i], want[i])
				}
			}
		}
	}
}

func TestZipfSharesTablesNotDraws(t *testing.T) {
	builds := freshTables(t, ZipfTableBudget, nil)
	a := NewZipf(NewRNG(1), 500, 0.8)
	b := NewZipf(NewRNG(2), 500, 0.8)
	if &a.cdf[0] != &b.cdf[0] {
		t.Fatal("two Zipfs over one (n, s) hold separate tables")
	}
	if n := builds.Load(); n != 1 {
		t.Fatalf("%d builds for one (n, s), want 1", n)
	}
	same := 0
	for i := 0; i < 1000; i++ {
		if a.Draw() == b.Draw() {
			same++
		}
	}
	if same > 500 {
		t.Fatalf("differently seeded Zipfs drew the same rank %d/1000 times", same)
	}
}

func TestZipfConcurrentRequestsBuildOnce(t *testing.T) {
	release := make(chan struct{})
	builds := freshTables(t, ZipfTableBudget, func(n int, s float64) {
		if n == 3000 {
			<-release
		}
	})
	const workers = 8
	var wg sync.WaitGroup
	got := make([]*Zipf, workers)
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i] = NewZipf(NewRNG(uint64(i)), 3000, 0.9)
		}(i)
	}
	// While that build is held, an unrelated key must not wait behind it.
	other := make(chan *Zipf)
	go func() { other <- NewZipf(NewRNG(0), 10, 0.9) }()
	select {
	case <-other:
	case <-time.After(10 * time.Second):
		t.Fatal("an unrelated table waited behind an in-flight build")
	}
	time.Sleep(10 * time.Millisecond) // let the workers reach the in-flight entry
	close(release)
	wg.Wait()
	if n := builds.Load(); n != 2 {
		t.Fatalf("%d builds, want 2 (one per distinct key)", n)
	}
	for i, z := range got {
		if &z.cdf[0] != &got[0].cdf[0] {
			t.Fatalf("worker %d got its own table", i)
		}
	}
}

func TestZipfTableCacheEvictsLRU(t *testing.T) {
	const n = 1000
	builds := freshTables(t, 3*n*8, nil)
	before := NewZipf(NewRNG(5), n, 0.7)
	NewZipf(NewRNG(0), n, 0.5)
	NewZipf(NewRNG(0), n, 0.9)
	if got := retainedBytes(); got != 3*n*8 {
		t.Fatalf("retained %d bytes, want %d", got, 3*n*8)
	}
	NewZipf(NewRNG(0), n, 0.7) // touch: 0.5 is now least recently used
	NewZipf(NewRNG(0), n, 1.1) // over budget: evicts 0.5
	if cachedTable(n, 0.5) {
		t.Fatal("least recently used table survived eviction")
	}
	for _, s := range []float64{0.7, 0.9, 1.1} {
		if !cachedTable(n, s) {
			t.Fatalf("table (%d, %v) evicted out of LRU order", n, s)
		}
	}
	if got := retainedBytes(); got != 3*n*8 {
		t.Fatalf("retained %d bytes after eviction, want %d", got, 3*n*8)
	}
	if b := builds.Load(); b != 4 {
		t.Fatalf("%d builds, want 4", b)
	}

	// A Zipf built after its table was evicted draws what one built
	// before the eviction does.
	NewZipf(NewRNG(0), n, 1.3) // evicts 0.9
	NewZipf(NewRNG(0), n, 1.5) // evicts 0.7
	if cachedTable(n, 0.7) {
		t.Fatal("table (1000, 0.7) still cached")
	}
	after := NewZipf(NewRNG(5), n, 0.7)
	if &after.cdf[0] == &before.cdf[0] {
		t.Fatal("evicted table was not rebuilt")
	}
	for i := 0; i < 10_000; i++ {
		if x, y := before.Draw(), after.Draw(); x != y {
			t.Fatalf("draw %d: %d before eviction, %d after", i, x, y)
		}
	}
}

func TestZipfOversizeTableNotRetained(t *testing.T) {
	const budget = 1000 * 8
	builds := freshTables(t, budget, nil)
	a := NewZipf(NewRNG(0), 1001, 0.9)
	b := NewZipf(NewRNG(0), 1001, 0.9)
	if cachedTable(1001, 0.9) || retainedBytes() != 0 {
		t.Fatal("a table larger than the budget was retained")
	}
	if n := builds.Load(); n != 2 {
		t.Fatalf("%d builds for two oversize requests, want 2", n)
	}
	for i := 0; i < 1000; i++ {
		if a.Draw() != b.Draw() {
			t.Fatalf("draw %d differs between two oversize Zipfs", i)
		}
	}
	// At exactly the budget the table is retained.
	NewZipf(NewRNG(0), 1000, 0.9)
	if !cachedTable(1000, 0.9) || retainedBytes() != budget {
		t.Fatal("a table of exactly the budget was not retained")
	}
}
