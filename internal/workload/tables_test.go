package workload

import (
	"math"
	"testing"

	"rnuca/internal/stats"
)

// Every footprint is bounded by its address region: accepted at the
// limit, rejected one block past it.
func TestSpecFootprintRegionLimits(t *testing.T) {
	cases := []struct {
		name  string
		set   func(*Spec, int64)
		limit int64
	}{
		{"instruction", func(s *Spec, f int64) { s.InstrFootprint = f }, 768 << 20},
		{"private", func(s *Spec, f int64) { s.PrivatePerCore = f }, 256 << 20},
		{"shared", func(s *Spec, f int64) { s.SharedFootprint = f }, 2 << 30},
		{"shared read-only", func(s *Spec, f int64) { s.SharedROFootprint = f }, 1 << 30},
		{"per-thread private", func(s *Spec, f int64) {
			s.PrivateFootprints = make([]int64, s.Cores)
			for i := range s.PrivateFootprints {
				s.PrivateFootprints[i] = 1 << 20
			}
			s.PrivateFootprints[s.Cores-1] = f
		}, 256 << 20},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			s := OLTPDB2()
			c.set(&s, c.limit)
			if err := s.Validate(); err != nil {
				t.Fatalf("footprint at its %d-byte limit rejected: %v", c.limit, err)
			}
			s = OLTPDB2()
			c.set(&s, c.limit+blockBytes)
			if s.Validate() == nil {
				t.Fatalf("footprint %d past its %d-byte region accepted", c.limit+blockBytes, c.limit)
			}
		})
	}
}

// The whole catalog's distinct Zipf tables fit the table cache's
// budget, so a figure run never evicts and rebuilds a table.
func TestCatalogTablesFitBudget(t *testing.T) {
	type key struct {
		n int
		s uint64
	}
	sizes := map[key]int64{}
	specs := append(Primary(), Extended()...)
	specs = append(specs, MIXHetero(), MIXMigrating())
	for _, spec := range specs {
		for c := 0; c < spec.Cores; c++ {
			instr, priv, shared, ro := spec.ranks(c)
			for _, k := range []key{
				{instr, math.Float64bits(spec.InstrSkew)},
				{priv, math.Float64bits(spec.PrivateSkew)},
				{shared, math.Float64bits(spec.SharedSkew)},
				{ro, math.Float64bits(spec.SharedSkew)},
			} {
				sizes[k] = int64(k.n) * 8
			}
		}
	}
	var total int64
	for _, b := range sizes {
		total += b
	}
	t.Logf("catalog: %d distinct tables, %.1f MB", len(sizes), float64(total)/(1<<20))
	if total > stats.ZipfTableBudget {
		t.Fatalf("catalog needs %d bytes of distinct tables (%d tables), budget %d",
			total, len(sizes), stats.ZipfTableBudget)
	}
}

// coldRuns makes every run of TestStreamsColdAndWarmCacheIdentical ask
// for tables no earlier test or run in the process has built.
var coldRuns int

// Streams built while the table cache is cold and again once it is warm
// produce identical reference sequences on every core.
func TestStreamsColdAndWarmCacheIdentical(t *testing.T) {
	coldRuns++
	spec := OLTPDB2()
	nudge := 1e-9 * float64(coldRuns)
	spec.InstrSkew += nudge
	spec.PrivateSkew += nudge
	spec.SharedSkew += nudge
	cold := Streams(spec)
	warm := Streams(spec)
	for c := range cold {
		for i := 0; i < 10_000; i++ {
			if a, b := cold[c].Next(), warm[c].Next(); a != b {
				t.Fatalf("core %d ref %d: cold cache %+v, warm cache %+v", c, i, a, b)
			}
		}
	}
}
