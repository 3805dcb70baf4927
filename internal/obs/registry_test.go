package obs

import (
	"math"
	"strings"
	"sync"
	"testing"
)

// The golden test freezes the text exposition format: every consumer
// (serve's /metrics scrape, the tests that parse it by line prefix)
// depends on this exact shape.
func TestWriteTextGolden(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("jobs_total", "Jobs seen.")
	c.Add(3)
	g := reg.Gauge("queue_depth", "Jobs queued.")
	g.Set(-2)
	v := reg.CounterVec("cache_ops_total", "Cache operations.", "op")
	v.With("hit").Add(5)
	v.With("miss").Inc()
	h := reg.Histogram("latency_seconds", "Latency.", []float64{0.1, 1})
	h.Observe(0.05)
	h.Observe(0.5)
	h.Observe(7)
	hv := reg.HistogramVec("wait_seconds", "Wait.", []float64{1}, "kind")
	hv.With("sim").Observe(0.25)

	var b strings.Builder
	if err := reg.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	want := `# HELP jobs_total Jobs seen.
# TYPE jobs_total counter
jobs_total 3
# HELP queue_depth Jobs queued.
# TYPE queue_depth gauge
queue_depth -2
# HELP cache_ops_total Cache operations.
# TYPE cache_ops_total counter
cache_ops_total{op="hit"} 5
cache_ops_total{op="miss"} 1
# HELP latency_seconds Latency.
# TYPE latency_seconds histogram
latency_seconds_bucket{le="0.1"} 1
latency_seconds_bucket{le="1"} 2
latency_seconds_bucket{le="+Inf"} 3
latency_seconds_sum 7.55
latency_seconds_count 3
# HELP wait_seconds Wait.
# TYPE wait_seconds histogram
wait_seconds_bucket{kind="sim",le="1"} 1
wait_seconds_bucket{kind="sim",le="+Inf"} 1
wait_seconds_sum{kind="sim"} 0.25
wait_seconds_count{kind="sim"} 1
`
	if got := b.String(); got != want {
		t.Fatalf("encoding drifted:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

// A family with no children yet (a vec nobody touched) renders
// nothing — no dangling TYPE headers.
func TestWriteTextSkipsEmptyFamilies(t *testing.T) {
	reg := NewRegistry()
	reg.CounterVec("unused_total", "Never incremented.", "kind")
	var b strings.Builder
	if err := reg.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	if b.Len() != 0 {
		t.Fatalf("empty vec rendered %q", b.String())
	}
}

// Histogram boundaries follow Prometheus le semantics: an observation
// equal to a bound lands in that bound's bucket.
func TestHistogramBucketBoundaries(t *testing.T) {
	h := newHistogram([]float64{1, 2, 4})
	for _, v := range []float64{0.5, 1, 1.0000001, 2, 4, 4.5} {
		h.Observe(v)
	}
	// raw (non-cumulative) counts per bucket: le=1, le=2, le=4, +Inf
	want := []uint64{2, 2, 1, 1}
	for i, w := range want {
		if h.h.counts[i] != w {
			t.Fatalf("bucket %d count = %d, want %d (all %v)", i, h.h.counts[i], w, h.h.counts)
		}
	}
	if h.Count() != 6 {
		t.Fatalf("count = %d", h.Count())
	}
	if got := h.Sum(); got < 13 || got > 13.001 {
		t.Fatalf("sum = %v", got)
	}
}

func TestHistogramRejectsUnsortedBuckets(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("unsorted buckets must panic")
		}
	}()
	newHistogram([]float64{1, 1})
}

func TestDuplicateNamePanics(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("x_total", "")
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate registration must panic")
		}
	}()
	reg.Gauge("x_total", "")
}

func TestLabelEscaping(t *testing.T) {
	reg := NewRegistry()
	reg.CounterVec("esc_total", "", "p").With(`a"b\c` + "\n").Inc()
	var b strings.Builder
	if err := reg.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	want := `esc_total{p="a\"b\\c\n"} 1`
	if !strings.Contains(b.String(), want) {
		t.Fatalf("got %q, want line %q", b.String(), want)
	}
}

// OnCollect hooks run before encoding, under the render lock, so a
// hook-maintained family is consistent within one scrape.
func TestOnCollectRunsBeforeRender(t *testing.T) {
	reg := NewRegistry()
	a := reg.Gauge("a", "")
	b := reg.Gauge("b", "")
	n := int64(0)
	reg.OnCollect(func() {
		n++
		a.Set(n)
		b.Set(-n)
	})
	var out strings.Builder
	if err := reg.WriteText(&out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "a 1\n") || !strings.Contains(out.String(), "b -1\n") {
		t.Fatalf("hook did not run before render:\n%s", out.String())
	}
}

// ExpBuckets is the layout constructor everything uses; pin its shape.
func TestExpBuckets(t *testing.T) {
	got := ExpBuckets(0.001, 2, 4)
	want := []float64{0.001, 0.002, 0.004, 0.008}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("bucket %d = %v, want %v", i, got[i], want[i])
		}
	}
	if b := DefSecondsBuckets(); len(b) != 19 || b[0] != 0.001 {
		t.Fatalf("default layout drifted: %v", b)
	}
}

// Metrics are safe for concurrent use with rendering (backed by the
// race detector in CI).
func TestConcurrentUse(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("n_total", "")
	h := reg.HistogramVec("h_seconds", "", []float64{1}, "k")
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 500; j++ {
				c.Inc()
				h.With("a").Observe(float64(j))
				if j%100 == 0 {
					var b strings.Builder
					_ = reg.WriteText(&b)
				}
			}
		}(i)
	}
	wg.Wait()
	if c.Value() != 8*500 {
		t.Fatalf("count = %d", c.Value())
	}
}

// TestHistogramQuantile pins the monotone-interpolation arithmetic on
// a hand-checkable layout.
func TestHistogramQuantile(t *testing.T) {
	reg := NewRegistry()
	h := reg.Histogram("q_seconds", "", []float64{1, 2, 4})

	if !math.IsNaN(h.Quantile(0.5)) {
		t.Fatalf("empty histogram Quantile = %v, want NaN", h.Quantile(0.5))
	}

	// Four observations in the (1, 2] bucket: rank q*4 interpolates
	// linearly across that bucket.
	for i := 0; i < 4; i++ {
		h.Observe(1.5)
	}
	if got := h.Quantile(0.5); got != 1.5 {
		t.Errorf("Quantile(0.5) = %v, want 1.5", got)
	}
	if got := h.Quantile(0.25); got != 1.25 {
		t.Errorf("Quantile(0.25) = %v, want 1.25", got)
	}
	if got := h.Quantile(1); got != 2 {
		t.Errorf("Quantile(1) = %v, want 2 (bucket upper bound)", got)
	}

	// First bucket interpolates from a lower edge of 0.
	h2 := reg.Histogram("q2_seconds", "", []float64{1, 2})
	h2.Observe(0.5)
	h2.Observe(0.5)
	if got := h2.Quantile(0.5); got != 0.5 {
		t.Errorf("first-bucket Quantile(0.5) = %v, want 0.5", got)
	}

	// A rank in the +Inf bucket clamps to the largest finite bound.
	h3 := reg.Histogram("q3_seconds", "", []float64{1, 2})
	h3.Observe(100)
	if got := h3.Quantile(0.99); got != 2 {
		t.Errorf("+Inf-bucket Quantile = %v, want 2", got)
	}

	for _, bad := range []float64{-0.1, 1.1, math.NaN()} {
		if !math.IsNaN(h.Quantile(bad)) {
			t.Errorf("Quantile(%v) = %v, want NaN", bad, h.Quantile(bad))
		}
	}
}

// TestHistogramQuantileAccuracyAndMonotonicity: on a uniform stream
// the estimate stays within one bucket of truth and never decreases
// in q.
func TestHistogramQuantileAccuracyAndMonotonicity(t *testing.T) {
	reg := NewRegistry()
	h := reg.Histogram("qa_seconds", "", DefSecondsBuckets())
	// Uniform over (0, 1]: true q-quantile is q.
	const n = 10000
	for i := 1; i <= n; i++ {
		h.Observe(float64(i) / n)
	}
	prev := math.Inf(-1)
	for q := 0.05; q <= 0.99; q += 0.01 {
		got := h.Quantile(q)
		if got < prev {
			t.Fatalf("Quantile not monotone: Quantile(%v) = %v < %v", q, got, prev)
		}
		prev = got
		// Power-of-two buckets: the estimate must sit within the bucket
		// holding the true quantile, i.e. within a factor of 2.
		if got < q/2 || got > 2*q {
			t.Errorf("Quantile(%.2f) = %v, outside [%v, %v]", q, got, q/2, 2*q)
		}
	}
}

// TestFloatGauge covers the float-valued gauge and its rendering.
func TestFloatGauge(t *testing.T) {
	reg := NewRegistry()
	g := reg.FloatGauge("lat_seconds", "A float level.")
	g.Set(0.125)
	if g.Value() != 0.125 {
		t.Fatalf("Value = %v", g.Value())
	}
	v := reg.FloatGaugeVec("latv_seconds", "Labeled float levels.", "kind", "q")
	v.With("sim", "p99").Set(0.25)
	var b strings.Builder
	if err := reg.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# TYPE lat_seconds gauge",
		"lat_seconds 0.125",
		`latv_seconds{kind="sim",q="p99"} 0.25`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
}
