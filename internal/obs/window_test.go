package obs

import (
	"encoding/json"
	"math"
	"math/rand"
	"sort"
	"testing"
	"time"
)

// relBound is the latency layout's relative error bound: adjacent
// bounds are 2^(1/8) apart.
var relBound = math.Exp2(1.0/8) - 1

var t0 = time.Unix(1_700_000_000, 0)

// TestLatencyLayout pins the layout's promises: 1µs to at least an
// hour, adjacent bounds at most 10% apart.
func TestLatencyLayout(t *testing.T) {
	b := latencyBounds
	if b[0] != 1e-6 || b[len(b)-1] < 3600 {
		t.Fatalf("layout spans [%v, %v], want [1e-6, >= 3600]", b[0], b[len(b)-1])
	}
	for i := 1; i < len(b); i++ {
		if r := b[i] / b[i-1]; r > 1.1 || r <= 1 {
			t.Fatalf("bounds %v, %v are %v apart", b[i-1], b[i], r)
		}
	}
}

// TestAdversarialStreams: sorted, reversed, constant, bimodal and
// heavy-tailed streams — orderings and shapes that break naive
// streaming estimators — all land within the layout's relative bound
// of the exact order statistic.
func TestAdversarialStreams(t *testing.T) {
	const n = 50000
	r := rand.New(rand.NewSource(7))
	streams := map[string]func(i int) float64{
		"sorted":   func(i int) float64 { return float64(i+1) * 1e-4 },
		"reversed": func(i int) float64 { return float64(n-i) * 1e-4 },
		"constant": func(int) float64 { return 0.042 },
		// 90% at 1ms, 10% at 1s, interleaved: p50 sits on the low mode,
		// p99 on the high one.
		"bimodal": func(i int) float64 {
			if i%10 == 9 {
				return 1
			}
			return 0.001
		},
		// Pareto with shape 1.1 from 100µs: a tail spanning decades.
		"heavy-tailed": func(int) float64 { return 1e-4 * math.Pow(1-r.Float64(), -1/1.1) },
	}
	for _, name := range []string{"sorted", "reversed", "constant", "bimodal", "heavy-tailed"} {
		t.Run(name, func(t *testing.T) {
			w := NewWindow()
			vals := make([]float64, n)
			for i := range vals {
				vals[i] = streams[name](i)
				w.Observe(t0, vals[i])
			}
			sort.Float64s(vals)
			s := w.Snapshot(t0)
			for _, c := range []struct{ q, got float64 }{
				{0.5, s.P50}, {0.9, s.P90}, {0.95, s.P95}, {0.99, s.P99},
			} {
				exact := vals[int(math.Ceil(c.q*n))-1]
				if math.Abs(c.got-exact) > relBound*exact {
					t.Errorf("p%v = %v, exact order statistic %v (bound %.2f%%)",
						c.q*100, c.got, exact, relBound*100)
				}
			}
			if s.Count != n || s.Min != vals[0] || s.Max != vals[n-1] {
				t.Errorf("count/min/max = %d/%v/%v, want %d/%v/%v (exact)",
					s.Count, s.Min, s.Max, n, vals[0], vals[n-1])
			}
			if !(s.P50 <= s.P90 && s.P90 <= s.P95 && s.P95 <= s.P99 && s.P99 <= s.Max) {
				t.Errorf("quantiles not monotone: %+v", s)
			}
		})
	}
}

// TestWindowExactMinMax: a single spike is reported exactly by Max,
// however many smaller values share its buckets' window, and the
// quantiles never exceed it.
func TestWindowExactMinMax(t *testing.T) {
	w := NewWindow()
	w.Observe(t0, 1000)
	for i := 0; i < 10000; i++ {
		w.Observe(t0, 1)
	}
	s := w.Snapshot(t0)
	if s.Max != 1000 || s.Min != 1 {
		t.Errorf("min/max = %v/%v, want 1/1000", s.Min, s.Max)
	}
	// 10000 of 10001 values are 1: every quantile up to p99 stays in
	// 1's bucket, far from the spike.
	if math.Abs(s.P50-1) > relBound || math.Abs(s.P99-1) > relBound {
		t.Errorf("p50/p99 = %v/%v, want 1 within %.2f%%", s.P50, s.P99, relBound*100)
	}
}

// TestEmptyWindow: a window that has seen nothing snapshots to zeros,
// never NaN, and violates no threshold.
func TestEmptyWindow(t *testing.T) {
	w := NewWindow()
	if s := w.Snapshot(t0); s != (Snapshot{}) {
		t.Errorf("empty snapshot = %+v, want zero value", s)
	}
	if got := w.FractionBelow(t0, 1); got != 1 {
		t.Errorf("empty FractionBelow = %v, want 1", got)
	}
	if _, err := json.Marshal(w.Snapshot(t0)); err != nil {
		t.Errorf("empty snapshot does not marshal: %v", err)
	}
}

// TestWindowRotation: observations age out one sub-window at a time
// and vanish entirely once the whole span has passed.
func TestWindowRotation(t *testing.T) {
	w := NewWindow()
	for i := 0; i < 50; i++ {
		w.Observe(t0, 1)
	}
	if got := w.Snapshot(t0).Count; got != 50 {
		t.Fatalf("count = %d, want 50", got)
	}

	// Next sub-window: new values merge with the old ones.
	at := t0.Add(10 * time.Second)
	for i := 0; i < 30; i++ {
		w.Observe(at, 100)
	}
	s := w.Snapshot(at)
	if s.Count != 80 || s.Min != 1 || s.Max != 100 {
		t.Fatalf("merged snapshot = %+v, want count 80 min 1 max 100", s)
	}
	// 50/80 observations are 1s: the median is still on the old mode.
	if math.Abs(s.P50-1) > relBound {
		t.Errorf("merged p50 = %v, want 1 within %.2f%%", s.P50, relBound*100)
	}

	// A minute after the first sub-window opened, it falls off the
	// ring; only the 100s remain.
	at = t0.Add(WindowSpan)
	w.Observe(at, 100)
	s = w.Snapshot(at)
	if s.Count != 31 || s.Min != 100 {
		t.Fatalf("after aging: %+v, want count 31 min 100", s)
	}

	// Idle past the whole span: everything ages out.
	at = at.Add(WindowSpan)
	if s := w.Snapshot(at); s != (Snapshot{}) {
		t.Fatalf("after idle span: %+v, want zero value", s)
	}
	if got := w.FractionBelow(at, 1); got != 1 {
		t.Errorf("after idle span: FractionBelow = %v, want 1", got)
	}
}

// TestWindowRotationBoundary: a sub-window ages out exactly when the
// window's span has passed since it opened, not a moment before.
func TestWindowRotationBoundary(t *testing.T) {
	w := NewWindow()
	w.Observe(t0, 1)
	at := t0.Add(WindowSpan - time.Millisecond)
	w.Observe(at, 2)
	if s := w.Snapshot(at); s.Count != 2 || s.Min != 1 {
		t.Fatalf("just inside the span: %+v, want count 2 min 1", s)
	}
	at = t0.Add(WindowSpan)
	w.Observe(at, 3)
	if s := w.Snapshot(at); s.Count != 2 || s.Min != 2 || s.Max != 3 {
		t.Fatalf("on the boundary: %+v, want count 2 min 2 max 3", s)
	}
	// A time before the current sub-window opened (a caller that read
	// the clock, then waited for the lock) lands in the current one.
	w.Observe(at.Add(-time.Second), 4)
	if s := w.Snapshot(at); s.Count != 3 || s.Max != 4 {
		t.Fatalf("late arrival: %+v, want count 3 max 4", s)
	}
}

// TestWindowMergeIsExact: after many rotations, including idle gaps
// that empty the whole window, a window's merged state equals one
// Histogram fed only the live sub-windows' values — the same bucket
// counts and the same snapshot, bit for bit.
func TestWindowMergeIsExact(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	w := NewWindow()
	type obsAt struct {
		at time.Time
		v  float64
	}
	var fed []obsAt
	at := t0
	for i := 0; i < 5000; i++ {
		at = at.Add(time.Duration(r.Int63n(int64(3 * time.Second))))
		if r.Intn(100) == 0 {
			at = at.Add(WindowSpan + 5*time.Second)
		}
		// Dyadic values keep every partial sum exact, so the mean
		// compares bit for bit too.
		v := float64(1+r.Intn(1<<21)) / 1024
		w.Observe(at, v)
		fed = append(fed, obsAt{at, v})
	}

	// The window's sub-windows open on a 10s grid from its first
	// observation: the live ones are the current slot and the five
	// before it.
	slot := func(t time.Time) int64 { return int64(t.Sub(fed[0].at) / windowWidth) }
	h := NewLatencyHistogram()
	for _, o := range fed {
		if slot(o.at) > slot(at)-windowSubs {
			h.Observe(o.v)
		}
	}
	if h.Count() == 0 || h.Count() == uint64(len(fed)) {
		t.Fatalf("%d of %d values live: the feed does not exercise rotation", h.Count(), len(fed))
	}
	m := w.merged(at)
	for i, c := range h.h.counts {
		if m.counts[i] != c {
			t.Fatalf("bucket %d: window %d, histogram %d", i, m.counts[i], c)
		}
	}
	if got, want := w.Snapshot(at), h.Snapshot(); got != want {
		t.Errorf("window snapshot differs from the histogram of its live values:\n%+v\n%+v", got, want)
	}
}

// TestFractionBelow covers the SLO-attainment primitive.
func TestFractionBelow(t *testing.T) {
	w := NewWindow()
	if got := w.FractionBelow(t0, 1); got != 1 {
		t.Errorf("empty window FractionBelow = %v, want 1", got)
	}
	for i := 0; i < 90; i++ {
		w.Observe(t0, 0.010)
	}
	for i := 0; i < 10; i++ {
		w.Observe(t0, 0.500)
	}
	for _, c := range []struct{ x, want float64 }{
		{0.1, 0.9}, // no observation shares 0.1's bucket: exact
		{0.001, 0}, // below Min
		{0.5, 1},   // at Max
		{1, 1},     // above Max
		{3e4, 1},   // beyond the last finite bound
		{-1, 0},    // below every bucket
	} {
		if got := w.FractionBelow(t0, c.x); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("FractionBelow(%v) = %v, want %v", c.x, got, c.want)
		}
	}

	// On a spread-out stream the estimate interpolates inside x's
	// bucket, so it lies between the exact fractions at the bucket's
	// edges, and it never decreases in x.
	w = NewWindow()
	var vals []float64
	for i := 1; i <= 1000; i++ {
		vals = append(vals, float64(i)*1e-3)
		w.Observe(t0, vals[len(vals)-1])
	}
	exact := func(x float64) float64 {
		return float64(sort.Search(len(vals), func(i int) bool { return vals[i] > x })) / float64(len(vals))
	}
	prev := 0.0
	for x := 0.0005; x < 1.1; x *= 1.03 {
		got := w.FractionBelow(t0, x)
		i := sort.SearchFloat64s(latencyBounds, x)
		if lo, hi := exact(latencyBounds[i-1]), exact(latencyBounds[i]); got < lo || got > hi {
			t.Errorf("FractionBelow(%v) = %v outside its bucket's [%v, %v]", x, got, lo, hi)
		}
		if got < prev {
			t.Errorf("FractionBelow(%v) = %v decreased from %v", x, got, prev)
		}
		prev = got
	}
}
