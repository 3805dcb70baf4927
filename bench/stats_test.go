package main

import (
	"math"
	"testing"
	"time"
)

// TestQuartilesMatchPython pins quartiles to Python's
// statistics.quantiles(xs, n=4), which the run-to-run spread check uses.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want [3]float64
		med  float64
	}{
		{[]float64{1, 2, 3, 4}, [3]float64{1.25, 2.5, 3.75}, 2.5},
		{[]float64{5, 1, 4, 2, 3}, [3]float64{1.5, 3, 4.5}, 3},
		{[]float64{10, 20}, [3]float64{7.5, 15, 22.5}, 15},
		{[]float64{0.5, 0.25, 0.125, 2, 9, 7, 3.5, 1, 8, 6}, [3]float64{0.4375, 2.75, 7.25}, 2.75},
	} {
		q1, q2, q3, ok := quartiles(c.xs)
		if !ok || math.Abs(q1-c.want[0]) > 1e-12 || math.Abs(q2-c.want[1]) > 1e-12 || math.Abs(q3-c.want[2]) > 1e-12 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v", c.xs, q1, q2, q3, c.want)
		}
		if m := median(c.xs); m != c.med {
			t.Errorf("median(%v) = %v, want %v", c.xs, m, c.med)
		}
	}
	if _, _, _, ok := quartiles([]float64{1}); ok {
		t.Error("quartiles of one sample reported")
	}
	if !math.IsNaN(median(nil)) {
		t.Error("median of no samples is not NaN")
	}
}

// TestPercentileNeedsTenBeyond: a percentile is reported only with at
// least ten samples beyond it, and is always an observed sample.
func TestPercentileNeedsTenBeyond(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // reversed, so sorting matters
		}
		return xs
	}
	v, beyond, ok := percentile(seq(100), 0.9)
	if !ok || v != 90 || beyond != 10 {
		t.Errorf("p90 of 1..100 = %v (%d beyond, ok %v), want 90 with 10 beyond", v, beyond, ok)
	}
	if _, beyond, ok := percentile(seq(99), 0.9); ok || beyond != 9 {
		t.Errorf("p90 of 99 samples reported (%d beyond); needs 10", beyond)
	}
	if _, _, ok := percentile(seq(1000), 0.99); !ok {
		t.Error("p99 of 1000 samples omitted")
	}
	if _, _, ok := percentile(seq(999), 0.99); ok {
		t.Error("p99 of 999 samples reported")
	}
	if _, _, ok := percentile(nil, 0.5); ok {
		t.Error("percentile of no samples reported")
	}
	// Never extrapolated: every reported value is one of the samples.
	xs := []float64{0.3, 7.1, 2.2, 9.9, 5.5, 1.0, 8.8, 4.4, 6.6, 3.3, 0.1, 2.9}
	v, _, ok = percentile(xs, 0.05)
	if !ok || v != 0.1 {
		t.Errorf("p5 = %v (ok %v), want the smallest sample 0.1", v, ok)
	}
}

func TestTailMetricNotesOmission(t *testing.T) {
	m := tailMetric("job_p90_s", []float64{1, 2, 3}, 0.9)
	if m.Note == "" || m.N != 3 {
		t.Errorf("p90 of 3 samples: %+v, want an omission note", m)
	}
}

// TestCoveredUnion: stage coverage is the union of the intervals inside
// the window, so nested and overlapping spans count once.
func TestCoveredUnion(t *testing.T) {
	t0 := time.Unix(0, 0)
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	ivs := []interval{
		{at(10), at(40)}, // a cell...
		{at(20), at(30)}, // ...and a span nested in it
		{at(35), at(50)}, // overlapping the first
		{at(70), at(80)},
		{at(90), at(130)}, // clipped at the window's end
	}
	if got := covered(at(0), at(100), ivs); got != 60*time.Millisecond {
		t.Errorf("covered = %v, want 60ms", got)
	}
	if got := covered(at(0), at(100), nil); got != 0 {
		t.Errorf("covered by nothing = %v", got)
	}
}
