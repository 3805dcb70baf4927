package main

import (
	"math"
	"sort"
	"time"
)

// tailMin is how many samples must lie beyond a percentile before it is
// reported: a p90 over fewer than 100 samples would rest on fewer than
// ten observations and is omitted instead.
const tailMin = 10

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median returns the middle value (the mean of the two middle values
// for an even count); NaN for no samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the three cut points of Python's
// statistics.quantiles(xs, n=4) (the default "exclusive" method), so
// the spread printed here is the one the run-to-run check computes.
// It needs at least two samples.
func quartiles(xs []float64) (q1, q2, q3 float64, ok bool) {
	s := sorted(xs)
	n := len(s)
	if n < 2 {
		return 0, 0, 0, false
	}
	m := n + 1
	var q [3]float64
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*m - j*4)
		q[i-1] = (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q[0], q[1], q[2], true
}

// percentile returns the nearest-rank p-quantile (0 < p < 1) when at
// least tailMin samples lie beyond it. The value is always an observed
// sample, never an extrapolation; ok is false when the tail is too thin
// to report.
func percentile(xs []float64, p float64) (v float64, beyond int, ok bool) {
	s := sorted(xs)
	n := len(s)
	if n == 0 {
		return 0, 0, false
	}
	idx := int(math.Ceil(p*float64(n))) - 1
	if idx < 0 {
		idx = 0
	}
	beyond = n - 1 - idx
	return s[idx], beyond, beyond >= tailMin
}

// interval is a span of wall-clock time.
type interval struct{ start, end time.Time }

// covered returns the length of the union of the intervals that fall
// inside [lo, hi]: the wall time at least one of them accounts for,
// however they nest or overlap.
func covered(lo, hi time.Time, ivs []interval) time.Duration {
	var clipped []interval
	for _, iv := range ivs {
		if iv.start.Before(lo) {
			iv.start = lo
		}
		if iv.end.After(hi) {
			iv.end = hi
		}
		if iv.end.After(iv.start) {
			clipped = append(clipped, iv)
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i].start.Before(clipped[j].start) })
	var total time.Duration
	var cur interval
	for i, iv := range clipped {
		switch {
		case i == 0:
			cur = iv
		case !iv.start.After(cur.end):
			if iv.end.After(cur.end) {
				cur.end = iv.end
			}
		default:
			total += cur.end.Sub(cur.start)
			cur = iv
		}
	}
	if len(clipped) > 0 {
		total += cur.end.Sub(cur.start)
	}
	return total
}
