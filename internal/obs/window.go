package obs

import (
	"math"
	"sort"
	"time"
)

// latencyBounds is the one bucket layout every latency quantile is
// computed over: 255 log-spaced upper bounds from 1µs, adjacent bounds
// 2^(1/8) (9.05%) apart, so the last finite bound is about 3612s. A
// quantile and the exact order statistic it estimates share a bucket,
// so they differ by less than 9.05% of the larger (by at most 1µs in
// the first bucket). Read-only after initialization.
var latencyBounds = ExpBuckets(1e-6, math.Exp2(1.0/8), 255)

// Window shape: a ring of windowSubs sub-histograms, each taking
// windowWidth of observations.
const (
	windowSubs  = 6
	windowWidth = 10 * time.Second
	// WindowSpan is the trailing history a Window summarizes.
	WindowSpan = windowSubs * windowWidth
)

// Snapshot summarizes a distribution: exact count, mean, min and max,
// and p50–p99 interpolated over the bucket layout and clamped to
// [Min, Max], so P50 <= P90 <= P95 <= P99 <= Max always holds. The
// zero value stands for no observations; it is never NaN, so it always
// marshals as JSON.
type Snapshot struct {
	Count uint64
	Mean  float64
	Min   float64
	Max   float64
	P50   float64
	P90   float64
	P95   float64
	P99   float64
}

// hist is a bucketed distribution with exact count, sum, min and max:
// the state of a Histogram and of each Window sub-window. It does no
// locking; the bounds it is observed and read over are its owner's.
type hist struct {
	counts   []uint64 // len(bounds)+1; the last is +Inf
	n        uint64
	sum      float64
	min, max float64
}

func (h *hist) observe(bounds []float64, v float64) {
	h.counts[sort.SearchFloat64s(bounds, v)]++ // first bound >= v
	if h.n == 0 || v < h.min {
		h.min = v
	}
	if h.n == 0 || v > h.max {
		h.max = v
	}
	h.n++
	h.sum += v
}

// add merges o into h. Bucket counts add exactly, so a merge of
// sub-histograms is the histogram of their union.
func (h *hist) add(o *hist) {
	if o.n == 0 {
		return
	}
	for i, c := range o.counts {
		h.counts[i] += c
	}
	if h.n == 0 || o.min < h.min {
		h.min = o.min
	}
	if h.n == 0 || o.max > h.max {
		h.max = o.max
	}
	h.n += o.n
	h.sum += o.sum
}

func (h *hist) reset() {
	clear(h.counts)
	*h = hist{counts: h.counts}
}

// quantile estimates the q-quantile (0 <= q <= 1) by monotone linear
// interpolation inside the bucket where the cumulative count crosses
// the target rank — the histogram_quantile estimate, and the one
// interpolation routine behind every quantile in this package. The
// first bucket interpolates from a lower edge of 0 (the layouts are
// for non-negative measurements); a rank landing in the +Inf bucket
// clamps to the highest finite bound. NaN when nothing was observed or
// q is outside [0, 1]. The estimate is monotone in q and exact at
// bucket boundaries; its error is bounded by the width of the bucket
// the quantile falls in.
func (h *hist) quantile(bounds []float64, q float64) float64 {
	if h.n == 0 || q < 0 || q > 1 || math.IsNaN(q) {
		return math.NaN()
	}
	rank := q * float64(h.n)
	cum := uint64(0)
	for i, b := range bounds {
		prev := cum
		cum += h.counts[i]
		if float64(cum) < rank {
			continue
		}
		lo := 0.0
		if i > 0 {
			lo = bounds[i-1]
		}
		if h.counts[i] == 0 {
			return lo
		}
		return lo + (b-lo)*(rank-float64(prev))/float64(h.counts[i])
	}
	return bounds[len(bounds)-1]
}

func (h *hist) snapshot(bounds []float64) Snapshot {
	if h.n == 0 {
		return Snapshot{}
	}
	q := func(p float64) float64 {
		return math.Min(math.Max(h.quantile(bounds, p), h.min), h.max)
	}
	return Snapshot{
		Count: h.n, Mean: h.sum / float64(h.n), Min: h.min, Max: h.max,
		P50: q(0.50), P90: q(0.90), P95: q(0.95), P99: q(0.99),
	}
}

// fractionBelow estimates the fraction of observations at or below x,
// interpolating inside x's bucket as quantile does (1 when empty:
// nothing exceeded the threshold). It is exact outside [min, max) and
// at bucket bounds.
func (h *hist) fractionBelow(bounds []float64, x float64) float64 {
	switch {
	case h.n == 0 || x >= h.max:
		return 1
	case x < h.min:
		return 0
	}
	i := sort.SearchFloat64s(bounds, x) // x's bucket
	below := 0.0
	for _, c := range h.counts[:i] {
		below += float64(c)
	}
	if i < len(bounds) {
		lo := 0.0
		if i > 0 {
			lo = bounds[i-1]
		}
		below += float64(h.counts[i]) * (x - lo) / (bounds[i] - lo)
	}
	return below / float64(h.n)
}

// Window is a sliding-window distribution over the latency layout: a
// ring of six sub-histograms of 10s each, so a query summarizes the
// trailing minute (WindowSpan) and old observations age out 10s at a
// time. A query adds the live sub-windows' bucket counts, an exact
// merge, before interpolating. Every method takes the current time,
// which keeps a Window a pure function of its inputs. A Window does no
// locking; callers serialize access.
type Window struct {
	subs  [windowSubs]hist
	cur   int       // subs[cur] takes new observations
	start time.Time // when subs[cur] opened; zero before the first call
}

// NewWindow returns an empty window.
func NewWindow() *Window {
	w := new(Window)
	n := len(latencyBounds) + 1
	counts := make([]uint64, windowSubs*n)
	for i := range w.subs {
		w.subs[i].counts = counts[i*n : (i+1)*n : (i+1)*n]
	}
	return w
}

// rotate advances the ring so that subs[cur] covers now, emptying each
// sub-window it moves onto; a window idle for its whole span empties
// completely. Times before the current sub-window's start (callers
// racing to the lock) land in the current sub-window.
func (w *Window) rotate(now time.Time) {
	if w.start.IsZero() {
		w.start = now
		return
	}
	steps := now.Sub(w.start) / windowWidth
	if steps <= 0 {
		return
	}
	for i := 0; i < int(min(steps, windowSubs)); i++ {
		w.cur = (w.cur + 1) % windowSubs
		w.subs[w.cur].reset()
	}
	w.start = w.start.Add(steps * windowWidth)
}

// Observe records one value at time now.
func (w *Window) Observe(now time.Time, v float64) {
	w.rotate(now)
	w.subs[w.cur].observe(latencyBounds, v)
}

// merged returns the sum of the sub-windows live at now.
func (w *Window) merged(now time.Time) *hist {
	w.rotate(now)
	m := &hist{counts: make([]uint64, len(latencyBounds)+1)}
	for i := range w.subs {
		m.add(&w.subs[i])
	}
	return m
}

// Snapshot summarizes the window at time now.
func (w *Window) Snapshot(now time.Time) Snapshot {
	return w.merged(now).snapshot(latencyBounds)
}

// FractionBelow estimates the fraction of the window's observations at
// or below x at time now — SLO attainment when x is the target. An
// empty window reports 1.
func (w *Window) FractionBelow(now time.Time, x float64) float64 {
	return w.merged(now).fractionBelow(latencyBounds, x)
}
