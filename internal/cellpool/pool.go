// Package cellpool is the process's one bound on running simulation
// cells. A cell is one chassis build plus one Engine.Run: it holds a
// slot from Acquire for its whole run, and there are GOMAXPROCS
// slots, so the process never holds more live chassis than it has
// processors, whatever mix of comparisons, batched runs, serve jobs
// and figure campaigns asks for cells.
//
// Only a leaf cell takes a slot. A maker's batches run through Stream,
// which folds their results in index order; work that fans out to
// independent units (a job's makers, serve's compare designs, a
// campaign's figure cells) runs through Each. Neither holds a slot
// itself, so a fan-out never waits for a slot its own cells need, and
// nesting cannot deadlock. The slots are process-wide state by
// design: one bound for every caller.
package cellpool

import (
	"context"
	"runtime"
	"sync/atomic"

	"rnuca/internal/obs"
)

// slots is the counting semaphore: a running cell holds one element
// of its buffer. SetWidth replaces it.
var slots = make(chan struct{}, runtime.GOMAXPROCS(0))

// waiting counts the cells blocked in Acquire.
var waiting atomic.Int64

// Width returns how many cells the process runs at once: GOMAXPROCS
// at start-up.
func Width() int { return cap(slots) }

// Running returns how many cells hold a slot now.
func Running() int { return len(slots) }

// Waiting returns how many cells are waiting for a slot now.
func Waiting() int { return int(waiting.Load()) }

// SetWidth makes the pool run n cells at once and returns a func that
// restores the previous width. It exists for tests that compare
// widths; call both while no cell holds or waits for a slot.
func SetWidth(n int) (restore func()) {
	prev := slots
	slots = make(chan struct{}, n)
	return func() { slots = prev }
}

// Acquire takes a cell slot, waiting while all Width() are held. A
// cell that has to wait records the wait as a "cell.wait" span on
// ctx's trace. If ctx has ended or ends first, Acquire returns its
// cause and no slot. Otherwise release returns the slot; call it once.
func Acquire(ctx context.Context) (release func(), err error) {
	if ctx.Err() != nil {
		return nil, context.Cause(ctx)
	}
	s := slots
	release = func() { <-s }
	select {
	case s <- struct{}{}:
		return release, nil
	default:
	}
	waiting.Add(1)
	defer waiting.Add(-1)
	sp := obs.StartSpan(ctx, "cell.wait")
	defer sp.End()
	select {
	case s <- struct{}{}:
		return release, nil
	case <-ctx.Done():
		return nil, context.Cause(ctx)
	}
}

// Stream runs calls 0..n-1, call i by run(i), and hands each result to
// fold on the caller's goroutine in index order. Call i starts only
// once call i-width has been folded, so no more than width calls are
// outstanding — running, or finished and held for an earlier one —
// whatever n is. No call starts once fold returns false. A single
// call runs on the caller's goroutine; a panic in any other is
// re-raised on the caller's, the lowest index first, once the started
// calls have finished.
func Stream[T any](n, width int, run func(i int) T, fold func(i int, v T) bool) {
	if n == 1 {
		fold(0, run(0))
		return
	}
	type out struct {
		i     int
		v     T
		panic any
	}
	width = min(n, width)
	done := make(chan out, width) // room for every outstanding call's send
	held := make([]*out, width)   // call i's result at i%width until folded
	started, folded, stop := 0, 0, false
	var panicked any
	for {
		for ; !stop && started < n && started < folded+width; started++ {
			go func(i int) {
				o := out{i: i}
				defer func() {
					o.panic = recover()
					done <- o
				}()
				o.v = run(i)
			}(started)
		}
		if folded == started {
			break
		}
		o := <-done
		held[o.i%width] = &o
		for ; folded < started && held[folded%width] != nil; folded++ {
			h := held[folded%width]
			held[folded%width] = nil
			switch {
			case h.panic != nil:
				if panicked == nil {
					panicked = h.panic
				}
				stop = true
			case !stop && !fold(h.i, h.v):
				stop = true
			}
		}
	}
	if panicked != nil {
		panic(panicked)
	}
}

// Each calls fn(i) for every i in [0, n) concurrently and returns when
// every call has returned. The calls hold no slot; their leaf cells
// take their own. A panic in any call is re-raised on the caller's
// goroutine once every call has returned, so a caller that recovers
// panics still sees it.
func Each(n int, fn func(i int)) {
	Stream(n, n, func(i int) struct{} {
		fn(i)
		return struct{}{}
	}, func(int, struct{}) bool { return true })
}
