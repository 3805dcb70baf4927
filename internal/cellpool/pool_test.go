package cellpool

import (
	"context"
	"errors"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"rnuca/internal/obs"
)

// withProcs runs the test body under GOMAXPROCS n and a pool of that
// width.
func withProcs(t *testing.T, n int) {
	t.Helper()
	prev := runtime.GOMAXPROCS(n)
	restore := SetWidth(n)
	t.Cleanup(func() {
		restore()
		runtime.GOMAXPROCS(prev)
	})
}

// holdAll takes every slot and returns their release.
func holdAll(t *testing.T) func() {
	t.Helper()
	var rels []func()
	for i := 0; i < Width(); i++ {
		rel, err := Acquire(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		rels = append(rels, rel)
	}
	return func() {
		for _, rel := range rels {
			rel()
		}
	}
}

// waitFor polls until cond holds.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// However many cells ask at once, no more than Width hold a slot, and
// every one of them eventually gets one.
func TestPoolAcquireBoundsRunning(t *testing.T) {
	for _, procs := range []int{1, 3} {
		withProcs(t, procs)
		var cur, peak atomic.Int64
		var wg sync.WaitGroup
		for i := 0; i < 8*procs; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				rel, err := Acquire(context.Background())
				if err != nil {
					t.Error(err)
					return
				}
				defer rel()
				n := cur.Add(1)
				for p := peak.Load(); n > p && !peak.CompareAndSwap(p, n); p = peak.Load() {
				}
				time.Sleep(time.Millisecond)
				cur.Add(-1)
			}()
		}
		wg.Wait()
		if p := peak.Load(); p < 1 || p > int64(procs) {
			t.Errorf("GOMAXPROCS %d: %d cells held slots at once", procs, p)
		}
		if Running() != 0 || Waiting() != 0 {
			t.Errorf("GOMAXPROCS %d: %d running, %d waiting after every release", procs, Running(), Waiting())
		}
	}
}

// A cell waiting for a slot gives up as soon as its context ends,
// with the context's error, and leaves the queue; a cell whose
// context has already ended takes no slot even when one is free.
func TestPoolCancelWhileWaiting(t *testing.T) {
	withProcs(t, 2)
	release := holdAll(t)
	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() {
		rel, err := Acquire(ctx)
		if err == nil {
			rel()
		}
		errc <- err
	}()
	waitFor(t, "the cell to queue", func() bool { return Waiting() == 1 })
	cancel()
	select {
	case err := <-errc:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("canceled Acquire did not return")
	}
	if Waiting() != 0 {
		t.Fatalf("%d cells still waiting", Waiting())
	}
	release()
	if _, err := Acquire(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("Acquire on an ended context: err = %v", err)
	}
	if Running() != 0 {
		t.Fatalf("%d slots still held", Running())
	}
}

// A cell that waits records the wait as a cell.wait span; one that
// gets a slot at once records nothing.
func TestPoolRecordsCellWait(t *testing.T) {
	withProcs(t, 1)
	tr := obs.NewTrace(0)
	ctx := obs.ContextWithTrace(context.Background(), tr)
	rel, err := Acquire(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if n := len(tr.Spans()); n != 0 {
		t.Fatalf("an immediate slot recorded %d spans", n)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		rel2, err := Acquire(ctx)
		if err != nil {
			t.Error(err)
			return
		}
		rel2()
	}()
	waitFor(t, "the second cell to queue", func() bool { return Waiting() == 1 })
	rel()
	<-done
	spans := tr.Spans()
	if len(spans) != 1 || spans[0].Name != "cell.wait" {
		t.Fatalf("spans %+v, want one cell.wait", spans)
	}
}

// Each runs every index and re-raises the lowest-index panic on the
// caller's goroutine after all calls return.
func TestPoolEach(t *testing.T) {
	var ran [5]atomic.Bool
	Each(len(ran), func(i int) { ran[i].Store(true) })
	for i := range ran {
		if !ran[i].Load() {
			t.Fatalf("index %d never ran", i)
		}
	}
	Each(0, func(int) { t.Fatal("Each(0) called fn") })

	var finished atomic.Int64
	defer func() {
		p := recover()
		if s, ok := p.(string); !ok || !strings.HasPrefix(s, "boom 1") {
			t.Fatalf("recovered %v, want the index-1 panic", p)
		}
		if finished.Load() != 2 {
			t.Fatalf("%d calls finished before the re-panic, want 2", finished.Load())
		}
	}()
	Each(4, func(i int) {
		if i == 1 || i == 3 {
			panic("boom " + string(rune('0'+i)))
		}
		time.Sleep(5 * time.Millisecond)
		finished.Add(1)
	})
	t.Fatal("Each returned normally after a panic")
}

// Stream starts a call only while fewer than width are outstanding
// (running, or finished and held for an earlier call), hands the
// results to fold in index order whatever order they finish in, and
// folds every call exactly once.
func TestPoolStreamWindow(t *testing.T) {
	for _, tc := range []struct{ n, width int }{
		{1, 4}, {10, 1}, {10, 2}, {37, 3}, {40, 4}, {3, 8},
	} {
		var mu sync.Mutex
		started, folded, running, peakOut, peakRun := 0, 0, 0, 0, 0
		run := func(i int) int {
			mu.Lock()
			started++
			running++
			if out := started - folded; out > peakOut {
				peakOut = out
			}
			if running > peakRun {
				peakRun = running
			}
			mu.Unlock()
			// Later calls of each window finish first, so the window
			// fills with held results.
			time.Sleep(time.Duration(3-i%4) * time.Millisecond)
			mu.Lock()
			running--
			mu.Unlock()
			return i
		}
		Stream(tc.n, tc.width, run, func(i, v int) bool {
			mu.Lock()
			defer mu.Unlock()
			if i != v || i != folded {
				t.Errorf("%+v: folded call %d (result %d), want %d", tc, i, v, folded)
			}
			folded++
			return true
		})
		if folded != tc.n {
			t.Errorf("%+v: folded %d calls", tc, folded)
		}
		if peakOut > tc.width || peakRun > tc.width {
			t.Errorf("%+v: %d outstanding and %d running at once", tc, peakOut, peakRun)
		}
	}
}

// Once fold refuses a result, no further call starts; a panic in a
// call on another goroutine reaches the caller's after the running
// calls finish.
func TestPoolStreamStopAndPanic(t *testing.T) {
	var started atomic.Int64
	Stream(50, 2, func(i int) int {
		started.Add(1)
		return i
	}, func(i, _ int) bool { return i != 3 })
	if n := started.Load(); n > 5 {
		t.Errorf("%d calls started after fold refused call 3", n)
	}

	defer func() {
		if p, _ := recover().(string); p != "call 4" {
			t.Fatalf("recovered %q, want call 4's panic", p)
		}
	}()
	Stream(8, 2, func(i int) int {
		if i == 4 {
			panic("call 4")
		}
		return i
	}, func(int, int) bool { return true })
	t.Fatal("Stream returned normally after a call panicked")
}
