package rnuca_test

import (
	"context"
	"encoding/json"
	"errors"
	"runtime"
	"sync"
	"testing"
	"time"

	"rnuca"
	"rnuca/internal/cellpool"
	"rnuca/internal/obs"
)

// withProcs runs the rest of the test under GOMAXPROCS n and a cell
// pool of that width.
func withProcs(t *testing.T, n int) {
	t.Helper()
	prev := runtime.GOMAXPROCS(n)
	restore := cellpool.SetWidth(n)
	t.Cleanup(func() {
		restore()
		runtime.GOMAXPROCS(prev)
	})
}

// holdSlots takes every cell slot, so any cell a job starts must wait,
// and returns their release.
func holdSlots(t *testing.T) func() {
	t.Helper()
	var rels []func()
	for i := 0; i < cellpool.Width(); i++ {
		rel, err := cellpool.Acquire(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		rels = append(rels, rel)
	}
	var once sync.Once
	release := func() {
		once.Do(func() {
			for _, rel := range rels {
				rel()
			}
		})
	}
	t.Cleanup(release)
	return release
}

// waitForWaiters polls until at least n cells wait for a slot.
func waitForWaiters(t *testing.T, n int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for cellpool.Waiting() < n {
		if time.Now().After(deadline) {
			t.Fatalf("%d cells waiting for a slot, want %d", cellpool.Waiting(), n)
		}
		time.Sleep(time.Millisecond)
	}
}

func poolJob(ids ...rnuca.DesignID) rnuca.Job {
	return rnuca.Job{
		Input:   rnuca.FromWorkload(rnuca.MIX()),
		Designs: ids,
		Options: rnuca.RunOptions{Warm: 2000, Measure: 6000, Batches: 2},
	}
}

// The pool cannot change a Result: a two-batch Compare of every design
// (twenty cells, ASR's six variants each its own) and an ASR Run give
// the same canonical JSON on one processor and on four.
func TestPoolBitIdentical(t *testing.T) {
	encode := func(procs int) (cmp, asr []byte) {
		withProcs(t, procs)
		ctx := context.Background()
		c, err := poolJob(rnuca.AllDesigns()...).Compare(ctx)
		if err != nil {
			t.Fatal(err)
		}
		a, err := poolJob(rnuca.DesignASR).Run(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if cmp, err = json.Marshal(c); err != nil {
			t.Fatal(err)
		}
		if asr, err = json.Marshal(a); err != nil {
			t.Fatal(err)
		}
		return cmp, asr
	}
	cmp1, asr1 := encode(1)
	cmp4, asr4 := encode(4)
	if string(cmp1) != string(cmp4) {
		t.Errorf("Compare differs between GOMAXPROCS 1 and 4:\n%s\n%s", cmp1, cmp4)
	}
	if string(asr1) != string(asr4) {
		t.Errorf("ASR Run differs between GOMAXPROCS 1 and 4:\n%s\n%s", asr1, asr4)
	}
}

// Two Compares at once still run no more than GOMAXPROCS cells: every
// engine's progress report sees at most that many slots held.
func TestPoolBoundsConcurrentCompares(t *testing.T) {
	withProcs(t, 2)
	var mu sync.Mutex
	peak := 0
	job := poolJob(rnuca.AllDesigns()...)
	job.Options.Measure = 20_000
	job.Options.Progress = func(done, total int) {
		n := cellpool.Running()
		mu.Lock()
		defer mu.Unlock()
		if n > peak {
			peak = n
		}
	}
	cellpool.Each(2, func(int) {
		if _, err := job.Compare(context.Background()); err != nil {
			t.Error(err)
		}
	})
	if peak < 1 || peak > 2 {
		t.Fatalf("%d cells ran at once under GOMAXPROCS 2", peak)
	}
}

// A Compare canceled while its cells wait for a slot returns promptly
// with the context's error.
func TestPoolCancelWhileWaiting(t *testing.T) {
	withProcs(t, 2)
	holdSlots(t)
	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() {
		_, err := poolJob(rnuca.AllDesigns()...).Compare(ctx)
		errc <- err
	}()
	waitForWaiters(t, 1)
	cancel()
	select {
	case err := <-errc:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Compare did not return after cancellation")
	}
}

// A traced Compare whose cells wait for a slot attributes the wait to
// a cell.wait span.
func TestPoolCompareRecordsCellWait(t *testing.T) {
	withProcs(t, 1)
	release := holdSlots(t)
	tr := obs.NewTrace(0)
	ctx := obs.ContextWithTrace(context.Background(), tr)
	errc := make(chan error, 1)
	go func() {
		_, err := poolJob(rnuca.DesignShared, rnuca.DesignRNUCA).Compare(ctx)
		errc <- err
	}()
	waitForWaiters(t, 1)
	release()
	if err := <-errc; err != nil {
		t.Fatal(err)
	}
	counts := map[string]int{}
	for _, st := range tr.Export().Stages {
		counts[st.Stage] = st.Count
	}
	if counts["cell.wait"] < 1 || counts["sim.cell"] != 4 {
		t.Fatalf("stages %v, want a cell.wait and four sim.cell", counts)
	}
}
