package main

import (
	"context"
	"sync"
	"testing"
	"time"
)

// TestOpenLoopKeepsSchedule: arrivals fire on their schedule even when
// each one takes longer than the interval, so several are in flight at
// once, and each arrival's latency counts from its due time.
func TestOpenLoopKeepsSchedule(t *testing.T) {
	const n, interval, work = 5, 30 * time.Millisecond, 100 * time.Millisecond
	var mu sync.Mutex
	inflight, peak := 0, 0
	lat := make([]time.Duration, n)
	late := openLoop(context.Background(), time.Now(), n, interval, func(i int, due time.Time) {
		mu.Lock()
		inflight++
		if inflight > peak {
			peak = inflight
		}
		mu.Unlock()
		time.Sleep(work)
		mu.Lock()
		inflight--
		mu.Unlock()
		lat[i] = time.Since(due)
	})
	if len(late) != n {
		t.Fatalf("%d arrivals fired, want %d", len(late), n)
	}
	if peak < 2 {
		t.Errorf("at most %d arrival in flight: the loop waited for completions", peak)
	}
	for i := range late {
		if late[i] < 0 || late[i] > interval {
			t.Errorf("arrival %d started %v after its due time", i, late[i])
		}
		if lat[i] < work {
			t.Errorf("arrival %d latency %v is shorter than its work", i, lat[i])
		}
	}
}

// TestOpenLoopLatencyCountsFromDue: an arrival that fires late — here
// because its schedule started in the past — is charged the lateness.
func TestOpenLoopLatencyCountsFromDue(t *testing.T) {
	const behind = 50 * time.Millisecond
	var lat time.Duration
	late := openLoop(context.Background(), time.Now().Add(-behind), 1, time.Second, func(_ int, due time.Time) {
		lat = time.Since(due)
	})
	if len(late) != 1 || late[0] < behind {
		t.Fatalf("lateness %v, want at least %v", late, behind)
	}
	if lat < behind {
		t.Errorf("latency %v leaves out the %v the arrival was late", lat, behind)
	}
}

// TestOpenLoopStopsOnCancel: arrivals not yet due when the context ends
// never fire, and the loop returns without waiting for their slots.
func TestOpenLoopStopsOnCancel(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	late := openLoop(ctx, start, 100, 20*time.Millisecond, func(int, time.Time) {})
	if len(late) >= 100 || time.Since(start) > time.Second {
		t.Errorf("%d arrivals fired in %v after cancellation at 50ms", len(late), time.Since(start))
	}
}
