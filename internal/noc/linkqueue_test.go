package noc

import "testing"

func queuedNet() *Network {
	n := NewNetwork(NewFoldedTorus2D(4, 4), DefaultLinkConfig())
	n.EnableLinkQueues()
	return n
}

func TestLinkQueueUncontendedMatchesAnalytic(t *testing.T) {
	q := queuedNet()
	// With no competing traffic and fresh links, the queued model's
	// latency equals the uncontended latency of a fresh analytic network.
	for _, bytes := range []int{CtrlBytes, DataBytes} {
		for dst := 1; dst < 16; dst++ {
			q.Reset()
			q.SetNow(1000)
			got := q.Latency(0, TileID(dst), bytes)
			want := NewNetwork(NewFoldedTorus2D(4, 4), DefaultLinkConfig()).Latency(0, TileID(dst), bytes)
			if got != want {
				t.Fatalf("dst %d bytes %d: queued %v != analytic %v", dst, bytes, got, want)
			}
		}
	}
}

func TestLinkQueueSerializesContendingMessages(t *testing.T) {
	q := queuedNet()
	q.SetNow(0)
	first := q.Latency(0, 1, DataBytes) // 3 flits occupy link 0->1
	q.SetNow(0)
	second := q.Latency(0, 1, DataBytes) // same instant: must wait
	if second <= first {
		t.Fatalf("contending message not delayed: %v then %v", first, second)
	}
	// The second message waits exactly the first's flit occupancy (3).
	if second != first+3 {
		t.Fatalf("second latency %v, want %v+3", second, first)
	}
	if q.WaitCycles() != 3 {
		t.Fatalf("wait cycles %v, want 3", q.WaitCycles())
	}
}

func TestLinkQueueDrainsOverTime(t *testing.T) {
	q := queuedNet()
	q.SetNow(0)
	base := q.Latency(0, 1, DataBytes)
	// Later in simulated time the link has long freed: no delay.
	q.SetNow(1000)
	if got := q.Latency(0, 1, DataBytes); got != base {
		t.Fatalf("link did not drain: %v vs %v", got, base)
	}
}

func TestLinkQueueDisjointPathsDoNotInterfere(t *testing.T) {
	q := queuedNet()
	q.SetNow(0)
	q.Latency(0, 1, DataBytes)
	q.SetNow(0)
	a := q.Latency(8, 9, DataBytes) // disjoint route
	q2 := queuedNet()
	q2.SetNow(0)
	b := q2.Latency(8, 9, DataBytes)
	if a != b {
		t.Fatalf("disjoint routes interfered: %v vs %v", a, b)
	}
}

func TestLinkQueueSameTileFree(t *testing.T) {
	q := queuedNet()
	if got := q.Latency(3, 3, DataBytes); got != 0 {
		t.Fatalf("same-tile latency %v", got)
	}
}

func TestLinkQueueResetClearsOccupancy(t *testing.T) {
	q := queuedNet()
	q.SetNow(0)
	q.Latency(0, 1, DataBytes)
	q.Reset()
	if q.busyUntil == nil {
		t.Fatal("reset dropped the queue model")
	}
	q.SetNow(0)
	first := q.Latency(0, 1, DataBytes)
	q2 := queuedNet()
	q2.SetNow(0)
	if first != q2.Latency(0, 1, DataBytes) {
		t.Fatal("occupancy survived reset")
	}
	if q.WaitCycles() != 0 {
		t.Fatal("wait cycles survived reset")
	}
}
