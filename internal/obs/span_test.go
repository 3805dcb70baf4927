package obs

import (
	"context"
	"sync"
	"testing"
	"time"
)

func TestSpanNoTraceIsNoop(t *testing.T) {
	sp := StartSpan(context.Background(), "x")
	if sp != nil {
		t.Fatal("no trace in context must yield a nil span")
	}
	// All methods must be safe on nil.
	sp.SetAttr("k", "v")
	sp.End()
	sp = StartSpan(nil, "x") //nolint:staticcheck // nil ctx is part of the contract
	sp.End()
}

func TestSpanRecordsIntoTrace(t *testing.T) {
	tr := NewTrace(0)
	ctx := ContextWithTrace(context.Background(), tr)
	sp := StartSpan(ctx, "sim.cell")
	sp.SetAttr("design", "R")
	sp.End()
	sp.End() // double End records once

	spans := tr.Spans()
	if len(spans) != 1 {
		t.Fatalf("spans = %d", len(spans))
	}
	s := spans[0]
	if s.Name != "sim.cell" || s.Attrs["design"] != "R" {
		t.Fatalf("span = %+v", s)
	}
	if s.Seconds < 0 {
		t.Fatalf("negative duration %v", s.Seconds)
	}
	if TraceFrom(ctx) != tr {
		t.Fatal("TraceFrom lost the trace")
	}
}

func TestTraceRingDropsOldest(t *testing.T) {
	tr := NewTrace(3)
	for _, name := range []string{"a", "b", "c", "d", "e"} {
		tr.StartSpan(name).End()
	}
	spans := tr.Spans()
	if len(spans) != 3 {
		t.Fatalf("ring holds %d", len(spans))
	}
	if spans[0].Name != "c" || spans[2].Name != "e" {
		t.Fatalf("ring kept %v %v", spans[0].Name, spans[2].Name)
	}
	if d := tr.Export().Dropped; d != 2 {
		t.Fatalf("dropped = %d", d)
	}
}

// A trace filled to exactly its capacity keeps every span in
// completion order with nothing dropped; the next span evicts exactly
// the oldest one.
func TestTraceRingAtAndPastCapacity(t *testing.T) {
	tr := NewTrace(4)
	for _, name := range []string{"a", "b", "c", "d"} {
		tr.StartSpan(name).End()
	}
	ex := tr.Export()
	spans := ex.Spans
	if len(spans) != 4 || ex.Dropped != 0 {
		t.Fatalf("at capacity: %d spans, %d dropped", len(spans), ex.Dropped)
	}
	for i, want := range []string{"a", "b", "c", "d"} {
		if spans[i].Name != want {
			t.Fatalf("spans[%d] = %q, want %q", i, spans[i].Name, want)
		}
	}

	tr.StartSpan("e").End()
	ex = tr.Export()
	spans = ex.Spans
	if len(spans) != 4 || ex.Dropped != 1 {
		t.Fatalf("past capacity: %d spans, %d dropped", len(spans), ex.Dropped)
	}
	for i, want := range []string{"b", "c", "d", "e"} {
		if spans[i].Name != want {
			t.Fatalf("after wrap spans[%d] = %q, want %q", i, spans[i].Name, want)
		}
	}
}

// Export's stages aggregate only the spans still buffered: once the ring drops
// a stage's every span, that stage disappears from the breakdown, and
// ordering follows the surviving spans' completion order.
func TestStagesAfterRingDrops(t *testing.T) {
	tr := NewTrace(2)
	tr.add(SpanData{Name: "warmup", Seconds: 5})
	tr.add(SpanData{Name: "sim.cell", Seconds: 1})
	tr.add(SpanData{Name: "sim.cell", Seconds: 2}) // evicts warmup
	ex := tr.Export()
	if ex.Dropped != 1 {
		t.Fatalf("dropped = %d", ex.Dropped)
	}
	st := ex.Stages
	if len(st) != 1 {
		t.Fatalf("stages = %+v, want only sim.cell", st)
	}
	if st[0].Stage != "sim.cell" || st[0].Seconds != 3 || st[0].Count != 2 {
		t.Fatalf("sim.cell = %+v", st[0])
	}
}

// Racing Ends on one span must record it exactly once (run under
// -race in CI).
func TestSpanConcurrentEndRecordsOnce(t *testing.T) {
	tr := NewTrace(0)
	for i := 0; i < 50; i++ {
		sp := tr.StartSpan("sim.cell")
		var wg sync.WaitGroup
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				sp.SetAttr("g", "x")
				sp.End()
			}()
		}
		wg.Wait()
	}
	if got := len(tr.Spans()); got != 50 {
		t.Fatalf("recorded %d spans, want 50 (one per span despite racing Ends)", got)
	}
}

func TestStagesAggregatesByName(t *testing.T) {
	tr := NewTrace(0)
	tr.add(SpanData{Name: "sim.cell", Seconds: 1})
	tr.add(SpanData{Name: "result.fold", Seconds: 0.25})
	tr.add(SpanData{Name: "sim.cell", Seconds: 2})
	st := tr.Export().Stages
	if len(st) != 2 {
		t.Fatalf("stages = %v", st)
	}
	if st[0].Stage != "sim.cell" || st[0].Seconds != 3 || st[0].Count != 2 {
		t.Fatalf("sim.cell = %+v", st[0])
	}
	if st[1].Stage != "result.fold" || st[1].Count != 1 {
		t.Fatalf("result.fold = %+v", st[1])
	}
}

// A stage's wall seconds are the length of the union of its spans'
// intervals: overlapping spans (concurrent cells) cover less wall time
// than their summed seconds, and disjoint spans, touching ones
// included, cover exactly their sum.
func TestStagesWallSeconds(t *testing.T) {
	t0 := time.Unix(1000, 0)
	at := func(s float64) time.Time { return t0.Add(time.Duration(s * float64(time.Second))) }
	tr := NewTrace(0)
	for _, s := range []SpanData{
		// cell: [1,3) inside [0,4), [2,6) past it, then [10,11) alone;
		// the union [0,6) + [10,11) is 7 s of 11 summed.
		{Name: "cell", Start: at(1), Seconds: 2},
		{Name: "fold", Start: at(5), Seconds: 2},
		{Name: "cell", Start: at(0), Seconds: 4},
		{Name: "cell", Start: at(2), Seconds: 4},
		{Name: "fold", Start: at(0), Seconds: 1},
		{Name: "cell", Start: at(10), Seconds: 1},
		// fold: [0,1), [1,2) and [5,7) are disjoint: 4 s either way.
		{Name: "fold", Start: at(1), Seconds: 1},
	} {
		tr.add(s)
	}
	st := tr.Export().Stages
	if len(st) != 2 {
		t.Fatalf("stages %+v", st)
	}
	if c := st[0]; c.Stage != "cell" || c.Count != 4 || c.Seconds != 11 || c.WallSeconds != 7 {
		t.Fatalf("overlapping stage %+v, want 11 s summed over 7 s of wall", c)
	}
	if f := st[1]; f.Stage != "fold" || f.Count != 3 || f.Seconds != 4 || f.WallSeconds != f.Seconds {
		t.Fatalf("disjoint stage %+v, want wall equal to its 4 summed seconds", f)
	}
}

func TestTraceConcurrentSpans(t *testing.T) {
	tr := NewTrace(64)
	ctx := ContextWithTrace(context.Background(), tr)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				sp := StartSpan(ctx, "sim.cell")
				sp.SetAttr("k", "v")
				sp.End()
				_ = tr.Spans()
				_ = tr.Export()
			}
		}()
	}
	wg.Wait()
	ex := tr.Export()
	if got := ex.Dropped + uint64(len(ex.Spans)); got != 800 {
		t.Fatalf("recorded %d spans", got)
	}
}
