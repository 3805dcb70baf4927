package experiments

import (
	"context"
	"path/filepath"
	"strings"
	"testing"

	"rnuca"
	"rnuca/internal/trace"
	"rnuca/internal/tracefile"
)

// recordTrace tees a workload run's references to path.
func recordTrace(t *testing.T, w rnuca.Workload, opt rnuca.RunOptions, path string) rnuca.Result {
	t.Helper()
	job := rnuca.Job{Input: rnuca.FromWorkload(w), Designs: []rnuca.DesignID{rnuca.DesignRNUCA}, Options: opt}
	r, err := job.Record(context.Background(), path)
	if err != nil {
		t.Fatalf("record: %v", err)
	}
	return r
}

// A campaign backed by a recorded trace replays instead of generating,
// and its same-design results match the live run that recorded the
// trace; the §3 characterization analyses read the trace too.
func TestCampaignUseTrace(t *testing.T) {
	w := rnuca.OLTPDB2()
	scale := Scale{Warm: 4_000, Measure: 10_000, TraceRefs: 8_000, Batches: 1}
	opt := rnuca.RunOptions{Warm: scale.Warm, Measure: scale.Measure}
	path := filepath.Join(t.TempDir(), "oltp.rnt")

	live := recordTrace(t, w, opt, path)

	c := NewCampaign(scale)
	if _, err := c.SetInput(rnuca.FromTrace(path)); err != nil {
		t.Fatalf("SetInput: %v", err)
	}
	if got := c.Result(w, rnuca.DesignRNUCA); got.Result != live.Result {
		t.Fatalf("trace-backed campaign diverged:\n%+v\n%+v", got.Result, live.Result)
	}
	// Other designs replay the same trace without error.
	if got := c.Result(w, rnuca.DesignShared); got.CPI() <= 0 {
		t.Fatalf("shared replay CPI %v", got.CPI())
	}

	// The analyzer consumes the trace (the 14k-ref file covers the 8k
	// request; shorter traces are re-read in a loop).
	an := c.analyze(w)
	if an.Total() != uint64(scale.TraceRefs) {
		t.Fatalf("analyzer observed %d refs, want %d", an.Total(), scale.TraceRefs)
	}
	bd := an.ReferenceBreakdown()
	if bd.Instructions == 0 || bd.Instructions == bd.TotalAccesses {
		t.Fatalf("trace-backed breakdown instruction share %v", bd.Instructions)
	}
}

// A campaign can sample a window of one long trace per workload: the
// replays and the analyzer both draw from the registered record range
// through the chunk index, and decode sharding leaves results unchanged.
func TestCampaignUseTraceWindow(t *testing.T) {
	w := rnuca.OLTPDB2()
	path := filepath.Join(t.TempDir(), "oltp.rnt")
	recordTrace(t, w, rnuca.RunOptions{Warm: 6_000, Measure: 18_000}, path)

	scale := Scale{Warm: 2_000, Measure: 6_000, TraceRefs: 9_000, Batches: 1}
	c := NewCampaign(scale)
	if _, err := c.SetInput(rnuca.FromTrace(path).Window(4_000, 12_000)); err != nil {
		t.Fatalf("SetInput: %v", err)
	}
	got := c.Result(w, rnuca.DesignRNUCA)
	if got.CPI() <= 1 {
		t.Fatalf("windowed replay CPI %v", got.CPI())
	}

	// The same window with sharded decode folds to identical results.
	sharded := NewCampaign(scale)
	sharded.Shards = 3
	if _, err := sharded.SetInput(rnuca.FromTrace(path).Window(4_000, 12_000)); err != nil {
		t.Fatalf("SetInput: %v", err)
	}
	if sh := sharded.Result(w, rnuca.DesignRNUCA); sh.Result != got.Result {
		t.Fatalf("sharded windowed campaign diverged:\n%+v\n%+v", sh.Result, got.Result)
	}

	// The analyzer reads the window (looping it to reach the request).
	an := c.analyze(w)
	if an.Total() != uint64(scale.TraceRefs) {
		t.Fatalf("analyzer observed %d refs, want %d", an.Total(), scale.TraceRefs)
	}
}

// A replay has no seed, so a campaign runs its replay cells as one
// batch whatever Scale.Batches asks of the generated ones: the result
// measures Measure references, not Batches times as many.
func TestCampaignReplayIsOneBatch(t *testing.T) {
	w := rnuca.OLTPDB2()
	path := filepath.Join(t.TempDir(), "oltp.rnt")
	recordTrace(t, w, rnuca.RunOptions{Warm: 2_000, Measure: 6_000}, path)

	scale := Scale{Warm: 2_000, Measure: 6_000, Batches: 3}
	c := NewCampaign(scale)
	if _, err := c.SetInput(rnuca.FromTrace(path)); err != nil {
		t.Fatalf("SetInput: %v", err)
	}
	if got := c.Result(w, rnuca.DesignShared); got.Refs != uint64(scale.Measure) {
		t.Fatalf("replay cell measured %d refs, want %d", got.Refs, scale.Measure)
	}
}

// A trace declaring more cores than the simulator runs is refused when
// it is registered, not when its first cell fails.
func TestSetInputRefusesWideTrace(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wide.rnt")
	fw, err := tracefile.Create(path, tracefile.Header{Workload: "wide", Cores: 65, Warm: 10, Measure: 10})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 65; i++ {
		if err := fw.Write(trace.Ref{Core: i, Addr: uint64(i) * 64}); err != nil {
			t.Fatal(err)
		}
	}
	if err := fw.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := NewCampaign(Quick()).SetInput(rnuca.FromTrace(path)); err == nil || !strings.Contains(err.Error(), "declares 65 cores") {
		t.Fatalf("SetInput on a 65-core trace: %v", err)
	}
}
