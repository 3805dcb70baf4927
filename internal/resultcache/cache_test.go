package resultcache

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"rnuca"
	"rnuca/internal/obs"
	"rnuca/internal/sim"
)

// N concurrent Do calls for one key run the computation exactly once,
// and every caller sees the same value.
func TestDoSingleflight(t *testing.T) {
	c := New(8)
	var computed atomic.Int32
	started := make(chan struct{})
	release := make(chan struct{})
	fn := func(ctx context.Context) (any, error) {
		computed.Add(1)
		close(started)
		<-release
		return 42, nil
	}
	join := func(ctx context.Context) (any, error) {
		t.Error("second computation started")
		return nil, errors.New("dup")
	}

	var wg sync.WaitGroup
	results := make([]any, 8)
	outcomes := make([]Outcome, 8)
	wg.Add(1)
	go func() {
		defer wg.Done()
		results[0], outcomes[0], _ = c.Do(context.Background(), "k", fn)
	}()
	<-started
	for i := 1; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], outcomes[i], _ = c.Do(context.Background(), "k", join)
		}(i)
	}
	// Let the joiners reach the flight before releasing it.
	for c.Metrics().Shared < 7 {
		time.Sleep(time.Millisecond)
	}
	close(release)
	wg.Wait()

	if n := computed.Load(); n != 1 {
		t.Fatalf("computed %d times, want 1", n)
	}
	for i, v := range results {
		if v != 42 {
			t.Fatalf("caller %d got %v", i, v)
		}
	}
	m := c.Metrics()
	if m.Misses != 1 || m.Shared != 7 {
		t.Fatalf("metrics %+v, want 1 miss + 7 shared", m)
	}
	if v, _, err := c.Do(context.Background(), "k", join); err != nil || v != 42 {
		t.Fatalf("post-flight Do = %v, %v", v, err)
	}
	if m := c.Metrics(); m.Hits != 1 {
		t.Fatalf("metrics %+v, want 1 hit", m)
	}
}

// Errors are surfaced to every waiter and never cached.
func TestDoErrorNotCached(t *testing.T) {
	c := New(8)
	boom := errors.New("boom")
	if _, _, err := c.Do(context.Background(), "k", func(ctx context.Context) (any, error) {
		return nil, boom
	}); !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
	v, _, err := c.Do(context.Background(), "k", func(ctx context.Context) (any, error) {
		return "ok", nil
	})
	if err != nil || v != "ok" {
		t.Fatalf("retry = %v, %v", v, err)
	}
	if m := c.Metrics(); m.Misses != 2 || m.Errors != 1 {
		t.Fatalf("metrics %+v, want 2 misses, 1 error", m)
	}
}

// A waiter whose context ends returns immediately; the flight keeps
// computing for the remaining waiters, and only loses its context when
// the last one leaves.
func TestDoCancelWaiterAndFlight(t *testing.T) {
	c := New(8)
	flightCtx := make(chan context.Context, 1)
	release := make(chan struct{})
	go c.Do(context.Background(), "k", func(ctx context.Context) (any, error) {
		flightCtx <- ctx
		<-release
		return 1, nil
	})
	fctx := <-flightCtx

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, _, err := c.Do(ctx, "k", nil)
		done <- err
	}()
	for c.Metrics().Shared < 1 {
		time.Sleep(time.Millisecond)
	}
	cancel()
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled waiter err = %v", err)
	}
	// The starter still waits, so the flight context must be live.
	if fctx.Err() != nil {
		t.Fatal("flight canceled while a waiter remained")
	}
	close(release)
}

// When every waiter cancels, the flight's context is canceled so a
// cooperative computation can stop; a new Do after the flight clears
// recomputes.
func TestDoCancelLastWaiterCancelsFlight(t *testing.T) {
	c := New(8)
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	computes := make(chan int, 2)
	go func() {
		_, _, err := c.Do(ctx, "k", func(fctx context.Context) (any, error) {
			computes <- 1
			<-fctx.Done() // cooperative: stop when no one wants the result
			return nil, fctx.Err()
		})
		done <- err
	}()
	<-computes
	cancel()
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("starter err = %v", err)
	}
	v, _, err := c.Do(context.Background(), "k", func(fctx context.Context) (any, error) {
		computes <- 2
		return "second", nil
	})
	if err != nil || v != "second" {
		t.Fatalf("recompute = %v, %v", v, err)
	}
}

// A panicking computation becomes an error for every waiter, not a
// dead process; nothing is cached, so a later Do retries.
func TestDoRecoversPanics(t *testing.T) {
	c := New(8)
	_, _, err := c.Do(context.Background(), "k", func(ctx context.Context) (any, error) {
		panic("sim: exploded")
	})
	if err == nil || !strings.Contains(err.Error(), "panicked") {
		t.Fatalf("panic surfaced as %v", err)
	}
	v, _, err := c.Do(context.Background(), "k", func(ctx context.Context) (any, error) {
		return "recovered", nil
	})
	if err != nil || v != "recovered" {
		t.Fatalf("retry after panic = %v, %v", v, err)
	}
	if m := c.Metrics(); m.Errors != 1 || m.Entries != 1 {
		t.Fatalf("metrics %+v", m)
	}
}

// The LRU evicts oldest-first at capacity.
func TestLRUEviction(t *testing.T) {
	c := New(2)
	put := func(k string) Outcome {
		_, o, _ := c.Do(context.Background(), k, func(ctx context.Context) (any, error) { return k, nil })
		return o
	}
	put("a")
	put("b")
	put("a") // a hit refreshes a; b becomes the eviction candidate
	put("c")
	if m := c.Metrics(); m.Evictions != 1 || m.Entries != 2 {
		t.Fatalf("metrics %+v", m)
	}
	if put("a") != Hit {
		t.Fatal("a evicted despite refresh")
	}
	if put("b") != Miss {
		t.Fatal("b survived eviction")
	}
}

// Keys canonicalize: result-neutral knobs (Sharded, Progress) are
// excluded by construction, result-relevant ones are not, and jobs
// with no canonical encoding (Maker jobs, unbound corpus names) defeat
// caching.
func TestJobKeyCanonicalization(t *testing.T) {
	dig := strings.Repeat("ab", 32)
	cellJob := func(in rnuca.Input, design rnuca.DesignID, o rnuca.RunOptions) rnuca.Job {
		return rnuca.Job{Input: in, Designs: []rnuca.DesignID{design}, Options: o}
	}
	base := cellJob(rnuca.FromCorpusRef(dig), "R", rnuca.RunOptions{Warm: 100, Measure: 200})
	k1, ok := JobKey(base)
	if !ok {
		t.Fatal("base job not cacheable")
	}

	sharded := base
	sharded.Input = rnuca.FromCorpusRef(dig).Sharded(8)
	sharded.Options.Progress = func(done, total int) {}
	k2, ok := JobKey(sharded)
	if !ok || k2 != k1 {
		t.Fatalf("sharded key %q != sequential %q", k2, k1)
	}

	b := base
	b.Options.Batches = 1
	if batch1, _ := JobKey(b); batch1 != k1 {
		t.Fatal("Batches 0 and 1 should share a key")
	}

	for i, vary := range []rnuca.Job{
		cellJob(rnuca.FromCorpusRef(dig), "R", rnuca.RunOptions{Warm: 101, Measure: 200}),
		cellJob(rnuca.FromCorpusRef(dig), "R", rnuca.RunOptions{Warm: 100, Measure: 201}),
		cellJob(rnuca.FromCorpusRef(dig), "R", rnuca.RunOptions{Warm: 100, Measure: 200, Batches: 3}),
		cellJob(rnuca.FromCorpusRef(dig), "R", rnuca.RunOptions{Warm: 100, Measure: 200, InstrClusterSize: 8}),
		cellJob(rnuca.FromCorpusRef(dig), "R", rnuca.RunOptions{Warm: 100, Measure: 200, PrivateClusterSize: 4}),
		cellJob(rnuca.FromCorpusRef(dig).Window(5, 50), "R", rnuca.RunOptions{Warm: 100, Measure: 200}),
		cellJob(rnuca.FromCorpusRef(dig), "P", rnuca.RunOptions{Warm: 100, Measure: 200}),
		cellJob(rnuca.FromCorpusRef(dig), "A/adaptive", rnuca.RunOptions{Warm: 100, Measure: 200}),
		cellJob(rnuca.FromCorpusRef(strings.Repeat("cd", 32)), "R", rnuca.RunOptions{Warm: 100, Measure: 200}),
	} {
		kv, ok := JobKey(vary)
		if !ok || kv == k1 {
			t.Fatalf("variant %d did not change the key", i)
		}
	}

	maker := base
	maker.Maker = func(ch *sim.Chassis) sim.Design { return nil }
	if _, ok := JobKey(maker); ok {
		t.Fatal("Maker job must defeat caching")
	}
	unbound := cellJob(rnuca.FromCorpusRef("some-name"), "R", rnuca.RunOptions{})
	if _, ok := JobKey(unbound); ok {
		t.Fatal("unresolved corpus name must defeat caching")
	}
}

// Workload-backed jobs distinguish any spec difference.
func TestWorkloadJobKey(t *testing.T) {
	job := func(w rnuca.Workload) rnuca.Job {
		return rnuca.Job{Input: rnuca.FromWorkload(w), Designs: []rnuca.DesignID{"R"}}
	}
	a, ok := JobKey(job(rnuca.OLTPDB2()))
	if !ok {
		t.Fatal("spec not canonicalizable")
	}
	reseeded := rnuca.OLTPDB2()
	reseeded.Seed++
	if b, _ := JobKey(job(reseeded)); a == b {
		t.Fatal("seed does not change the key")
	}
	if c, _ := JobKey(job(rnuca.Apache())); c == a {
		t.Fatal("workload does not change the key")
	}
}

// Concurrent mixed traffic over many keys stays consistent (run under
// -race in CI).
func TestConcurrentStress(t *testing.T) {
	c := New(16)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				key := fmt.Sprintf("k%d", i%24)
				v, _, err := c.Do(context.Background(), key, func(ctx context.Context) (any, error) {
					return key, nil
				})
				if err != nil || v != key {
					t.Errorf("Do(%s) = %v, %v", key, v, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// Instrumented registry counters mirror Metrics() exactly — same
// increment sites — including after concurrent traffic that exercises
// hits, misses, errors, and evictions (CI runs this under -race).
func TestInstrumentMirrorsMetrics(t *testing.T) {
	c := New(4)
	reg := obs.NewRegistry()
	c.Instrument(reg)

	ctx := context.Background()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				// Six keys through a four-entry LRU: hits, misses, and
				// evictions all occur; k5 always fails, so errors too.
				key := fmt.Sprintf("k%d", (g+i)%6)
				_, _, _ = c.Do(ctx, key, func(ctx context.Context) (any, error) {
					if key == "k5" {
						return nil, errors.New("boom")
					}
					return key, nil
				})
			}
		}(g)
	}
	wg.Wait()

	m := c.Metrics()
	if m.Hits == 0 || m.Misses == 0 || m.Errors == 0 || m.Evictions == 0 {
		t.Fatalf("workload failed to exercise every counter: %+v", m)
	}
	var buf strings.Builder
	if err := reg.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	for name, want := range map[string]uint64{
		"rnuca_result_cache_hits_total":      m.Hits,
		"rnuca_result_cache_misses_total":    m.Misses,
		"rnuca_result_cache_shared_total":    m.Shared,
		"rnuca_result_cache_errors_total":    m.Errors,
		"rnuca_result_cache_evictions_total": m.Evictions,
		"rnuca_result_cache_entries":         uint64(m.Entries),
	} {
		found := false
		for _, line := range strings.Split(buf.String(), "\n") {
			if rest, ok := strings.CutPrefix(line, name+" "); ok {
				found = true
				if rest != fmt.Sprint(want) {
					t.Errorf("%s: registry says %s, Metrics says %d", name, rest, want)
				}
			}
		}
		if !found {
			t.Errorf("%s not exposed", name)
		}
	}
}

// runJob is a small single-design cell whose engine polls its progress
// hook once, at reference 8192 of 16000.
func runJob() rnuca.Job {
	return rnuca.Job{
		Input:   rnuca.FromWorkload(rnuca.OLTPDB2()),
		Designs: []rnuca.DesignID{rnuca.DesignRNUCA},
		Options: rnuca.RunOptions{Warm: 4_000, Measure: 12_000},
	}
}

// waitFor polls cond until it holds, failing the test after a while.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// A cell with no canonical key (a Maker job) runs directly: Run never
// consults Do, stores nothing, and reports a computed Result.
func TestRunMakerJobRunsDirectly(t *testing.T) {
	c := New(8)
	c.Instrument(obs.NewRegistry())
	job := runJob()
	job.Designs, job.Maker = nil, func(ch *sim.Chassis) sim.Design { return rnuca.NewDesign(rnuca.DesignShared, ch) }
	r, outcome, err := c.Run(context.Background(), job, job)
	if err != nil || outcome != Miss || r.Refs != 12_000 {
		t.Fatalf("Run = %d refs, %v, %v; want 12000 refs, a miss", r.Refs, outcome, err)
	}
	if m := c.Metrics(); m.Entries != 0 || m.Misses != 0 {
		t.Fatalf("a Maker cell went through the cache: %+v", m)
	}
	if got := c.obsRefs.Value(); got != r.Refs {
		t.Fatalf("refs counter %d, want the computed %d", got, r.Refs)
	}
}

// A flight whose context ends (its only caller left) holds a partial
// Result: it leaves no entry and counts no refs, and the next Run
// computes the cell afresh.
func TestRunCanceledFlightLeavesNoEntry(t *testing.T) {
	c := New(8)
	c.Instrument(obs.NewRegistry())
	ctx, cancel := context.WithCancel(context.Background())
	left := make(chan struct{})
	job := runJob()
	job.Options.Progress = func(done, total int) {
		cancel()
		<-left // the caller has returned, so the flight's context has ended
	}
	_, _, err := c.Run(ctx, job, job)
	close(left)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled Run err = %v", err)
	}
	waitFor(t, "the canceled flight to finish", func() bool { return c.Metrics().Errors == 1 })
	if n := c.Len(); n != 0 {
		t.Fatalf("the canceled flight left %d entries", n)
	}
	if got := c.obsRefs.Value(); got != 0 {
		t.Fatalf("the canceled flight counted %d refs", got)
	}
	r, outcome, err := c.Run(context.Background(), runJob(), runJob())
	if err != nil || outcome != Miss || r.Refs != 12_000 || c.Len() != 1 {
		t.Fatalf("rerun: %d refs, %v, %v, %d entries", r.Refs, outcome, err, c.Len())
	}
}

// A flight runs detached from its callers' contexts but carries the
// starting caller's trace: Do hands it to fn, and Run's cell records
// its spans there beside the lookup. A later hit records only its own
// lookup, in its own trace.
func TestRunFlightSpansLandInStarterTrace(t *testing.T) {
	c := New(8)
	tr := obs.NewTrace(0)
	ctx := obs.ContextWithTrace(context.Background(), tr)
	if _, _, err := c.Do(ctx, "k", func(fctx context.Context) (any, error) {
		if obs.TraceFrom(fctx) != tr {
			t.Error("the flight's context lost the starter's trace")
		}
		return 1, nil
	}); err != nil {
		t.Fatal(err)
	}

	if _, _, err := c.Run(ctx, runJob(), runJob()); err != nil {
		t.Fatal(err)
	}
	hitTrace := obs.NewTrace(0)
	if _, outcome, err := c.Run(obs.ContextWithTrace(context.Background(), hitTrace), runJob(), runJob()); err != nil || outcome != Hit {
		t.Fatalf("second Run: %v, %v", outcome, err)
	}
	stages := func(tr *obs.Trace) map[string]int {
		counts := map[string]int{}
		for _, st := range tr.Export().Stages {
			counts[st.Stage] = st.Count
		}
		return counts
	}
	if got, want := stages(tr), map[string]int{"cache.lookup": 1, "workload.setup": 1, "sim.cell": 1, "result.fold": 1}; !reflect.DeepEqual(got, want) {
		t.Fatalf("starter's stages %v, want %v", got, want)
	}
	if got, want := stages(hitTrace), map[string]int{"cache.lookup": 1}; !reflect.DeepEqual(got, want) {
		t.Fatalf("hit's stages %v, want %v", got, want)
	}
	for tr, outcome := range map[*obs.Trace]string{tr: "miss", hitTrace: "hit"} {
		for _, sp := range tr.Spans() {
			if sp.Name == "cache.lookup" && (sp.Attrs["design"] != "R" || sp.Attrs["outcome"] != outcome) {
				t.Errorf("cache.lookup attrs %v, want design R, outcome %s", sp.Attrs, outcome)
			}
		}
	}
}

// rnuca_engine_refs_simulated_total counts a computed Result's refs
// once: a caller that joined the flight and a later hit add nothing.
func TestRunCountsRefsOncePerComputedResult(t *testing.T) {
	c := New(8)
	reg := obs.NewRegistry()
	c.Instrument(reg)
	joined := make(chan struct{})
	job := runJob()
	job.Options.Progress = func(done, total int) { <-joined }
	var wg sync.WaitGroup
	var rs [2]rnuca.Result
	var outcomes [2]Outcome
	var errs [2]error
	run := func(i int) {
		defer wg.Done()
		rs[i], outcomes[i], errs[i] = c.Run(context.Background(), job, job)
	}
	wg.Add(2)
	go run(0)
	waitFor(t, "the flight to start", func() bool { return c.Metrics().Misses == 1 })
	go run(1)
	waitFor(t, "the second caller to join", func() bool { return c.Metrics().Shared == 1 })
	close(joined)
	wg.Wait()
	if errs[0] != nil || errs[1] != nil || outcomes != [2]Outcome{Miss, Shared} || rs[0].Result != rs[1].Result {
		t.Fatalf("outcomes %v, errs %v", outcomes, errs)
	}
	if got := c.obsRefs.Value(); got != 12_000 {
		t.Fatalf("refs counter %d after one computed cell, want 12000", got)
	}
	if _, outcome, err := c.Run(context.Background(), job, job); err != nil || outcome != Hit {
		t.Fatalf("third Run: %v, %v", outcome, err)
	}
	var buf strings.Builder
	if err := reg.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	for _, line := range []string{
		"# HELP rnuca_engine_refs_simulated_total Cache references simulated by locally executed cells (cache hits add nothing).",
		"rnuca_engine_refs_simulated_total 12000",
	} {
		if !strings.Contains(buf.String(), line+"\n") {
			t.Errorf("registry lacks %q", line)
		}
	}
}
