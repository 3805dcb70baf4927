package rnuca_test

import (
	"context"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"rnuca"
	"rnuca/internal/obs"
	"rnuca/internal/resultcache"
)

// The canonical Job JSON encoding is frozen by a checked-in fixture:
// result-cache keys are built from these bytes, so any unannounced
// change to the encoding would silently invalidate (or worse, alias)
// every persisted key. If this test fails because the encoding
// changed on purpose, bump the encoding version and regenerate the
// fixture — do not just update the file.
func TestJobCanonicalEncodingGolden(t *testing.T) {
	jobs := []rnuca.Job{
		{
			Input:   rnuca.FromWorkload(rnuca.OLTPDB2()),
			Designs: []rnuca.DesignID{rnuca.DesignRNUCA},
			Options: rnuca.RunOptions{Warm: 200_000, Measure: 400_000},
		},
		{
			Input:   rnuca.FromCorpusRef(strings.Repeat("0123456789abcdef", 4)).Window(4096, 65536),
			Designs: rnuca.AllDesigns(),
			Options: rnuca.RunOptions{Batches: 3, InstrClusterSize: 8},
		},
	}
	raw, err := os.ReadFile(filepath.Join("testdata", "job-canonical.json"))
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Split(strings.TrimSpace(string(raw)), "\n")
	if len(want) != len(jobs) {
		t.Fatalf("fixture holds %d encodings, want %d", len(want), len(jobs))
	}
	for i, j := range jobs {
		b, err := json.Marshal(j)
		if err != nil {
			t.Fatalf("job %d: %v", i, err)
		}
		if string(b) != want[i] {
			t.Errorf("job %d canonical encoding drifted:\n  got  %s\n  want %s", i, b, want[i])
		}
		// The encoding round-trips: decode and re-encode losslessly.
		var back rnuca.Job
		if err := json.Unmarshal(b, &back); err != nil {
			t.Fatalf("job %d round trip: %v", i, err)
		}
		b2, err := json.Marshal(back)
		if err != nil {
			t.Fatalf("job %d re-encode: %v", i, err)
		}
		if string(b2) != string(b) {
			t.Errorf("job %d not round-trip stable:\n  first  %s\n  second %s", i, b, b2)
		}
	}
}

// A sharded and a sequential replay of the same bytes are the same
// cell: identical canonical encodings, identical cache keys — and a
// path-backed trace input keys identically to a corpus input holding
// the same content.
func TestJobKeyShardedSequentialIdentical(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trace.bin")
	if err := os.WriteFile(path, []byte("not-even-a-real-trace: keys hash content"), 0o644); err != nil {
		t.Fatal(err)
	}
	job := func(in rnuca.Input) rnuca.Job {
		return rnuca.Job{Input: in, Designs: []rnuca.DesignID{rnuca.DesignRNUCA},
			Options: rnuca.RunOptions{Warm: 1000, Measure: 2000}}
	}

	seq, ok := resultcache.JobKey(job(rnuca.FromTrace(path).Window(10, 100)))
	if !ok {
		t.Fatal("sequential replay job not keyable")
	}
	sh, ok := resultcache.JobKey(job(rnuca.FromTrace(path).Window(10, 100).Sharded(8)))
	if !ok || sh != seq {
		t.Fatalf("sharded key differs from sequential:\n  seq %s\n  sh  %s", seq, sh)
	}

	dig, err := rnuca.FromTrace(path).Digest()
	if err != nil {
		t.Fatal(err)
	}
	corp, ok := resultcache.JobKey(job(rnuca.FromCorpusRef(dig).Window(10, 100)))
	if !ok || corp != seq {
		t.Fatalf("corpus key differs from trace key for identical content:\n  trace  %s\n  corpus %s", seq, corp)
	}
}

// A canceled context stops a run mid-simulation: Job.Run returns
// promptly with the context error and the partial result accumulated
// so far. (CI runs this under -race: the cancel fires from the
// engine's own progress callback while batched engines may run
// concurrently.)
func TestJobRunCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var once sync.Once
	job := rnuca.Job{
		Input:   rnuca.FromWorkload(rnuca.OLTPDB2()),
		Designs: []rnuca.DesignID{rnuca.DesignShared},
		Options: rnuca.RunOptions{
			Warm:    1000,
			Measure: 50_000_000, // hours of work if not canceled
			Progress: func(done, total int) {
				if done > 2000 {
					once.Do(cancel)
				}
			},
		},
	}
	start := time.Now()
	r, err := job.Run(ctx)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if elapsed := time.Since(start); elapsed > 30*time.Second {
		t.Fatalf("cancellation took %v; the engine must stop at the next progress poll", elapsed)
	}
	if r.Refs == 0 {
		t.Fatal("canceled run returned no partial result")
	}
	if r.Refs >= 50_000_000 {
		t.Fatal("run completed despite cancellation")
	}
}

// Building a generated workload's streams is a stage of its own: every
// batch records one workload.setup span beside its sim.cell.
func TestJobRunTracesWorkloadSetup(t *testing.T) {
	tr := obs.NewTrace(0)
	job := rnuca.Job{
		Input:   rnuca.FromWorkload(rnuca.OLTPDB2()),
		Designs: []rnuca.DesignID{rnuca.DesignRNUCA},
		Options: rnuca.RunOptions{Warm: 300, Measure: 600, Batches: 3},
	}
	r, err := job.Run(obs.ContextWithTrace(context.Background(), tr))
	if err != nil {
		t.Fatal(err)
	}
	counts := map[string]int{}
	for _, st := range r.Timing {
		counts[st.Stage] = st.Count
	}
	if counts["workload.setup"] != 3 || counts["sim.cell"] != 3 {
		t.Fatalf("stages %+v: want 3 workload.setup and 3 sim.cell", r.Timing)
	}
	for _, sp := range tr.Spans() {
		if sp.Name == "workload.setup" && sp.Attrs["workload"] != "OLTP-DB2" {
			t.Fatalf("workload.setup attrs = %v", sp.Attrs)
		}
	}
}

// Job.Validate turns the old panic-on-bad-spec paths into errors.
func TestJobValidationErrors(t *testing.T) {
	ctx := context.Background()
	w := rnuca.OLTPDB2()
	cases := []struct {
		name string
		job  rnuca.Job
		want string
	}{
		{"no input", rnuca.Job{Designs: []rnuca.DesignID{"R"}}, "no input"},
		{"no designs", rnuca.Job{Input: rnuca.FromWorkload(w)}, "no designs"},
		{"unknown design", rnuca.Job{Input: rnuca.FromWorkload(w), Designs: []rnuca.DesignID{"X"}}, "unknown design"},
		{"negative warm", rnuca.Job{Input: rnuca.FromWorkload(w), Designs: []rnuca.DesignID{"R"},
			Options: rnuca.RunOptions{Warm: -1}}, "negative"},
		{"window on workload", rnuca.Job{Input: rnuca.FromWorkload(w).Window(1, 2),
			Designs: []rnuca.DesignID{"R"}}, "Window on a workload input"},
		{"sharded on source", rnuca.Job{
			Input:   rnuca.FromSource(func(batch int) rnuca.RefSource { return nil }).Sharded(4),
			Designs: []rnuca.DesignID{"R"}}, "Sharded on a source input"},
		{"unbound corpus", rnuca.Job{Input: rnuca.FromCorpusRef("some-name"),
			Designs: []rnuca.DesignID{"R"}}, "unbound"},
		{"bare source without config", rnuca.Job{
			Input:   rnuca.FromSource(func(batch int) rnuca.RefSource { return nil }),
			Designs: []rnuca.DesignID{"R"}}, "ForWorkload"},
		{"multi-design Run", rnuca.Job{Input: rnuca.FromWorkload(w),
			Designs: []rnuca.DesignID{"P", "R"}}, "use Compare"},
	}
	for _, tc := range cases {
		_, err := tc.job.Run(ctx)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want substring %q", tc.name, err, tc.want)
		}
	}
}

// The wire shorthands decode: a catalog name stands in for a full
// workload spec, a bare string for a corpus reference object.
func TestJobWireShorthands(t *testing.T) {
	var j rnuca.Job
	if err := json.Unmarshal([]byte(`{"input":{"workload":"OLTP-DB2"},"designs":["R"]}`), &j); err != nil {
		t.Fatal(err)
	}
	w, err := j.Input.Workload()
	if err != nil || w.Name != "OLTP-DB2" || w.Cores != 16 {
		t.Fatalf("workload shorthand resolved to %+v (%v)", w, err)
	}
	if err := json.Unmarshal([]byte(`{"input":{"workload":"No-Such"},"designs":["R"]}`), &j); err == nil {
		t.Fatal("unknown workload name decoded without error")
	}
	if err := json.Unmarshal([]byte(`{"input":{"corpus":"oltp"},"designs":["R"]}`), &j); err != nil {
		t.Fatal(err)
	}
	if j.Input.Kind() != rnuca.InputCorpus {
		t.Fatalf("corpus shorthand decoded as %q", j.Input.Kind())
	}
}

// Job.Compare over a trace yields the same per-design results as
// individual runs, and returns partial results plus the context error
// when canceled.
func TestJobCompare(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "cmp.rnt")
	rec := rnuca.Job{
		Input:   rnuca.FromWorkload(rnuca.MIX()),
		Designs: []rnuca.DesignID{rnuca.DesignRNUCA},
		Options: rnuca.RunOptions{Warm: 4_000, Measure: 12_000},
	}
	if _, err := rec.Record(context.Background(), path); err != nil {
		t.Fatal(err)
	}
	job := rnuca.Job{
		Input:   rnuca.FromTrace(path),
		Designs: []rnuca.DesignID{rnuca.DesignPrivate, rnuca.DesignShared},
	}
	cmp, err := job.Compare(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range job.Designs {
		single, err := job.WithDesign(id).Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		// Result carries a non-comparable Timing slice (empty here — no
		// trace in the context), so compare the measured parts.
		if cmp[id].Result != single.Result ||
			cmp[id].CPIMean != single.CPIMean || cmp[id].CPICI != single.CPICI {
			t.Fatalf("%s: Compare result differs from single Run", id)
		}
	}

	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := job.Compare(canceled); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-canceled Compare err = %v", err)
	}
}
