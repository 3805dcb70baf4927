package rnuca_test

import (
	"context"
	"encoding/json"
	"errors"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"rnuca"
	"rnuca/internal/design"
	"rnuca/internal/obs"
	"rnuca/internal/resultcache"
	"rnuca/internal/sim"
	"rnuca/internal/trace"
	"rnuca/internal/tracefile"
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
// engine's own progress callback.)
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

// Every run kind records its stages: a generated run one
// workload.setup and one sim.cell per batch, a replay its replay.setup,
// a recording the generator's setup; each folds its batches once.
func TestJobRunTracesWorkloadSetup(t *testing.T) {
	path := filepath.Join(t.TempDir(), "db2.rnt")
	job := rnuca.Job{
		Input:   rnuca.FromWorkload(rnuca.OLTPDB2()),
		Designs: []rnuca.DesignID{rnuca.DesignRNUCA},
		Options: rnuca.RunOptions{Warm: 300, Measure: 600},
	}
	batched := job
	batched.Options.Batches = 3
	replay := rnuca.Job{Input: rnuca.FromTrace(path), Designs: job.Designs}
	for _, tc := range []struct {
		name string
		run  func(context.Context) error
		want map[string]int
	}{
		{"record", func(ctx context.Context) error { _, err := job.Record(ctx, path); return err },
			map[string]int{"workload.setup": 1, "sim.cell": 1, "result.fold": 1}},
		{"workload", func(ctx context.Context) error { _, err := batched.Run(ctx); return err },
			map[string]int{"workload.setup": 3, "sim.cell": 3, "result.fold": 1}},
		{"trace", func(ctx context.Context) error { _, err := replay.Run(ctx); return err },
			map[string]int{"replay.setup": 1, "sim.cell": 1, "result.fold": 1}},
	} {
		tr := obs.NewTrace(0)
		if err := tc.run(obs.ContextWithTrace(context.Background(), tr)); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		counts := map[string]int{}
		for _, st := range tr.Export().Stages {
			counts[st.Stage] = st.Count
		}
		if !reflect.DeepEqual(counts, tc.want) {
			t.Errorf("%s: stages %v, want %v", tc.name, counts, tc.want)
		}
		for _, sp := range tr.Spans() {
			if sp.Name == "workload.setup" && sp.Attrs["workload"] != "OLTP-DB2" {
				t.Errorf("%s: workload.setup attrs = %v", tc.name, sp.Attrs)
			}
		}
	}
}

// A trace that holds no refs for one of its cores is an error from Run
// and from Compare, never a crash: the batch loop turns the demux's
// "trace:" panic into an error.
func TestJobReplayMissingCoreErrors(t *testing.T) {
	path := filepath.Join(t.TempDir(), "starved.rnt")
	fw, err := tracefile.Create(path, tracefile.Header{Workload: "starved", Cores: 16, Warm: 1000, Measure: 2000})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3000; i++ {
		if err := fw.Write(trace.Ref{Core: i % 15, Addr: uint64(i) * 64}); err != nil {
			t.Fatal(err)
		}
	}
	if err := fw.Close(); err != nil {
		t.Fatal(err)
	}
	const want = "trace: source has no refs for core 15"
	ctx := context.Background()
	job := rnuca.Job{Input: rnuca.FromTrace(path), Designs: []rnuca.DesignID{rnuca.DesignRNUCA}}
	if _, err := job.Run(ctx); err == nil || !strings.Contains(err.Error(), want) {
		t.Errorf("Run: err = %v, want substring %q", err, want)
	}
	job.Designs = rnuca.AllDesigns()
	if _, err := job.Compare(ctx); err == nil || !strings.Contains(err.Error(), want) {
		t.Errorf("Compare: err = %v, want substring %q", err, want)
	}
}

// Job.Validate turns the old panic-on-bad-spec paths into errors.
func TestJobValidationErrors(t *testing.T) {
	ctx := context.Background()
	w := rnuca.OLTPDB2()
	// Beyond the cap the generator's busy draw panics on overflow.
	busy := rnuca.OLTPDB2()
	busy.BusyPerRef = math.MaxInt
	cases := []struct {
		name string
		job  rnuca.Job
		want string
	}{
		{"no input", rnuca.Job{Designs: []rnuca.DesignID{"R"}}, "no input"},
		{"no designs", rnuca.Job{Input: rnuca.FromWorkload(w)}, "no designs"},
		{"unknown design", rnuca.Job{Input: rnuca.FromWorkload(w), Designs: []rnuca.DesignID{"X"}}, "unknown design"},
		{"repeated design", rnuca.Job{Input: rnuca.FromWorkload(w),
			Designs: []rnuca.DesignID{"S", "R", "S"}}, `design "S" listed twice`},
		{"negative warm", rnuca.Job{Input: rnuca.FromWorkload(w), Designs: []rnuca.DesignID{"R"},
			Options: rnuca.RunOptions{Warm: -1}}, "negative"},
		{"warm above 2^31-1", rnuca.Job{Input: rnuca.FromWorkload(w), Designs: []rnuca.DesignID{"R"},
			Options: rnuca.RunOptions{Warm: math.MaxInt, Measure: 1}}, "Warm is 9223372036854775807, above 2147483647"},
		{"measure above 2^31-1", rnuca.Job{Input: rnuca.FromWorkload(w), Designs: []rnuca.DesignID{"R"},
			Options: rnuca.RunOptions{Warm: 1, Measure: math.MaxInt}}, "Measure is 9223372036854775807, above 2147483647"},
		{"batches above 2^31-1", rnuca.Job{Input: rnuca.FromWorkload(w), Designs: []rnuca.DesignID{"R"},
			Options: rnuca.RunOptions{Warm: 10, Measure: 10, Batches: 1 << 40}}, "Batches is 1099511627776, above 2147483647"},
		{"window on workload", rnuca.Job{Input: rnuca.FromWorkload(w).Window(1, 2),
			Designs: []rnuca.DesignID{"R"}}, "Window on a workload input"},
		{"sharded on workload", rnuca.Job{Input: rnuca.FromWorkload(w).Sharded(4),
			Designs: []rnuca.DesignID{"R"}}, "Sharded on a workload input"},
		{"unbound corpus", rnuca.Job{Input: rnuca.FromCorpusRef("some-name"),
			Designs: []rnuca.DesignID{"R"}}, "unbound"},
		{"multi-design Run", rnuca.Job{Input: rnuca.FromWorkload(w),
			Designs: []rnuca.DesignID{"P", "R"}}, "use Compare"},
		{"BusyPerRef above cap", rnuca.Job{Input: rnuca.FromWorkload(busy),
			Designs: []rnuca.DesignID{"R"}}, "BusyPerRef 9223372036854775807 outside 1..1792"},
	}
	for _, tc := range cases {
		_, err := tc.job.Run(ctx)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want substring %q", tc.name, err, tc.want)
		}
	}
}

// Every job whose chassis the run could not build fails Validate and
// Run with an error, never a panic, and before any per-core workload
// state is allocated: core counts beyond the simulator's 64 (or not
// the config's), an invalid explicit Config (including each parameter
// a chassis or design constructor rejects), cluster sizes that are not
// a power of two within the chip.
func TestJobValidateChassis(t *testing.T) {
	ctx := context.Background()
	cores := func(n int) rnuca.Workload {
		w := rnuca.OLTPDB2()
		w.Cores = n
		return w
	}
	cfg8, cfg16 := sim.Config8(), sim.Config16()
	badGrid := sim.Config16()
	badGrid.Cores = 12
	job := func(in rnuca.Input, o rnuca.RunOptions) rnuca.Job {
		return rnuca.Job{Input: in, Designs: []rnuca.DesignID{rnuca.DesignRNUCA}, Options: o}
	}
	db2 := rnuca.FromWorkload(rnuca.OLTPDB2())
	withCfg := func(edit func(*sim.Config)) rnuca.Job {
		c := sim.Config16()
		edit(&c)
		return job(db2, rnuca.RunOptions{Config: &c})
	}
	cases := []struct {
		name string
		job  rnuca.Job
		want string
	}{
		{"65 cores", job(rnuca.FromWorkload(cores(65)), rnuca.RunOptions{}), "65 cores outside 1..64"},
		{"100000 cores", job(rnuca.FromWorkload(cores(100_000)), rnuca.RunOptions{}), "outside 1..64"},
		{"10000000 cores", job(rnuca.FromWorkload(cores(10_000_000)), rnuca.RunOptions{}), "outside 1..64"},
		{"prime core count", job(rnuca.FromWorkload(cores(math.MaxInt32)), rnuca.RunOptions{}), "outside 1..64"},
		{"65 cores on Config16", job(rnuca.FromWorkload(cores(65)), rnuca.RunOptions{Config: &cfg16}),
			"65-core input on a 16-core config"},
		{"16 cores on Config8", job(db2, rnuca.RunOptions{Config: &cfg8}), "16-core input on a 8-core config"},
		{"invalid Config", job(db2, rnuca.RunOptions{Config: &badGrid}), "12 cores on 4x4 grid"},
		{"LinkBytes 0", withCfg(func(c *sim.Config) { c.Link.LinkBytes = 0 }), "invalid link config"},
		{"LinkLatency -1", withCfg(func(c *sim.Config) { c.Link.LinkLatency = -1 }), "invalid link config"},
		{"RouterLatency -5", withCfg(func(c *sim.Config) { c.Link.RouterLatency = -5 }), "invalid link config"},
		{"LinkBytes 2^62", withCfg(func(c *sim.Config) { c.Link.LinkBytes = 1 << 62 }), "4611686018427387904-byte links above 2048"},
		{"LinkLatency 2^62", withCfg(func(c *sim.Config) { c.Link.LinkLatency = 1 << 62 }), "link latency of 4611686018427387904 cycles above 64"},
		{"RouterLatency 129", withCfg(func(c *sim.Config) { c.Link.RouterLatency = 129 }), "router latency of 129 cycles above 128"},
		{"L2Ways 3", withCfg(func(c *sim.Config) { c.L2Ways = 3 }), "size 1048576 not divisible by ways*block 192"},
		{"L1Ways 3", withCfg(func(c *sim.Config) { c.L1Ways = 3 }), "size 65536 not divisible by ways*block 192"},
		{"BlockBytes 0", withCfg(func(c *sim.Config) { c.BlockBytes = 0 }), "non-positive geometry"},
		{"VictimEntries -1", withCfg(func(c *sim.Config) { c.VictimEntries = -1 }), "negative victim cache size -1"},
		{"PageBytes 3", withCfg(func(c *sim.Config) { c.PageBytes = 3 }), "page size 3 not a positive power of two"},
		{"TLBEntries 0", withCfg(func(c *sim.Config) { c.TLBEntries = 0 }), "0 TLB entries outside 1..4096"},
		{"1 TB L1", withCfg(func(c *sim.Config) { c.L1Bytes = 1 << 40 }), "above the caps"},
		{"1 TB L2 slice", withCfg(func(c *sim.Config) { c.L2SliceBytes = 1 << 40 }), "above the caps"},
		{"TLBEntries 2^28", withCfg(func(c *sim.Config) { c.TLBEntries = 1 << 28 }), "268435456 TLB entries outside 1..4096"},
		{"PageBytes 2^40", withCfg(func(c *sim.Config) { c.PageBytes = 1 << 40 }), "page size 1099511627776 above 524288"},
		{"VictimEntries 2^40", withCfg(func(c *sim.Config) { c.VictimEntries = 1 << 40 }), "victim cache size 1099511627776 above 1024"},
		{"1 GB blocks", withCfg(func(c *sim.Config) { c.BlockBytes = 1 << 30 }), "above the caps"},
		{"16 KB block on 8 KB page", withCfg(func(c *sim.Config) { c.BlockBytes = 16 << 10 }), "above the caps"},
		{"4 KB block on 1 KB page", withCfg(func(c *sim.Config) { c.BlockBytes, c.PageBytes = 4<<10, 1<<10 }),
			"4096-byte blocks exceed 1024-byte pages"},
		{"WindowCycles 2^63", withCfg(func(c *sim.Config) { c.WindowCycles = 1 << 63 }), "window of 9223372036854775808 cycles above 3200000"},
		{"MemAccessCycles 0", withCfg(func(c *sim.Config) { c.MemAccessCycles = 0 }), "non-positive access latency 0"},
		{"instr cluster 3", job(db2, rnuca.RunOptions{InstrClusterSize: 3}), "instruction cluster size 3 not a power of two"},
		{"instr cluster 32", job(db2, rnuca.RunOptions{InstrClusterSize: 32}), "instruction cluster size 32 exceeds 16 tiles"},
		{"instr cluster 2^20", job(db2, rnuca.RunOptions{InstrClusterSize: 1 << 20}), "exceeds 16 tiles"},
		{"instr cluster 16 on Config8", job(rnuca.FromWorkload(cores(8)), rnuca.RunOptions{InstrClusterSize: 16}),
			"instruction cluster size 16 exceeds 8 tiles"},
		{"private cluster 3", job(db2, rnuca.RunOptions{PrivateClusterSize: 3}), "private cluster size 3 not a power of two"},
		{"private cluster 32", job(db2, rnuca.RunOptions{PrivateClusterSize: 32}), "private cluster size 32 exceeds 16 tiles"},
		{"private cluster 2^20", job(db2, rnuca.RunOptions{PrivateClusterSize: 1 << 20}), "exceeds 16 tiles"},
		{"trace, invalid Config", job(rnuca.FromTrace("never-opened.rnt"), rnuca.RunOptions{Config: &badGrid}),
			"12 cores on 4x4 grid"},
		{"trace, cluster 3 on Config8", job(rnuca.FromTrace("never-opened.rnt"), rnuca.RunOptions{Config: &cfg8, InstrClusterSize: 3}),
			"instruction cluster size 3 not a power of two"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				if p := recover(); p != nil {
					t.Fatalf("panic: %v", p)
				}
			}()
			if err := tc.job.Validate(); err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("Validate: err = %v, want substring %q", err, tc.want)
			}
			if _, err := tc.job.Run(ctx); err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("Run: err = %v, want substring %q", err, tc.want)
			}
		})
	}

	// A replay's core count comes from the trace header, so the same
	// checks run when Run opens the trace.
	dir := t.TempDir()
	wide := filepath.Join(dir, "wide.rnt")
	fw, err := tracefile.Create(wide, tracefile.Header{Workload: "wide", Cores: 65, Warm: 10, Measure: 10})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		if err := fw.Write(trace.Ref{Core: i % 65, Addr: uint64(i) * 64}); err != nil {
			t.Fatal(err)
		}
	}
	if err := fw.Close(); err != nil {
		t.Fatal(err)
	}
	db2Trace := filepath.Join(dir, "db2.rnt")
	record(t, rnuca.OLTPDB2(), rnuca.DesignRNUCA, rnuca.RunOptions{Warm: 1000, Measure: 2000}, db2Trace)
	for _, tc := range []struct {
		name string
		job  rnuca.Job
		want string
	}{
		{"65-core trace", job(rnuca.FromTrace(wide), rnuca.RunOptions{}), "declares 65 cores"},
		{"16-core trace on Config8", job(rnuca.FromTrace(db2Trace), rnuca.RunOptions{Config: &cfg8}),
			"16-core input on a 8-core config"},
		{"16-core trace, cluster 32", job(rnuca.FromTrace(db2Trace), rnuca.RunOptions{InstrClusterSize: 32}),
			"exceeds 16 tiles"},
	} {
		if err := tc.job.Validate(); err != nil {
			t.Errorf("%s: Validate = %v before the trace is read", tc.name, err)
		}
		if _, err := tc.job.Run(ctx); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: Run err = %v, want substring %q", tc.name, err, tc.want)
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
		// Each run has its own Timeline pointer (nil here), so compare
		// the measured parts.
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

	// A generated input with every design reads one tape per batch in
	// all ten cells; a single-design Run of P, S, R or I, and each ASR
	// variant run as a Maker, reads its own generators. The two paths
	// must agree, ASR's best-of-six included.
	gen := rnuca.Job{
		Input:   rnuca.FromWorkload(rnuca.MIX()),
		Designs: rnuca.AllDesigns(),
		Options: rnuca.RunOptions{Warm: 4_000, Measure: 12_000, Batches: 2},
	}
	cmp, err = gen.Compare(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	same := func(a, b rnuca.Result) bool {
		return a.Result == b.Result && a.CPIMean == b.CPIMean && a.CPICI == b.CPICI
	}
	for _, id := range gen.Designs {
		single, err := gen.WithDesign(id).Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if !same(cmp[id], single) {
			t.Errorf("%s: Compare result differs from single Run", id)
		}
	}
	var best rnuca.Result
	for v := 0; v < design.NumASRVariants; v++ {
		v := v
		variant := gen.WithDesign(rnuca.DesignASR)
		variant.Maker = func(ch *sim.Chassis) sim.Design { return design.NewASRVariant(ch, v, 0xA5A5) }
		r, err := variant.Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if v == 0 || r.CPI() < best.CPI() {
			best = r
		}
	}
	best.Design = string(rnuca.DesignASR)
	if !same(cmp[rnuca.DesignASR], best) {
		t.Errorf("A: Compare result differs from the best of six variants run on their own generators")
	}
}
