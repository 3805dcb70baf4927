package rnuca_test

import (
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"rnuca"
	"rnuca/internal/cache"
	"rnuca/internal/design"
	"rnuca/internal/sim"
	"rnuca/internal/tracefile"
	"rnuca/internal/workload"
)

// record tees a workload run's references to path via the Job API.
func record(t *testing.T, w rnuca.Workload, id rnuca.DesignID, opt rnuca.RunOptions, path string) rnuca.Result {
	t.Helper()
	job := rnuca.Job{Input: rnuca.FromWorkload(w), Designs: []rnuca.DesignID{id}, Options: opt}
	r, err := job.Record(context.Background(), path)
	if err != nil {
		t.Fatalf("record %s under %s: %v", w.Name, id, err)
	}
	return r
}

// replay runs a single-design replay job over in (a FromTrace input,
// optionally windowed or sharded), surfacing the error for the refusal
// cases the tests probe.
func replay(in rnuca.Input, id rnuca.DesignID, opt rnuca.RunOptions) (rnuca.Result, error) {
	job := rnuca.Job{Input: in, Designs: []rnuca.DesignID{id}, Options: opt}
	return job.Run(context.Background())
}

// Full-pipeline integration: every design runs a real workload through the
// engine, the chassis audit passes afterwards, and the results carry
// coherent accounting.
func TestIntegrationAllDesignsAllAudits(t *testing.T) {
	mks := map[string]func(*sim.Chassis) sim.Design{
		"private":   func(ch *sim.Chassis) sim.Design { return design.NewPrivate(ch) },
		"broadcast": func(ch *sim.Chassis) sim.Design { return design.NewPrivateBroadcast(ch) },
		"shared":    func(ch *sim.Chassis) sim.Design { return design.NewShared(ch) },
		"rnuca":     func(ch *sim.Chassis) sim.Design { return design.NewReactive(ch) },
		"ideal":     func(ch *sim.Chassis) sim.Design { return design.NewIdeal(ch) },
		"asr-0.5":   func(ch *sim.Chassis) sim.Design { return design.NewASR(ch, 0.5, 99) },
	}
	for name, mk := range mks {
		t.Run(name, func(t *testing.T) {
			w := rnuca.OLTPDB2()
			cfg := rnuca.ConfigFor(w)
			ch := sim.NewChassis(cfg)
			d := mk(ch)
			eng := sim.NewEngine(ch, d, workload.Streams(w))
			eng.OffChipMLP = w.OffChipMLP
			res := eng.Run(10_000, 30_000)

			if res.CPI() <= 1 {
				t.Fatalf("CPI %v", res.CPI())
			}
			total := 0.0
			for _, c := range res.CPIStack {
				if c < 0 {
					t.Fatalf("negative bucket in %v", res.CPIStack)
				}
				total += c
			}
			if total < res.CPI()*0.999 || total > res.CPI()*1.001 {
				t.Fatalf("bucket sum %v != CPI %v", total, res.CPI())
			}
			if err := ch.Audit(); err != nil {
				t.Fatalf("audit: %v", err)
			}
		})
	}
}

// The migrating mix must run cleanly through R-NUCA with a positive but
// small re-classification share, and pages must keep their private
// classification across migrations (the OS re-own path, not demotion).
func TestIntegrationMigration(t *testing.T) {
	w := workload.MIXMigrating()
	cfg := rnuca.ConfigFor(w)
	ch := sim.NewChassis(cfg)
	d := design.NewReactive(ch)
	eng := sim.NewEngine(ch, d, workload.Streams(w))
	eng.OffChipMLP = w.OffChipMLP
	res := eng.Run(64_000, 192_000)

	if d.ReclassCount() == 0 {
		t.Fatal("no re-classifications under migration")
	}
	if res.CPIStack[sim.BucketReclass] <= 0 {
		t.Fatal("no reclassification cost charged")
	}
	if share := res.CPIStack[sim.BucketReclass] / res.CPI(); share > 0.25 {
		t.Fatalf("reclassification share %.2f implausibly high", share)
	}
	if err := ch.Audit(); err != nil {
		t.Fatal(err)
	}
	// Private pages must remain private (owned by migrated threads), not
	// degrade to shared: private placements should still dominate.
	counts := d.OS().Table.CountByClass()
	if counts[cache.ClassShared] > counts[cache.ClassPrivate] {
		t.Fatalf("migration demoted pages to shared: %v", counts)
	}
}

// Determinism across the whole stack: identical runs produce identical
// results, including traffic counters.
func TestIntegrationBitIdentical(t *testing.T) {
	run := func() sim.Result {
		w := rnuca.Apache()
		ch := sim.NewChassis(rnuca.ConfigFor(w))
		d := design.NewReactive(ch)
		eng := sim.NewEngine(ch, d, workload.Streams(w))
		eng.OffChipMLP = w.OffChipMLP
		return eng.Run(20_000, 40_000)
	}
	a, b := run(), run()
	if a.Cycles != b.Cycles || a.OffChipMisses != b.OffChipMisses ||
		a.NetMessages != b.NetMessages || a.NetFlitHops != b.NetFlitHops ||
		a.MisclassifiedAccesses != b.MisclassifiedAccesses {
		t.Fatalf("runs differ:\n%+v\n%+v", a, b)
	}
}

// Trace capture/replay, end to end: recording an OLTP run under R-NUCA
// and replaying the trace must reproduce the live-generated Result bit
// for bit — same CPI stack, miss counts, and traffic — and the trace
// header must carry the run's provenance.
func TestIntegrationRecordReplay(t *testing.T) {
	w := rnuca.OLTPDB2()
	opt := rnuca.RunOptions{Warm: 5_000, Measure: 15_000}
	path := filepath.Join(t.TempDir(), "oltp.rnt")

	live := run(t, w, rnuca.DesignRNUCA, opt)
	rec := record(t, w, rnuca.DesignRNUCA, opt, path)
	if rec.Result != live.Result {
		t.Fatalf("recording run diverged from live run:\n%+v\n%+v", rec.Result, live.Result)
	}

	f, err := tracefile.Open(path)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	hdr := f.Header()
	f.Close()
	if hdr.Workload != w.Name || hdr.Design != "R" || hdr.Cores != w.Cores {
		t.Fatalf("header provenance %+v", hdr)
	}
	if want := uint64(opt.Warm + opt.Measure); hdr.Refs != want {
		t.Fatalf("header declares %d refs, run consumed %d", hdr.Refs, want)
	}

	rep, err := replay(rnuca.FromTrace(path), rnuca.DesignRNUCA, rnuca.RunOptions{})
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	if rep.Result != live.Result {
		t.Fatalf("replay diverged from live run:\n%+v\n%+v", rep.Result, live.Result)
	}

	// A different design replays the same trace without error (its result
	// legitimately differs from its own live run — the reference schedule
	// is the recorded one).
	if _, err := replay(rnuca.FromTrace(path), rnuca.DesignShared, rnuca.RunOptions{}); err != nil {
		t.Fatalf("cross-design replay: %v", err)
	}

	// A replay asking for more refs than the trace holds would recycle
	// recorded references; it must be refused up front.
	if _, err := replay(rnuca.FromTrace(path), rnuca.DesignRNUCA, rnuca.RunOptions{Measure: 50_000}); err == nil {
		t.Fatal("oversized replay accepted")
	}

	// A truncated trace must fail the replay with an error, never panic
	// or silently loop over the readable prefix.
	whole, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	trunc := filepath.Join(t.TempDir(), "trunc.rnt")
	if err := os.WriteFile(trunc, whole[:len(whole)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := replay(rnuca.FromTrace(trunc), rnuca.DesignRNUCA, rnuca.RunOptions{}); err == nil {
		t.Fatal("truncated trace replayed without error")
	}
}

// Recording under ASR is refused, and leaves no file: Run reports the
// best of six variants, each consuming a different number of references
// per core, so no one trace replays to that Result. One variant
// recorded through a Maker replays to its own Result bit for bit.
func TestRecordRefusesASR(t *testing.T) {
	ctx := context.Background()
	opt := rnuca.RunOptions{Warm: 2_000, Measure: 6_000}
	path := filepath.Join(t.TempDir(), "asr.rnt")
	asr := rnuca.Job{Input: rnuca.FromWorkload(rnuca.OLTPDB2()), Designs: []rnuca.DesignID{rnuca.DesignASR}, Options: opt}
	if _, err := asr.Record(ctx, path); err == nil || !strings.Contains(err.Error(), "best of") {
		t.Fatalf("Record under ASR: err = %v, want a refusal that says why", err)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatalf("the refused recording left a file behind (stat: %v)", err)
	}

	variant := func(ch *sim.Chassis) sim.Design { return design.NewASRVariant(ch, 0, 0xA5A5) }
	one := asr
	one.Designs, one.Maker = nil, variant
	rec, err := one.Record(ctx, path)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := rnuca.Job{Input: rnuca.FromTrace(path), Maker: variant}.Run(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Result != rec.Result {
		t.Fatalf("replay of one ASR variant diverged from its recording:\n%+v\n%+v", rep.Result, rec.Result)
	}
}

// Sharded and windowed replay over an indexed v2 trace: fanning chunk
// decoding across workers must reproduce the sequential replay's Result
// bit for bit (the simulation consumes the same refs in the same order),
// windows must replay without error and differ from full replays only
// through which refs they feed, and Job.Compare must carry the input
// through to every design.
func TestIntegrationShardedWindowedReplay(t *testing.T) {
	w := rnuca.OLTPDB2()
	opt := rnuca.RunOptions{Warm: 10_000, Measure: 30_000}
	path := filepath.Join(t.TempDir(), "oltp.rnt")
	record(t, w, rnuca.DesignRNUCA, opt, path)
	x, err := tracefile.OpenIndexed(path)
	if err != nil {
		t.Fatalf("the recorder no longer writes an indexed trace: %v", err)
	}
	if x.Chunks() < 2 {
		t.Fatalf("want a multi-chunk trace, got %d chunks", x.Chunks())
	}
	x.Close()

	seq, err := replay(rnuca.FromTrace(path), rnuca.DesignRNUCA, rnuca.RunOptions{})
	if err != nil {
		t.Fatalf("sequential replay: %v", err)
	}
	for _, shards := range []int{2, 5} {
		sh, err := replay(rnuca.FromTrace(path).Sharded(shards), rnuca.DesignRNUCA, rnuca.RunOptions{})
		if err != nil {
			t.Fatalf("replay with %d shards: %v", shards, err)
		}
		if sh.Result != seq.Result {
			t.Fatalf("%d-shard replay diverged from sequential:\n%+v\n%+v", shards, sh.Result, seq.Result)
		}
	}

	// A window over the whole trace with the same split is the same run.
	whole, err := replay(rnuca.FromTrace(path).Window(0, uint64(opt.Warm+opt.Measure)), rnuca.DesignRNUCA,
		rnuca.RunOptions{Warm: opt.Warm, Measure: opt.Measure})
	if err != nil {
		t.Fatalf("whole-trace window replay: %v", err)
	}
	if whole.Result != seq.Result {
		t.Fatalf("whole-trace window diverged:\n%+v\n%+v", whole.Result, seq.Result)
	}

	// A mid-trace window replays cleanly, sharded or not, with identical
	// results between the two decode paths.
	winIn := rnuca.FromTrace(path).Window(10_000, 20_000)
	win, err := replay(winIn, rnuca.DesignRNUCA, rnuca.RunOptions{})
	if err != nil {
		t.Fatalf("window replay: %v", err)
	}
	winSh, err := replay(winIn.Sharded(3), rnuca.DesignRNUCA, rnuca.RunOptions{})
	if err != nil {
		t.Fatalf("sharded window replay: %v", err)
	}
	if win.Result != winSh.Result {
		t.Fatalf("sharded window diverged:\n%+v\n%+v", winSh.Result, win.Result)
	}
	if win.Refs == 0 {
		t.Fatal("window replay measured nothing")
	}

	// Windows and shards flow through the multi-design comparison.
	cmpJob := rnuca.Job{
		Input:   rnuca.FromTrace(path).Window(5_000, 15_000).Sharded(2),
		Designs: []rnuca.DesignID{rnuca.DesignRNUCA, rnuca.DesignShared},
	}
	cmp, err := cmpJob.Compare(context.Background())
	if err != nil {
		t.Fatalf("sharded windowed compare: %v", err)
	}
	if len(cmp) != 2 {
		t.Fatalf("compare returned %d results", len(cmp))
	}

	// Asking for more refs than the window holds is refused, like
	// oversized whole-trace replays.
	if _, err := replay(rnuca.FromTrace(path).Window(0, 10_000), rnuca.DesignRNUCA,
		rnuca.RunOptions{Measure: 20_000}); err == nil {
		t.Fatal("oversized window replay accepted")
	}
}

// R-NUCA's architectural guarantee, end to end: after a full mixed run, no
// modifiable block occupies more than one L2 slice, and instruction
// replicas never exceed the chip's replication degree.
func TestIntegrationNoL2CoherenceNeeded(t *testing.T) {
	w := rnuca.OLTPDB2()
	ch := sim.NewChassis(rnuca.ConfigFor(w))
	d := design.NewReactive(ch)
	eng := sim.NewEngine(ch, d, workload.Streams(w))
	eng.Run(30_000, 60_000)

	locs := map[uint64]int{}
	instr := map[uint64]int{}
	for tile := 0; tile < ch.Cfg.Cores; tile++ {
		d.ForEachLine(tile, func(addr uint64, class cache.Class) {
			if class == cache.ClassInstruction {
				instr[addr]++
			} else {
				locs[addr]++
			}
		})
	}
	for addr, n := range locs {
		if n > 1 {
			t.Fatalf("modifiable block %#x in %d slices", addr, n)
		}
	}
	deg := d.Placement().ReplicationDegree(0)
	for addr, n := range instr {
		if n > deg {
			t.Fatalf("instruction block %#x has %d replicas, max %d", addr, n, deg)
		}
	}
}
