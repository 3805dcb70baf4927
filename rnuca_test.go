package rnuca_test

import (
	"context"
	"testing"

	"rnuca"
	"rnuca/internal/sim"
)

var quick = rnuca.RunOptions{Warm: 20_000, Measure: 40_000}

// run executes one workload x design cell through the Job API.
func run(t *testing.T, w rnuca.Workload, id rnuca.DesignID, opt rnuca.RunOptions) rnuca.Result {
	t.Helper()
	job := rnuca.Job{Input: rnuca.FromWorkload(w), Designs: []rnuca.DesignID{id}, Options: opt}
	r, err := job.Run(context.Background())
	if err != nil {
		t.Fatalf("run %s under %s: %v", w.Name, id, err)
	}
	return r
}

// compare sweeps designs over one workload through the Job API.
func compare(t *testing.T, w rnuca.Workload, ids []rnuca.DesignID, opt rnuca.RunOptions) map[rnuca.DesignID]rnuca.Result {
	t.Helper()
	job := rnuca.Job{Input: rnuca.FromWorkload(w), Designs: ids, Options: opt}
	m, err := job.Compare(context.Background())
	if err != nil {
		t.Fatalf("compare %s: %v", w.Name, err)
	}
	return m
}

func TestRunProducesSaneResult(t *testing.T) {
	r := run(t, rnuca.OLTPDB2(), rnuca.DesignRNUCA, quick)
	if r.CPI() <= 1 {
		t.Fatalf("CPI %v must exceed the busy floor of 1", r.CPI())
	}
	if r.Refs != 40_000 {
		t.Fatalf("refs = %d", r.Refs)
	}
	if b := r.CPIStack[sim.BucketBusy]; b < 1-1e-9 || b > 1+1e-9 {
		t.Fatalf("busy CPI = %v, want 1 (IPC-1 core model)", b)
	}
	if r.OffChipMisses == 0 {
		t.Fatal("no off-chip misses on a 14MB-footprint workload")
	}
	if r.ClassifiedAccesses == 0 {
		t.Fatal("R-NUCA run must classify accesses")
	}
}

func TestRunDeterminism(t *testing.T) {
	a := run(t, rnuca.Apache(), rnuca.DesignShared, quick)
	b := run(t, rnuca.Apache(), rnuca.DesignShared, quick)
	if a.CPI() != b.CPI() || a.OffChipMisses != b.OffChipMisses {
		t.Fatalf("same run differed: %v vs %v", a.CPI(), b.CPI())
	}
}

func TestConfigFor(t *testing.T) {
	if cfg := rnuca.ConfigFor(rnuca.OLTPDB2()); cfg.Cores != 16 || cfg.L2SliceBytes != 1<<20 {
		t.Fatalf("16-core config wrong: %+v", cfg)
	}
	if cfg := rnuca.ConfigFor(rnuca.MIX()); cfg.Cores != 8 || cfg.L2SliceBytes != 3<<20 {
		t.Fatalf("8-core config wrong: %+v", cfg)
	}
	w := rnuca.OLTPDB2()
	w.Cores = 4
	if cfg := rnuca.ConfigFor(w); cfg.Cores != 4 || cfg.GridW*cfg.GridH != 4 {
		t.Fatalf("custom grid wrong: %+v", cfg)
	}
}

func TestCompareAndSpeedups(t *testing.T) {
	cmp := compare(t, rnuca.MIX(), []rnuca.DesignID{
		rnuca.DesignPrivate, rnuca.DesignShared, rnuca.DesignRNUCA,
	}, quick)
	p, s, r := cmp[rnuca.DesignPrivate], cmp[rnuca.DesignShared], cmp[rnuca.DesignRNUCA]
	// MIX is the canonical shared-averse workload: the private design must
	// beat the shared design, and R-NUCA must at least match private.
	if p.CPI() >= s.CPI() {
		t.Fatalf("MIX should be shared-averse: P=%v S=%v", p.CPI(), s.CPI())
	}
	if r.CPI() > p.CPI()*1.02 {
		t.Fatalf("R-NUCA should match the private design on MIX: R=%v P=%v", r.CPI(), p.CPI())
	}
	if sp := r.Speedup(s.Result); sp <= 0 {
		t.Fatalf("R-NUCA speedup over shared on MIX = %v, want > 0", sp)
	}
}

func TestPrivateAverseOrdering(t *testing.T) {
	// OLTP-DB2 is private-averse: shared beats private, and R-NUCA beats
	// both (the paper's headline result).
	cmp := compare(t, rnuca.OLTPDB2(), []rnuca.DesignID{
		rnuca.DesignPrivate, rnuca.DesignShared, rnuca.DesignRNUCA, rnuca.DesignIdeal,
	}, rnuca.RunOptions{Warm: 60_000, Measure: 120_000})
	p, s := cmp[rnuca.DesignPrivate], cmp[rnuca.DesignShared]
	r, i := cmp[rnuca.DesignRNUCA], cmp[rnuca.DesignIdeal]
	if s.CPI() >= p.CPI() {
		t.Fatalf("OLTP-DB2 should be private-averse: P=%v S=%v", p.CPI(), s.CPI())
	}
	if r.CPI() >= s.CPI() {
		t.Fatalf("R-NUCA should beat shared on OLTP: R=%v S=%v", r.CPI(), s.CPI())
	}
	if i.CPI() >= r.CPI() {
		t.Fatalf("ideal must lower-bound R-NUCA: I=%v R=%v", i.CPI(), r.CPI())
	}
}

func TestBatchesProduceCI(t *testing.T) {
	opt := quick
	opt.Batches = 3
	r := run(t, rnuca.Em3d(), rnuca.DesignShared, opt)
	if r.CPIMean <= 0 {
		t.Fatal("batched run missing mean")
	}
	// Independent seeds differ, so the CI is positive (and small).
	if r.CPICI <= 0 {
		t.Fatal("batched run missing confidence interval")
	}
	if r.CPICI > r.CPIMean*0.2 {
		t.Fatalf("CI suspiciously wide: %v of mean %v", r.CPICI, r.CPIMean)
	}
}

func TestClusterSizeOverride(t *testing.T) {
	r1 := run(t, rnuca.Apache(), rnuca.DesignRNUCA, rnuca.RunOptions{Warm: 20_000, Measure: 40_000, InstrClusterSize: 1})
	r16 := run(t, rnuca.Apache(), rnuca.DesignRNUCA, rnuca.RunOptions{Warm: 20_000, Measure: 40_000, InstrClusterSize: 16})
	if r1.CPI() == r16.CPI() {
		t.Fatal("cluster size override had no effect")
	}
}

func TestMisclassificationBound(t *testing.T) {
	// §5.2: page-granularity classification misclassifies less than 0.75%
	// of L2 accesses.
	for _, w := range []rnuca.Workload{rnuca.OLTPDB2(), rnuca.Apache(), rnuca.DSSQry6()} {
		r := run(t, w, rnuca.DesignRNUCA, rnuca.RunOptions{Warm: 60_000, Measure: 120_000})
		frac := float64(r.MisclassifiedAccesses) / float64(r.ClassifiedAccesses)
		if frac >= 0.0075 {
			t.Errorf("%s: misclassification %.3f%% >= 0.75%%", w.Name, 100*frac)
		}
	}
}

func TestNewDesignUnknownPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("unknown design must panic")
		}
	}()
	rnuca.NewDesign("X", sim.NewChassis(sim.Config16()))
}

func TestASRBestOfSix(t *testing.T) {
	r := run(t, rnuca.Em3d(), rnuca.DesignASR, rnuca.RunOptions{Warm: 10_000, Measure: 20_000})
	if r.Design != "A" {
		t.Fatalf("ASR best-of-six should report as A, got %q", r.Design)
	}
	if r.CPI() <= 1 {
		t.Fatalf("ASR CPI %v", r.CPI())
	}
}
