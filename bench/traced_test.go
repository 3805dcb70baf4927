package main

import (
	"context"
	"path/filepath"
	"strings"
	"testing"

	"rnuca"
	"rnuca/internal/sim"
	"rnuca/internal/workload"
)

// Tiny MIX cells keep the traced tests fast: MIX's Zipf tables build in
// milliseconds.
const tinyWarm, tinyMeasure = 500, 1500

func tinySpec() workload.Spec { return withSeed(workload.MIX(), 7) }

func tinyJob(ids ...rnuca.DesignID) rnuca.Job {
	return rnuca.Job{
		Input:   rnuca.FromWorkload(tinySpec()),
		Designs: ids,
		Options: rnuca.RunOptions{Warm: tinyWarm, Measure: tinyMeasure},
	}
}

func tracedRun() *run {
	return &run{ctx: context.Background(), cfg: config{trace: true}, values: map[string]metric{}}
}

// TestWrapperForwardsOptionalInterfaces: the traced design implements
// exactly the optional engine interfaces of the design it wraps.
func TestWrapperForwardsOptionalInterfaces(t *testing.T) {
	ch := sim.NewChassis(rnuca.ConfigFor(tinySpec()))
	for _, id := range rnuca.AllDesigns() {
		inner := rnuca.NewDesign(id, ch)
		wrapped := wrapDesign(&tracedDesign{Design: inner})
		for _, c := range []struct {
			name           string
			inner, wrapper bool
		}{
			{"Classifier", is[sim.Classifier](inner), is[sim.Classifier](wrapped)},
			{"BankMeter", is[sim.BankMeter](inner), is[sim.BankMeter](wrapped)},
			{"TransitionMeter", is[sim.TransitionMeter](inner), is[sim.TransitionMeter](wrapped)},
		} {
			if c.inner != c.wrapper {
				t.Errorf("design %s: inner implements %s = %v, wrapper = %v", id, c.name, c.inner, c.wrapper)
			}
		}
	}
}

func is[T any](v any) bool {
	_, ok := v.(T)
	return ok
}

// TestHiddenClassifierChangesResult shows why the wrapper must forward
// the optional interfaces: hiding R-NUCA's Classifier changes the
// Result the engine reports.
func TestHiddenClassifierChangesResult(t *testing.T) {
	c := designCell(rnuca.DesignRNUCA, tinySpec(), tinyWarm, tinyMeasure)
	run := func(wrap func(*tracedDesign) sim.Design) sim.Result {
		td := &tracedDesign{}
		b, _, err := c.build(nil, func(d sim.Design) sim.Design {
			td.Design = d
			return wrap(td)
		})
		if err != nil {
			t.Fatal(err)
		}
		res, err := c.run(b)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	honest := run(wrapDesign)
	naive := run(func(td *tracedDesign) sim.Design { return td })
	if honest.ClassifiedAccesses == 0 || naive.ClassifiedAccesses != 0 {
		t.Errorf("ClassifiedAccesses: forwarding wrapper %d, hiding wrapper %d; want >0 and 0",
			honest.ClassifiedAccesses, naive.ClassifiedAccesses)
	}
}

// TestTracedCellsMatchJobRun: for every design, ASR's best-of-six
// included, the untraced, flight-recorded and traced cells reproduce
// Job.Run's Result bit for bit, and the traced run reports every
// per-layer metric it owns.
func TestTracedCellsMatchJobRun(t *testing.T) {
	ctx := context.Background()
	cmp, err := tinyJob(rnuca.AllDesigns()...).Compare(ctx)
	if err != nil {
		t.Fatal(err)
	}
	var groups []cellGroup
	for _, id := range rnuca.AllDesigns() {
		groups = append(groups, cellGroup{ref: cmp[id].Result, cells: jobCells(id, tinySpec(), tinyWarm, tinyMeasure)})
	}
	r := tracedRun()
	if err := r.traceCells(groups); err != nil {
		t.Fatal(err)
	}
	if r.failed != 0 || r.attempted < 3*len(groups) {
		t.Fatalf("attempted %d, failed %d: %v", r.attempted, r.failed, r.failures)
	}
	for _, d := range perLayer {
		owned := !strings.HasPrefix(d.name, "setup.") && !strings.HasPrefix(d.name, "job.")
		if _, ok := r.values[d.name]; owned && !ok {
			t.Errorf("traced cells did not report %s", d.name)
		}
	}
	if len(r.extras) != len(groups) {
		t.Errorf("%d per-design extras, want one per design", len(r.extras))
	}
}

// TestTracedReplayCellMatchesJobRun: a replay cell, whose references
// come through tracefile decode and trace.Demux, reproduces Job.Run's
// replay Result, traced or not.
func TestTracedReplayCellMatchesJobRun(t *testing.T) {
	ctx := context.Background()
	path := filepath.Join(t.TempDir(), "tiny.rnt")
	if _, err := tinyJob(rnuca.DesignShared).Record(ctx, path); err != nil {
		t.Fatal(err)
	}
	ref, err := rnuca.Job{Input: rnuca.FromTrace(path), Designs: []rnuca.DesignID{rnuca.DesignShared}}.Run(ctx)
	if err != nil {
		t.Fatal(err)
	}
	spec, err := rnuca.TraceWorkload(path)
	if err != nil {
		t.Fatal(err)
	}
	c := designCell(rnuca.DesignShared, spec, tinyWarm, tinyMeasure)
	c.tracePath = path
	r := tracedRun()
	if err := r.traceCells([]cellGroup{{ref: ref.Result, cells: []cell{c}}}); err != nil {
		t.Fatal(err)
	}
	if r.failed != 0 || r.attempted != 3 {
		t.Fatalf("attempted %d, failed %d: %v", r.attempted, r.failed, r.failures)
	}
}
