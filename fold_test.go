package rnuca

import (
	"math"
	"testing"

	"rnuca/internal/sim"
)

// The batch fold must weight every batch equally. The pre-v2 fold
// averaged pairwise — ((a+b)/2+c)/2 — which weighted batch b of B by
// 2^-(B-b): with three batches the first two carried 25% each and the
// last 50%.
func TestFoldResultsEqualBatchWeight(t *testing.T) {
	mk := func(v float64) sim.Result {
		var r sim.Result
		r.Instructions = 100
		r.Refs = 50
		r.Cycles = 100 * v
		r.OffChipMisses = uint64(v)
		for i := range r.CPIStack {
			r.CPIStack[i] = v
		}
		for c := range r.ClassCycles {
			for i := range r.ClassCycles[c] {
				r.ClassCycles[c][i] = v
			}
		}
		return r
	}
	fold := func(rs ...sim.Result) sim.Result {
		var f batchFold
		for _, r := range rs {
			f.add(r)
		}
		return f.result(runOpts{}).Result
	}
	got := fold(mk(1), mk(2), mk(4))

	want := 7.0 / 3 // equal weighting; the old pairwise fold gave 2.75
	for i := range got.CPIStack {
		if math.Abs(got.CPIStack[i]-want) > 1e-12 {
			t.Fatalf("CPIStack[%d] = %v, want %v (equal batch weight)", i, got.CPIStack[i], want)
		}
	}
	for c := range got.ClassCycles {
		for i := range got.ClassCycles[c] {
			if math.Abs(got.ClassCycles[c][i]-want) > 1e-12 {
				t.Fatalf("ClassCycles[%d][%d] = %v, want %v", c, i, got.ClassCycles[c][i], want)
			}
		}
	}
	// Counters sum; the aggregate CPI stays total-cycles over
	// total-instructions.
	if got.Instructions != 300 || got.Refs != 150 || got.OffChipMisses != 7 {
		t.Fatalf("counters did not sum: %+v", got)
	}
	if math.Abs(got.Cycles-700) > 1e-12 || math.Abs(got.CPI()-700.0/300) > 1e-12 {
		t.Fatalf("Cycles %v CPI %v", got.Cycles, got.CPI())
	}

	// A single batch folds to itself, bit for bit.
	if one := fold(mk(3)); one != mk(3) {
		t.Fatal("single-batch fold must be the identity")
	}
}
