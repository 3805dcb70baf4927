package main

import (
	"context"
	"encoding/json"
	"flag"
	"math"
	"os"
	"reflect"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/golden.json from the current simulator")

// TestGolden recomputes every workload's golden job through the library
// and compares it with testdata/golden.json; -update rewrites the file.
func TestGolden(t *testing.T) {
	ctx := context.Background()
	tmp := t.TempDir()
	all := map[string]map[string]any{}
	for _, w := range workloads {
		got, err := goldenResults(ctx, w.name, tmp)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		enc := map[string]any{}
		for label, res := range got {
			enc[label] = encodeResult(res)
		}
		all[w.name] = enc
	}
	if *update {
		b, err := json.MarshalIndent(all, "", " ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile("testdata/golden.json", append(b, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	var pinned map[string]map[string]any
	if err := json.Unmarshal(goldenFile, &pinned); err != nil {
		t.Fatal(err)
	}
	for name, enc := range all {
		if !reflect.DeepEqual(enc, pinned[name]) {
			t.Errorf("%s: golden results changed; if intended, rerun with -update and explain why", name)
		}
	}
}

// TestVerifyGoldenCountsMismatch checks that a Result differing in one
// bit of one float fails the output check.
func TestVerifyGoldenCountsMismatch(t *testing.T) {
	got, err := goldenResults(context.Background(), "steady-rnuca-db2", t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	r := &run{values: map[string]metric{}}
	r.verifyGolden("steady-rnuca-db2", got, nil)
	if r.attempted != 1 || r.failed != 0 {
		t.Fatalf("pinned result: attempted %d failed %d, want 1 and 0", r.attempted, r.failed)
	}
	res := got["R"]
	res.CPIStack[0] = nextUp(res.CPIStack[0])
	got["R"] = res
	r.verifyGolden("steady-rnuca-db2", got, nil)
	if r.failed != 1 {
		t.Fatalf("a one-ulp change was not caught (failed %d)", r.failed)
	}
}

func nextUp(x float64) float64 { return math.Nextafter(x, math.Inf(1)) }
