package rnuca_test

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"rnuca"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/results-golden.json from the current simulator")

// goldenPath is the file that pins simulated behaviour: the full
// sim.Result and the SHA-256 of the flight timeline's JSON for every
// design on small fixed jobs, across both topologies and both
// contention models. Floats are stored as IEEE-754 bits, as in
// bench/testdata/golden.json.
var goldenPath = filepath.Join("testdata", "results-golden.json")

// goldenWorkloads are the golden's inputs: two 16-core 4x4 workloads
// and the 8-core MIX, whose 4x2 grid has a size-2 y-ring.
var goldenWorkloads = []func() rnuca.Workload{rnuca.OLTPDB2, rnuca.DSSQry6, rnuca.MIX}

// goldenCompare runs every design of one golden cell.
func goldenCompare(t *testing.T, w rnuca.Workload, mesh, queues bool, tl *rnuca.TimelineConfig) map[rnuca.DesignID]rnuca.Result {
	t.Helper()
	cfg := rnuca.ConfigFor(w)
	cfg.Mesh, cfg.LinkQueues = mesh, queues
	res, err := rnuca.Job{
		Input:   rnuca.FromWorkload(w),
		Designs: rnuca.AllDesigns(),
		Options: rnuca.RunOptions{Warm: 5000, Measure: 15000, Config: &cfg, Timeline: tl},
	}.Compare(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestResultsGolden recomputes every golden cell and compares it with
// testdata/results-golden.json; -update rewrites the file. A link-queue
// cell's Result must also equal the same cell run without a recorder.
func TestResultsGolden(t *testing.T) {
	got := map[string]map[string]any{}
	for _, mk := range goldenWorkloads {
		w := mk()
		for _, topo := range []string{"torus", "mesh"} {
			for _, model := range []string{"analytic", "linkqueue"} {
				key := w.Name + "/" + topo + "/" + model
				mesh, queues := topo == "mesh", model == "linkqueue"
				recorded := goldenCompare(t, w, mesh, queues, &rnuca.TimelineConfig{Every: 2048})
				var bare map[rnuca.DesignID]rnuca.Result
				if queues {
					bare = goldenCompare(t, w, mesh, queues, nil)
				}
				cell := map[string]any{}
				for id, r := range recorded {
					res := exactValue(reflect.ValueOf(r.Result))
					if bare != nil && !reflect.DeepEqual(exactValue(reflect.ValueOf(bare[id].Result)), res) {
						t.Errorf("%s %s: the flight recorder changed the Result", key, id)
					}
					tl, err := json.Marshal(r.Timeline)
					if err != nil {
						t.Fatal(err)
					}
					cell[string(id)] = map[string]any{"Result": res, "Timeline": fmt.Sprintf("%x", sha256.Sum256(tl))}
				}
				got[key] = cell
			}
		}
	}
	enc, err := json.MarshalIndent(got, "", " ")
	if err != nil {
		t.Fatal(err)
	}
	enc = append(enc, '\n')
	if *updateGolden {
		if err := os.WriteFile(goldenPath, enc, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(raw, enc) {
		return
	}
	var pinned, current map[string]map[string]any
	if err := json.Unmarshal(raw, &pinned); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(enc, &current); err != nil {
		t.Fatal(err)
	}
	for key, cell := range current {
		for id := range cell {
			if !reflect.DeepEqual(cell[id], pinned[key][id]) {
				t.Errorf("%s %s: result changed; if intended, rerun with -update and explain why", key, id)
			}
		}
	}
	if !t.Failed() {
		t.Errorf("%s differs from the current simulator's encoding; rerun with -update", goldenPath)
	}
}

// exactValue renders a value with every field exact: floats as their
// IEEE-754 bits, integers in decimal, all as strings, so a JSON round
// trip loses nothing.
func exactValue(v reflect.Value) any {
	switch v.Kind() {
	case reflect.Float32, reflect.Float64:
		return fmt.Sprintf("%016x", math.Float64bits(v.Float()))
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		return fmt.Sprint(v.Int())
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		return fmt.Sprint(v.Uint())
	case reflect.Bool:
		return fmt.Sprint(v.Bool())
	case reflect.String:
		return v.String()
	case reflect.Array, reflect.Slice:
		out := make([]any, v.Len())
		for i := range out {
			out[i] = exactValue(v.Index(i))
		}
		return out
	case reflect.Struct:
		out := map[string]any{}
		for i := 0; i < v.NumField(); i++ {
			out[v.Type().Field(i).Name] = exactValue(v.Field(i))
		}
		return out
	}
	panic(fmt.Sprintf("cannot encode a %s exactly", v.Kind()))
}
