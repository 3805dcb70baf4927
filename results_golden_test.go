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
	"rnuca/internal/design"
	"rnuca/internal/sim"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/results-golden.json from the current simulator")

// goldenPath is the file that pins simulated behaviour: the full
// sim.Result, the batch statistics and the SHA-256 of the flight
// timeline's JSON for every design on small fixed jobs, across both
// topologies and both contention models, plus one cell per way a job
// reaches the engine (record, replay, batches, windows, Makers, a
// comparison). Floats are stored as IEEE-754 bits, as in
// bench/testdata/golden.json.
var goldenPath = filepath.Join("testdata", "results-golden.json")

// goldenWorkloads are crossed with both topologies and both contention
// models: two 16-core 4x4 workloads and the 8-core MIX, whose 4x2 grid
// has a size-2 y-ring.
var goldenWorkloads = []func() rnuca.Workload{rnuca.OLTPDB2, rnuca.DSSQry6, rnuca.MIX}

// goldenTorusWorkloads are the other primary workloads, pinned on the
// torus with the analytic model only.
var goldenTorusWorkloads = []func() rnuca.Workload{rnuca.OLTPOracle, rnuca.Apache, rnuca.DSSQry8, rnuca.DSSQry13, rnuca.Em3d}

// goldenTimeline is the flight recorder every golden cell attaches.
var goldenTimeline = &rnuca.TimelineConfig{Every: 2048}

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

// goldenEntry renders one Result exactly: the sim.Result, CPIMean and
// CPICI, and the SHA-256 of the timeline's JSON.
func goldenEntry(t *testing.T, r rnuca.Result) map[string]any {
	t.Helper()
	tl, err := json.Marshal(r.Timeline)
	if err != nil {
		t.Fatal(err)
	}
	return map[string]any{
		"Result":   exactValue(reflect.ValueOf(r.Result)),
		"CPIMean":  exactValue(reflect.ValueOf(r.CPIMean)),
		"CPICI":    exactValue(reflect.ValueOf(r.CPICI)),
		"Timeline": fmt.Sprintf("%x", sha256.Sum256(tl)),
	}
}

// goldenPathCells adds one cell per way a job reaches the engine, all
// on OLTP-DB2 (MIX for batched ASR) at 5000/15000 references: a
// recording with its trace's SHA-256; replays of that trace (each
// design, a sharded window, a Maker); generated runs with
// two batches, instruction clusters of 1, 2, 8 and 16 slices (8 is the
// fixed-center fallback on a 4x4 torus), private clusters of 4 and 8
// slices, and a Maker; and a two-batch comparison of P, S, R and I
// beside ASR's adaptive variant alone, run as a Maker.
func goldenPathCells(t *testing.T, got map[string]map[string]any) {
	ctx := context.Background()
	w := rnuca.OLTPDB2()
	gen := rnuca.FromWorkload(w)
	opt := rnuca.RunOptions{Warm: 5000, Measure: 15000, Timeline: goldenTimeline}
	with := func(o rnuca.RunOptions, edit func(*rnuca.RunOptions)) rnuca.RunOptions {
		edit(&o)
		return o
	}
	batches2 := func(o *rnuca.RunOptions) { o.Batches = 2 }
	asr75 := func(ch *sim.Chassis) sim.Design { return design.NewASR(ch, 0.75, 0xA5A5) }
	run := func(in rnuca.Input, id rnuca.DesignID, mk func(*sim.Chassis) sim.Design, o rnuca.RunOptions) map[string]any {
		t.Helper()
		r, err := rnuca.Job{Input: in, Designs: []rnuca.DesignID{id}, Options: o, Maker: mk}.Run(ctx)
		if err != nil {
			t.Fatal(err)
		}
		return goldenEntry(t, r)
	}
	R, S, A := rnuca.DesignRNUCA, rnuca.DesignShared, rnuca.DesignASR

	path := filepath.Join(t.TempDir(), "db2.rnt")
	rec, err := rnuca.Job{Input: gen, Designs: []rnuca.DesignID{R}, Options: opt}.Record(ctx, path)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	got["record/OLTP-DB2"] = map[string]any{"R": goldenEntry(t, rec), "TraceSHA256": fmt.Sprintf("%x", sha256.Sum256(raw))}

	tr := rnuca.FromTrace(path)
	replay := rnuca.RunOptions{Timeline: goldenTimeline}
	got["replay/OLTP-DB2"] = map[string]any{
		"R": run(tr, R, nil, replay), "S": run(tr, S, nil, replay), "A": run(tr, A, nil, replay),
	}
	got["replay/OLTP-DB2/window2000+15000/sharded2"] = map[string]any{"R": run(tr.Window(2000, 15000).Sharded(2), R, nil, replay)}
	got["replay/OLTP-DB2/maker"] = map[string]any{"A0.75": run(tr, A, asr75, replay)}

	got["generated/OLTP-DB2/batches2"] = map[string]any{"R": run(gen, R, nil, with(opt, batches2))}
	got["generated/MIX/batches2"] = map[string]any{"A": run(rnuca.FromWorkload(rnuca.MIX()), A, nil, with(opt, batches2))}
	got["generated/OLTP-DB2/instr1"] = map[string]any{"R": run(gen, R, nil, with(opt, func(o *rnuca.RunOptions) { o.InstrClusterSize = 1 }))}
	got["generated/OLTP-DB2/instr2"] = map[string]any{"R": run(gen, R, nil, with(opt, func(o *rnuca.RunOptions) { o.InstrClusterSize = 2 }))}
	got["generated/OLTP-DB2/instr8"] = map[string]any{"R": run(gen, R, nil, with(opt, func(o *rnuca.RunOptions) { o.InstrClusterSize = 8 }))}
	got["generated/OLTP-DB2/instr16"] = map[string]any{"R": run(gen, R, nil, with(opt, func(o *rnuca.RunOptions) { o.InstrClusterSize = 16 }))}
	got["generated/OLTP-DB2/private4"] = map[string]any{"R": run(gen, R, nil, with(opt, func(o *rnuca.RunOptions) { o.PrivateClusterSize = 4 }))}
	got["generated/OLTP-DB2/private8"] = map[string]any{"R": run(gen, R, nil, with(opt, func(o *rnuca.RunOptions) { o.PrivateClusterSize = 8 }))}
	got["generated/OLTP-DB2/maker"] = map[string]any{"A0.75": run(gen, A, asr75, opt)}

	cmp, err := rnuca.Job{Input: gen, Designs: []rnuca.DesignID{rnuca.DesignPrivate, S, R, rnuca.DesignIdeal},
		Options: with(opt, batches2)}.Compare(ctx)
	if err != nil {
		t.Fatal(err)
	}
	adaptive := func(ch *sim.Chassis) sim.Design { return rnuca.NewDesign(A, ch) }
	cell := map[string]any{"A/adaptive": run(gen, A, adaptive, with(opt, batches2))}
	for id, r := range cmp {
		cell[string(id)] = goldenEntry(t, r)
	}
	got["generated/OLTP-DB2/batches2/compare"] = cell
}

// goldenPressureCells runs goldenWorkloads on the torus under both
// contention models with 16-set L2 slices and 8-entry victim caches. At
// Table 1's sizes these runs never evict a slice line or hit a victim
// cache; here every design does both, so the cells pin the swap-back,
// spill and displaced-block paths. Besides the five designs each cell
// holds Maker cells for the broadcast private design, R-NUCA with
// per-core private clusters of sizes 1, 2 and 4 in turn, and static ASR.
func goldenPressureCells(t *testing.T, got map[string]map[string]any) {
	ctx := context.Background()
	for _, mkw := range goldenWorkloads {
		w := mkw()
		for _, model := range []string{"analytic", "linkqueue"} {
			cfg := rnuca.ConfigFor(w)
			cfg.LinkQueues = model == "linkqueue"
			cfg.L2SliceBytes = cfg.L2Ways * cfg.BlockBytes * 16
			cfg.VictimEntries = 8
			job := rnuca.Job{
				Input:   rnuca.FromWorkload(w),
				Designs: rnuca.AllDesigns(),
				Options: rnuca.RunOptions{Warm: 5000, Measure: 15000, Config: &cfg, Timeline: goldenTimeline},
			}
			res, err := job.Compare(ctx)
			if err != nil {
				t.Fatal(err)
			}
			cell := map[string]any{}
			for id, r := range res {
				cell[string(id)] = goldenEntry(t, r)
			}
			sizes := make([]int, cfg.Cores)
			for i := range sizes {
				sizes[i] = 1 << (i % 3)
			}
			for name, mk := range map[string]func(*sim.Chassis) sim.Design{
				"Pb":           func(ch *sim.Chassis) sim.Design { return design.NewPrivateBroadcast(ch) },
				"R/private124": func(ch *sim.Chassis) sim.Design { return design.NewReactiveWithPrivateClusters(ch, sizes) },
				"A0.25":        func(ch *sim.Chassis) sim.Design { return design.NewASR(ch, 0.25, 0xA5A5) },
			} {
				mj := job
				mj.Designs, mj.Maker = nil, mk
				r, err := mj.Run(ctx)
				if err != nil {
					t.Fatal(err)
				}
				cell[name] = goldenEntry(t, r)
			}
			got["pressure/"+w.Name+"/torus/"+model] = cell
		}
	}
}

// TestResultsGolden recomputes every golden cell and compares it with
// testdata/results-golden.json; -update rewrites the file. A link-queue
// cell's Result must also equal the same cell run without a recorder.
func TestResultsGolden(t *testing.T) {
	got := map[string]map[string]any{}
	for _, g := range []struct {
		workloads     []func() rnuca.Workload
		topos, models []string
	}{
		{goldenWorkloads, []string{"torus", "mesh"}, []string{"analytic", "linkqueue"}},
		{goldenTorusWorkloads, []string{"torus"}, []string{"analytic"}},
	} {
		for _, mk := range g.workloads {
			w := mk()
			for _, topo := range g.topos {
				for _, model := range g.models {
					key := w.Name + "/" + topo + "/" + model
					mesh, queues := topo == "mesh", model == "linkqueue"
					recorded := goldenCompare(t, w, mesh, queues, goldenTimeline)
					var bare map[rnuca.DesignID]rnuca.Result
					if queues {
						bare = goldenCompare(t, w, mesh, queues, nil)
					}
					cell := map[string]any{}
					for id, r := range recorded {
						e := goldenEntry(t, r)
						if bare != nil && !reflect.DeepEqual(goldenEntry(t, bare[id])["Result"], e["Result"]) {
							t.Errorf("%s %s: the flight recorder changed the Result", key, id)
						}
						cell[string(id)] = e
					}
					got[key] = cell
				}
			}
		}
	}
	goldenPathCells(t, got)
	goldenPressureCells(t, got)
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
