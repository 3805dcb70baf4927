package main

import (
	"context"
	_ "embed"
	"encoding/json"
	"fmt"
	"math"
	"path/filepath"
	"reflect"
	"sort"

	"rnuca"
	"rnuca/internal/sim"
	"rnuca/internal/workload"
)

// goldenFile pins one small fixed-seed job per workload: the full
// sim.Result of every design it runs, floats stored as their IEEE-754
// bits. Regenerate it with `go test -run TestGolden -update` when a
// change to simulated behaviour is intended.
//
//go:embed testdata/golden.json
var goldenFile []byte

// goldenSeed is the golden jobs' workload seed; it does not follow
// -seed, so every run checks the same outputs.
const goldenSeed = 20090620

// goldenJob is the small fixed-seed job of a workload's output check.
// The replay check records goldenJob("replay-dss-shared") and replays
// the recording.
func goldenJob(name string) rnuca.Job {
	switch name {
	case "serve-cold":
		return coldJob(goldenSeed)
	case "steady-rnuca-db2":
		return rnuca.Job{
			Input:   rnuca.FromWorkload(withSeed(workload.OLTPDB2(), goldenSeed)),
			Designs: []rnuca.DesignID{rnuca.DesignRNUCA},
			Options: rnuca.RunOptions{Warm: 2000, Measure: 6000},
		}
	case "replay-dss-shared":
		return rnuca.Job{
			Input:   rnuca.FromWorkload(withSeed(workload.DSSQry6(), goldenSeed)),
			Designs: []rnuca.DesignID{rnuca.DesignShared},
			Options: rnuca.RunOptions{Warm: 1000, Measure: 5000},
		}
	case "compare-mix":
		return rnuca.Job{
			Input:   rnuca.FromWorkload(withSeed(workload.MIX(), goldenSeed)),
			Designs: rnuca.AllDesigns(),
			Options: rnuca.RunOptions{Warm: 2000, Measure: 4000},
		}
	}
	panic("bench: no golden job for workload " + name)
}

// goldenResults runs a workload's golden job through the library and
// returns its Results by design. The replay check also requires the
// replay to reproduce the recording run.
func goldenResults(ctx context.Context, name, tmp string) (map[string]sim.Result, error) {
	job := goldenJob(name)
	out := map[string]sim.Result{}
	switch name {
	case "replay-dss-shared":
		path := filepath.Join(tmp, "golden.rnt")
		rec, err := job.Record(ctx, path)
		if err != nil {
			return nil, err
		}
		rep, err := rnuca.Job{Input: rnuca.FromTrace(path), Designs: job.Designs}.Run(ctx)
		if err != nil {
			return nil, err
		}
		if !sameResult(rep.Result, rec.Result) {
			return nil, fmt.Errorf("replay of the golden recording differs from the recording run")
		}
		out[string(rnuca.DesignShared)] = rep.Result
	case "compare-mix":
		cmp, err := job.Compare(ctx)
		if err != nil {
			return nil, err
		}
		for id, res := range cmp {
			out[string(id)] = res.Result
		}
	default:
		res, err := job.Run(ctx)
		if err != nil {
			return nil, err
		}
		out[string(job.Designs[0])] = res.Result
	}
	return out, nil
}

// checkGolden runs a library workload's golden job and checks it.
func (r *run) checkGolden(name string) {
	got, err := goldenResults(r.ctx, name, r.tmp)
	r.verifyGolden(name, got, err)
}

// verifyGolden compares a golden job's Results with the pinned ones;
// each design's Result is one operation, and any difference fails it.
func (r *run) verifyGolden(name string, got map[string]sim.Result, err error) {
	if err != nil {
		r.fail("golden %s: %v", name, err)
		return
	}
	var pinned map[string]map[string]any
	if err := json.Unmarshal(goldenFile, &pinned); err != nil {
		r.fail("golden %s: decoding testdata/golden.json: %v", name, err)
		return
	}
	want := pinned[name]
	if len(want) == 0 {
		r.fail("golden %s: testdata/golden.json pins no results for this workload", name)
		return
	}
	labels := make([]string, 0, len(want))
	for l := range want {
		labels = append(labels, l)
	}
	sort.Strings(labels)
	for _, l := range labels {
		res, ok := got[l]
		switch {
		case !ok:
			r.fail("golden %s: no %s result", name, l)
		case !reflect.DeepEqual(encodeResult(res), want[l]):
			r.fail("golden %s: %s result differs from testdata/golden.json", name, l)
		default:
			r.ok()
		}
	}
}

// encodeResult renders a Result with every field exact: floats as their
// IEEE-754 bits, integers in decimal, all as strings, so a JSON round
// trip loses nothing. Reflection keeps any field sim.Result gains
// covered without changing this code.
func encodeResult(res sim.Result) any {
	return exact(reflect.ValueOf(res))
}

func exact(v reflect.Value) any {
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
			out[i] = exact(v.Index(i))
		}
		return out
	case reflect.Struct:
		out := map[string]any{}
		for i := 0; i < v.NumField(); i++ {
			out[v.Type().Field(i).Name] = exact(v.Field(i))
		}
		return out
	}
	panic(fmt.Sprintf("bench: cannot encode a %s exactly", v.Kind()))
}

// sameResult reports bit-for-bit equality of two Results.
func sameResult(a, b sim.Result) bool {
	return reflect.DeepEqual(encodeResult(a), encodeResult(b))
}
