// Command rnuca-sim runs a single workload x design simulation and prints
// the CPI stack, miss counts, and classification accuracy.
//
// Usage:
//
//	rnuca-sim -workload OLTP-DB2 -design R [-warm N] [-measure N]
//	          [-clusters 4] [-batches 1] [-trace-out spans.json]
//	          [-timeline FILE] [-epoch N]
//	          [-cpuprofile cpu.pprof] [-memprofile mem.pprof]
//
// SIGINT (Ctrl-C) cancels the simulation cooperatively: the engine
// stops at its next progress poll and the partial result measured so
// far is printed before exit. -trace-out records the run's span export
// (internal/obs) as JSON and prints the stage timing table;
// -cpuprofile and -memprofile write runtime/pprof profiles for the
// whole run.
//
// -timeline records a flight-recorder timeline (per-core CPI, bank
// pressure, classification churn, link utilization per epoch of
// -epoch measured refs) and writes it to FILE — rendered text, or a
// JSON object keyed "workload/design" when FILE ends in .json. "-"
// renders to stdout. Recording is pure observation: the measured
// result is bit-identical with or without it.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"strings"
	"syscall"

	"rnuca"
	"rnuca/internal/report"
	"rnuca/internal/sim"
	"rnuca/internal/workload"
)

func main() {
	// Exit codes funnel through run so the profile- and trace-writing
	// defers always flush (os.Exit would skip them).
	os.Exit(run())
}

func run() int {
	wl := flag.String("workload", "OLTP-DB2", "workload name (see -list)")
	ds := flag.String("design", "R", "design: P, A, S, R or I")
	warm := flag.Int("warm", 0, "warmup references (0 = default)")
	measure := flag.Int("measure", 0, "measured references (0 = default)")
	clusters := flag.Int("clusters", 0, "R-NUCA instruction cluster size override")
	batches := flag.Int("batches", 1, "independently seeded batches (CI when >1)")
	asJSON := flag.Bool("json", false, "emit the result as JSON")
	list := flag.Bool("list", false, "list workloads and exit")
	outputs := report.OutputFlags(flag.CommandLine)
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile to this path")
	memProfile := flag.String("memprofile", "", "write a heap profile to this path on exit")
	flag.Parse()

	if *list {
		for _, w := range append(rnuca.Primary(), rnuca.Extended()...) {
			fmt.Printf("%-12s %s, %d cores\n", w.Name, w.Category, w.Cores)
		}
		return 0
	}
	w, ok := workload.ByName(*wl)
	if !ok {
		fmt.Fprintf(os.Stderr, "unknown workload %q (try -list)\n", *wl)
		return 2
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "rnuca-sim: cpuprofile: %v\n", err)
			return 1
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "rnuca-sim: cpuprofile: %v\n", err)
			f.Close()
			return 1
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				fmt.Fprintf(os.Stderr, "rnuca-sim: memprofile: %v\n", err)
				return
			}
			defer f.Close()
			runtime.GC() // settle allocations so the heap profile is current
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "rnuca-sim: memprofile: %v\n", err)
			}
		}()
	}

	ctx, timeline := outputs.Start(ctx)
	var gauge rnuca.ProgressGauge
	job := rnuca.Job{
		Input:   rnuca.FromWorkload(w),
		Designs: []rnuca.DesignID{rnuca.DesignID(strings.ToUpper(*ds))},
		Options: rnuca.RunOptions{
			Warm: *warm, Measure: *measure, Batches: *batches,
			InstrClusterSize: *clusters,
			Progress:         gauge.Observe,
			Timeline:         timeline,
		},
	}
	id := job.Designs[0]

	r, err := job.Run(ctx)
	interrupted := errors.Is(err, context.Canceled)
	if err != nil && !interrupted {
		fmt.Fprintf(os.Stderr, "rnuca-sim: %v\n", err)
		return 2
	}
	stages, werr := outputs.Finish(map[string]*rnuca.Timeline{fmt.Sprintf("%s/%s", w.Name, id): r.Timeline})
	if werr != nil {
		fmt.Fprintf(os.Stderr, "rnuca-sim: %v\n", werr)
		return 1
	}
	if interrupted {
		// The engine stopped at its progress poll; report how far it
		// got and print the partial accounting instead of dying
		// mid-write.
		done, total := gauge.Progress()
		fmt.Fprintf(os.Stderr, "rnuca-sim: interrupted at %d of %d refs; partial result follows\n",
			done, total)
	}

	if *asJSON {
		out := map[string]interface{}{
			"workload": w.Name,
			"design":   string(id),
			"cpi":      r.CPI(),
			"cpiStack": map[string]float64{
				"busy":    r.CPIStack[sim.BucketBusy],
				"l1toL1":  r.CPIStack[sim.BucketL1toL1],
				"l2":      r.CPIStack[sim.BucketL2],
				"l2Coh":   r.CPIStack[sim.BucketL2Coh],
				"offChip": r.CPIStack[sim.BucketOffChip],
				"other":   r.CPIStack[sim.BucketOther],
				"reclass": r.CPIStack[sim.BucketReclass],
			},
			"offChipMisses": r.OffChipMisses,
			"refs":          r.Refs,
			"netMessages":   r.NetMessages,
			"netFlitHops":   r.NetFlitHops,
		}
		if interrupted {
			out["partial"] = true
		}
		if r.ClassifiedAccesses > 0 {
			out["misclassifiedFrac"] = float64(r.MisclassifiedAccesses) / float64(r.ClassifiedAccesses)
			out["mixedPageFrac"] = float64(r.MixedPageAccesses) / float64(r.Refs)
		}
		if len(stages) > 0 {
			out["timing"] = stages
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(out); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		if interrupted {
			return 130
		}
		return 0
	}

	fmt.Printf("%s on %s (%d cores)\n", id, w.Name, w.Cores)
	fmt.Printf("  CPI           %.4f", r.CPI())
	if *batches > 1 {
		fmt.Printf("  (mean %.4f ± %.4f over %d batches)", r.CPIMean, r.CPICI, *batches)
	}
	fmt.Println()
	for _, b := range []sim.Bucket{sim.BucketBusy, sim.BucketL1toL1, sim.BucketL2,
		sim.BucketL2Coh, sim.BucketOffChip, sim.BucketOther, sim.BucketReclass} {
		fmt.Printf("  %-18s %.4f\n", b.String(), r.CPIStack[b])
	}
	if r.Refs > 0 {
		fmt.Printf("  off-chip misses    %d (%.2f%% of %d refs)\n",
			r.OffChipMisses, 100*float64(r.OffChipMisses)/float64(r.Refs), r.Refs)
	}
	if r.ClassifiedAccesses > 0 {
		fmt.Printf("  misclassified      %.3f%% of accesses\n",
			100*float64(r.MisclassifiedAccesses)/float64(r.ClassifiedAccesses))
		fmt.Printf("  multi-class pages  %.1f%% of accesses\n",
			100*float64(r.MixedPageAccesses)/float64(r.Refs))
	}
	if len(stages) > 0 {
		report.StageTable(stages).Render(os.Stdout)
	}
	if interrupted {
		return 130
	}
	return 0
}
