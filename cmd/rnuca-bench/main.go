// Command rnuca-bench runs the repository's Go benchmarks and distills
// them into a stable-schema JSON trajectory file (BENCH_6.json), so CI
// can archive one small artifact per run and fail when the simulation
// engine slows down.
//
// Usage:
//
//	rnuca-bench [-pkg rnuca] [-bench REGEXP] [-benchtime T] [-count N]
//	            [-out BENCH_6.json] [-baseline FILE] [-threshold 0.15]
//	            [-gate '^BenchmarkEngine'] [-dry JSONFILE]
//	rnuca-bench -compare OLD.json NEW.json
//
// The tool shells out to `go test -run '^$' -bench REGEXP -benchmem
// -json` and parses the test2json stream, so it needs the go toolchain
// on PATH but nothing else. When -baseline names an existing file, every
// benchmark present in both runs is compared: a ns/op increase beyond
// -threshold on a benchmark matching -gate fails the run (exit 1);
// non-gated slowdowns are reported as warnings only. -dry skips the
// benchmark run and loads current results from a JSON file instead
// (testing the gate itself, or re-judging an archived run).
//
// -compare runs no benchmarks: it joins two archived trajectory files
// into the full delta table — every benchmark in either file, with
// ns/op and allocs/op on both sides and the relative change;
// informational only, always exit 0.
//
// Each file records the host name, CPU model (from /proc/cpuinfo, else
// GOARCH) and GOMAXPROCS of the run; -compare and the -baseline gate
// print a warning naming both machines when they differ.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"regexp"
	"runtime"
)

func main() {
	pkg := flag.String("pkg", "rnuca", "package whose benchmarks run")
	bench := flag.String("bench", ".", "benchmark selection regexp (go test -bench)")
	benchtime := flag.String("benchtime", "", "per-benchmark time or iteration budget (go test -benchtime)")
	count := flag.Int("count", 1, "runs per benchmark; the minimum ns/op of the runs is kept")
	out := flag.String("out", "BENCH_6.json", "trajectory file to write")
	baseline := flag.String("baseline", "", "previous trajectory file to compare against (missing file = no comparison)")
	threshold := flag.Float64("threshold", 0.15, "relative ns/op increase tolerated before a gated benchmark fails")
	gate := flag.String("gate", "^BenchmarkEngine", "regexp of benchmark names whose regressions fail the run")
	dry := flag.String("dry", "", "load current results from this JSON file instead of running benchmarks")
	compare := flag.Bool("compare", false, "compare two trajectory files (args: OLD.json NEW.json) and print the full delta table")
	flag.Parse()

	if *compare {
		if flag.NArg() != 2 {
			fatalf("-compare needs exactly two arguments: OLD.json NEW.json")
		}
		old, err := loadBenchFile(flag.Arg(0))
		if err != nil {
			fatalf("%v", err)
		}
		cur, err := loadBenchFile(flag.Arg(1))
		if err != nil {
			fatalf("%v", err)
		}
		fmt.Printf("%s (%s) vs %s (%s)\n", flag.Arg(0), old.Go, flag.Arg(1), cur.Go)
		if w := HostWarning(old, cur); w != "" {
			fmt.Println(w)
		}
		RenderDeltas(os.Stdout, CompareAll(old.Bench, cur.Bench))
		return
	}

	gateRe, err := regexp.Compile(*gate)
	if err != nil {
		fatalf("bad -gate: %v", err)
	}

	var cur BenchFile
	if *dry != "" {
		cur, err = loadBenchFile(*dry)
		if err != nil {
			fatalf("%v", err)
		}
	} else {
		results, err := runBenchmarks(*pkg, *bench, *benchtime, *count)
		if err != nil {
			fatalf("%v", err)
		}
		if len(results) == 0 {
			fatalf("no benchmarks matched %q in %s", *bench, *pkg)
		}
		cur = BenchFile{Schema: benchSchema, Go: runtime.Version(), CPU: runtime.GOARCH,
			GOMAXPROCS: runtime.GOMAXPROCS(0), Bench: results}
		cur.Host, _ = os.Hostname()
		if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
			if m := cpuModel(string(b)); m != "" {
				cur.CPU = m
			}
		}
	}

	var prev BenchFile
	havePrev := false
	if *baseline != "" {
		switch p, err := loadBenchFile(*baseline); {
		case err == nil:
			prev, havePrev = p, true
		case os.IsNotExist(err):
			fmt.Printf("no baseline at %s; writing a fresh trajectory\n", *baseline)
		default:
			fatalf("%v", err)
		}
	}

	if *out != "" {
		if err := writeBenchFile(*out, cur); err != nil {
			fatalf("%v", err)
		}
		fmt.Printf("wrote %s (%d benchmarks, %s)\n", *out, len(cur.Bench), cur.Go)
	}

	if !havePrev {
		return
	}
	if w := HostWarning(prev, cur); w != "" {
		fmt.Println(w)
	}
	deltas := Compare(prev.Bench, cur.Bench, *threshold, gateRe)
	failed := false
	for _, d := range deltas {
		tag := "warn"
		if d.Gated {
			tag = "FAIL"
			failed = true
		}
		fmt.Printf("%s  %-40s %12.1f -> %12.1f ns/op (%+.1f%%)\n",
			tag, d.Name, d.Old, d.New, 100*d.Delta)
	}
	if len(deltas) == 0 {
		fmt.Printf("no regressions beyond %.0f%% against %s\n", 100**threshold, *baseline)
	}
	if failed {
		fatalf("gated benchmark regression beyond %.0f%%", 100**threshold)
	}
}

// runBenchmarks shells out to go test and distills the test2json
// stream. count > 1 repeats each benchmark and keeps the fastest run,
// the standard way to shave scheduler noise off a regression gate.
func runBenchmarks(pkg, bench, benchtime string, count int) ([]BenchResult, error) {
	args := []string{"test", "-run", "^$", "-bench", bench, "-benchmem", "-json"}
	if benchtime != "" {
		args = append(args, "-benchtime", benchtime)
	}
	if count > 1 {
		args = append(args, "-count", fmt.Sprint(count))
	}
	args = append(args, pkg)
	cmd := exec.Command("go", args...)
	cmd.Stderr = os.Stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting go test: %w", err)
	}
	parser := newStreamParser()
	sc := bufio.NewScanner(stdout)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<20)
	for sc.Scan() {
		var ev struct {
			Action  string `json:"Action"`
			Package string `json:"Package"`
			Test    string `json:"Test"`
			Output  string `json:"Output"`
		}
		if json.Unmarshal(sc.Bytes(), &ev) != nil || ev.Action != "output" {
			continue
		}
		parser.Feed(ev.Package+"\x00"+ev.Test, ev.Output)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if err := cmd.Wait(); err != nil {
		return nil, fmt.Errorf("go test -bench: %w", err)
	}
	return parser.Results, nil
}

func fatalf(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, "rnuca-bench: "+format+"\n", args...)
	os.Exit(1)
}
