// Command bench is the repository benchmark: it drives the simulator
// through its public entry points (rnuca.Job, the in-process serve tier,
// and the layer constructors) on four workloads and reports end-to-end
// metrics, or with -trace 1 per-layer metrics timed from outside the
// program. Run it from the repository root:
//
//	bash bench/run.sh --workload steady-rnuca-db2 --seed 1 --seconds 20 --trace 0
//
// or from this directory with `go run . -workload ...`. Without
// -workload every workload runs, each in its own child process. The
// last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics; -out also writes the full
// report (host, sample counts, workload-specific extras) to a file.
// See README.md for the workloads, the metrics and how to compare two
// commits.
package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"strings"
	"time"
)

// childEnv marks a process re-executed to run one workload, so peak RSS
// and GC state belong to that workload alone.
const childEnv = "RNUCA_BENCH_CHILD"

// childTimeout bounds one workload process, so that a single-workload
// invocation finishes within three minutes.
const childTimeout = 170 * time.Second

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics of an untraced run, measured on every
// workload; BENCHMARK.json lists the same names and bounds.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"job_p50_s", "s"},
	{"alloc_mb_per_job", "MB"},
	{"peak_rss_mb", "MB"},
}

// perLayer are the metrics of a traced run, measured on every workload.
var perLayer = []metricDef{
	{"setup.source_s", "s"},
	{"setup.source_alloc_mb", "MB"},
	{"setup.chassis_s", "s"},
	{"setup.design_s", "s"},
	{"setup.engine_s", "s"},
	{"job.cell_s", "s"},
	{"job.fold_s", "s"},
	{"job.unattributed_s", "s"},
	{"source.next_ns", "ns"},
	{"engine.sim_ns_per_ref", "ns"},
	{"engine.self_ns_per_ref", "ns"},
	{"design.access_ns", "ns"},
	{"design.unexplained_ns", "ns"},
	{"ospage.translate_ns", "ns"},
	{"ospage.tlb_hit_ratio", "ratio"},
	{"ospage.pages", "count"},
	{"ospage.reclassifications", "count"},
	{"ospage.tlb_shootdowns", "count"},
	{"l1.service_ns", "ns"},
	{"l1.hit_ratio", "ratio"},
	{"coherence.invalidations_per_ref", "ratio"},
	{"cache.l2_probe_ns", "ns"},
	{"cache.l2_hit_ratio", "ratio"},
	{"noc.latency_ns", "ns"},
	{"noc.messages_per_ref", "ratio"},
	{"noc.flit_hops_per_ref", "ratio"},
	{"mem.offchip_per_ref", "ratio"},
	{"flight.overhead_ns_per_ref", "ns"},
	{"trace.timer_ns", "ns"},
	{"trace.overhead_ratio", "ratio"},
}

// metric is one reported number with the count of samples behind it.
type metric struct {
	Name  string  `json:"name"`
	Unit  string  `json:"unit"`
	Value float64 `json:"value"`
	N     int     `json:"n"`
	// Note says why a value is absent (a percentile with too thin a
	// tail); Value is then meaningless.
	Note string `json:"note,omitempty"`
}

// hostInfo records the machine a report was measured on.
type hostInfo struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPU        string `json:"cpu"`
	Go         string `json:"go"`
	OS         string `json:"os"`
}

// report is one workload's outcome: operations attempted and failed,
// the contract metrics (end-to-end, or per-layer when traced) and the
// workload-specific extras.
type report struct {
	Workload  string   `json:"workload"`
	Trace     bool     `json:"trace"`
	Seed      int64    `json:"seed"`
	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	Failures  []string `json:"failures,omitempty"`
	Metrics   []metric `json:"metrics"`
	Extras    []metric `json:"extras,omitempty"`
	Host      hostInfo `json:"host"`
}

// traceFlag accepts -trace 0|1 (also true/false). It is deliberately
// not a boolean flag: those cannot take their value as a separate
// argument, and the benchmark is invoked as `--trace 0`.
type traceFlag bool

func (t *traceFlag) String() string {
	if *t {
		return "1"
	}
	return "0"
}

func (t *traceFlag) Set(s string) error {
	switch strings.ToLower(s) {
	case "1", "true":
		*t = true
	case "0", "false":
		*t = false
	default:
		return fmt.Errorf("want 0 or 1, got %q", s)
	}
	return nil
}

func main() {
	var tr traceFlag
	name := flag.String("workload", "", "workload to run (default: all): "+strings.Join(workloadNames(), ", "))
	seed := flag.Int64("seed", 1, "seed every workload input is derived from")
	seconds := flag.Int("seconds", 20, "length of each workload's timed phase")
	flag.Var(&tr, "trace", "0: end-to-end metrics, tracing off; 1: per-layer metrics from a traced run")
	out := flag.String("out", "", "also write the full JSON report to this file")
	flag.Parse()
	if flag.NArg() > 0 || *seconds < 1 {
		flag.Usage()
		os.Exit(2)
	}
	cfg := config{seed: *seed, seconds: time.Duration(*seconds) * time.Second, trace: bool(tr)}

	if os.Getenv(childEnv) != "" {
		if err := runChild(*name, cfg, os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
		}
		return
	}

	names := workloadNames()
	if *name != "" {
		if _, ok := workloadByName(*name); !ok {
			fmt.Fprintf(os.Stderr, "bench: unknown workload %q (%s)\n", *name, strings.Join(names, ", "))
			os.Exit(2)
		}
		names = []string{*name}
	}
	var reps []report
	for _, n := range names {
		rep, err := runInChild(n)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %s: %v\n", n, err)
			os.Exit(1)
		}
		printReport(os.Stdout, rep)
		reps = append(reps, rep)
	}
	result := contractResult(reps)
	line, err := json.Marshal(result)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	if *out != "" {
		doc, err := json.MarshalIndent(struct {
			Reports []report `json:"reports"`
			Result  any      `json:"result"`
		}{reps, result}, "", "  ")
		if err == nil {
			err = os.WriteFile(*out, append(doc, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench: writing -out:", err)
			os.Exit(1)
		}
	}
	fmt.Println(string(line))
}

// config is what every workload run shares.
type config struct {
	seed    int64
	seconds time.Duration
	trace   bool
}

// runInChild re-executes this binary for one workload and decodes the
// report it prints.
func runInChild(name string) (report, error) {
	exe, err := os.Executable()
	if err != nil {
		return report{}, err
	}
	args := append([]string{"-workload", name}, childArgs()...)
	ctx, cancel := context.WithTimeout(context.Background(), childTimeout)
	defer cancel()
	cmd := exec.CommandContext(ctx, exe, args...)
	cmd.Env = append(os.Environ(), childEnv+"=1")
	cmd.Stderr = os.Stderr
	cmd.WaitDelay = 5 * time.Second
	out, err := cmd.Output()
	if err != nil {
		if ctx.Err() != nil {
			return report{}, fmt.Errorf("workload process exceeded %v", childTimeout)
		}
		return report{}, err
	}
	var rep report
	if err := json.Unmarshal(lastLine(out), &rep); err != nil {
		return report{}, fmt.Errorf("decoding workload report: %w", err)
	}
	return rep, nil
}

// childArgs forwards every flag except -workload and -out.
func childArgs() []string {
	var args []string
	flag.Visit(func(f *flag.Flag) {
		if f.Name != "workload" && f.Name != "out" {
			args = append(args, "-"+f.Name, f.Value.String())
		}
	})
	return args
}

func lastLine(b []byte) []byte {
	lines := bytes.Split(bytes.TrimSpace(b), []byte("\n"))
	return lines[len(lines)-1]
}

// runChild runs one workload in this process and prints its report as
// one JSON line.
func runChild(name string, cfg config, w io.Writer) error {
	def, ok := workloadByName(name)
	if !ok {
		return fmt.Errorf("unknown workload %q", name)
	}
	runtime.GOMAXPROCS(runtime.NumCPU())
	rep, err := runWorkload(def, cfg)
	if err != nil {
		return err
	}
	b, err := json.Marshal(rep)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}

// contractResult is the last line of output: correctness, operation
// counts, and the metrics by name. With several workloads the metric
// names carry a "workload/" prefix.
func contractResult(reps []report) map[string]any {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]value{}
	attempted, failed := 0, 0
	for _, rep := range reps {
		attempted += rep.Attempted
		failed += rep.Failed
		for _, m := range rep.Metrics {
			key := m.Name
			if len(reps) > 1 {
				key = rep.Workload + "/" + m.Name
			}
			metrics[key] = value{m.Value, m.Unit}
		}
	}
	return map[string]any{
		"correct":   failed == 0,
		"attempted": attempted,
		"failed":    failed,
		"metrics":   metrics,
	}
}

// printReport renders a report as an aligned table.
func printReport(w io.Writer, rep report) {
	mode := "end-to-end, tracing off"
	if rep.Trace {
		mode = "per-layer, traced"
	}
	fmt.Fprintf(w, "== %s (%s; seed %d) ==\n", rep.Workload, mode, rep.Seed)
	h := rep.Host
	fmt.Fprintf(w, "host: nproc=%d GOMAXPROCS=%d cpu=%q %s %s\n", h.NProc, h.GOMAXPROCS, h.CPU, h.Go, h.OS)
	fmt.Fprintf(w, "%-34s %-6s %16s %10s\n", "metric", "unit", "value", "samples")
	row := func(m metric) {
		v := fmt.Sprintf("%.6g", m.Value)
		if m.Note != "" {
			v = "omitted"
		}
		fmt.Fprintf(w, "%-34s %-6s %16s %10d", m.Name, m.Unit, v, m.N)
		if m.Note != "" {
			fmt.Fprintf(w, "  (%s)", m.Note)
		}
		fmt.Fprintln(w)
	}
	for _, m := range rep.Metrics {
		row(m)
	}
	if len(rep.Extras) > 0 {
		fmt.Fprintln(w, "-- workload-specific --")
		for _, m := range rep.Extras {
			row(m)
		}
	}
	fmt.Fprintf(w, "operations: attempted %d, failed %d\n", rep.Attempted, rep.Failed)
	for _, f := range rep.Failures {
		fmt.Fprintln(w, "  failed:", f)
	}
	fmt.Fprintln(w)
}

// host describes the machine: core count, scheduler width, CPU model
// and Go version.
func host() hostInfo {
	h := hostInfo{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Go:         runtime.Version(),
		OS:         runtime.GOOS + "/" + runtime.GOARCH,
		CPU:        "unknown",
	}
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	return h
}

// peakRSSMB reads the process's high-water resident set (VmHWM).
func peakRSSMB() (float64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			var kb float64
			if _, err := fmt.Sscanf(strings.TrimSpace(v), "%g kB", &kb); err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("no VmHWM in /proc/self/status")
}
