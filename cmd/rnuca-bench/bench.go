package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// benchSchema versions the trajectory file; bump only when a field
// changes meaning, so dashboards can trust old artifacts.
const benchSchema = 1

// BenchResult is one benchmark's distilled measurements.
type BenchResult struct {
	Name        string  `json:"name"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  float64 `json:"bytes_per_op,omitempty"`
	AllocsPerOp float64 `json:"allocs_per_op,omitempty"`
	MBPerS      float64 `json:"mb_per_s,omitempty"`
}

// BenchFile is the on-disk trajectory: one record per benchmark,
// sorted by name, stamped with the writing toolchain and the machine
// that ran it. Files written before the host stamp carry none.
type BenchFile struct {
	Schema     int           `json:"schema"`
	Go         string        `json:"go"`
	Host       string        `json:"host,omitempty"`
	CPU        string        `json:"cpu,omitempty"`
	GOMAXPROCS int           `json:"gomaxprocs,omitempty"`
	Bench      []BenchResult `json:"bench"`
}

// machine names the host that recorded a file.
func (f BenchFile) machine() string {
	if f.Host == "" && f.CPU == "" {
		return "an unrecorded host"
	}
	return fmt.Sprintf("%s (%s, GOMAXPROCS %d)", f.Host, f.CPU, f.GOMAXPROCS)
}

// HostWarning returns a warning naming both machines when two files
// were recorded on different ones, whose ns/op then differ by the
// hardware as well as the code; "" when the machines match.
func HostWarning(old, cur BenchFile) string {
	if old.Host == cur.Host && old.CPU == cur.CPU && old.GOMAXPROCS == cur.GOMAXPROCS {
		return ""
	}
	return fmt.Sprintf("warning: comparing runs from different hosts: %s vs %s", old.machine(), cur.machine())
}

// cpuModel returns the first "model name" of cpuinfo, or "" if it has
// none.
func cpuModel(cpuinfo string) string {
	for _, line := range strings.Split(cpuinfo, "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return ""
}

// Delta is one benchmark whose ns/op grew beyond the threshold.
type Delta struct {
	Name     string
	Old, New float64
	Delta    float64 // (new-old)/old
	Gated    bool
}

// ParseBenchLine distills one `go test -bench` result line, e.g.
//
//	BenchmarkEngineRNUCA-8   1000  1234 ns/op  56 B/op  7 allocs/op
//
// The trailing -N GOMAXPROCS suffix is stripped so trajectories from
// machines with different core counts stay comparable.
func ParseBenchLine(line string) (BenchResult, bool) {
	f := strings.Fields(line)
	if len(f) < 4 || !strings.HasPrefix(f[0], "Benchmark") {
		return BenchResult{}, false
	}
	name := f[0]
	if i := strings.LastIndex(name, "-"); i > 0 {
		if _, err := strconv.Atoi(name[i+1:]); err == nil {
			name = name[:i]
		}
	}
	if _, err := strconv.Atoi(f[1]); err != nil {
		return BenchResult{}, false
	}
	r := BenchResult{Name: name}
	seen := false
	for i := 2; i+1 < len(f); i += 2 {
		v, err := strconv.ParseFloat(f[i], 64)
		if err != nil {
			return BenchResult{}, false
		}
		switch f[i+1] {
		case "ns/op":
			r.NsPerOp, seen = v, true
		case "B/op":
			r.BytesPerOp = v
		case "allocs/op":
			r.AllocsPerOp = v
		case "MB/s":
			r.MBPerS = v
		}
	}
	return r, seen
}

// MergeResult folds a parsed result into the set, keeping the fastest
// ns/op when -count repeats a benchmark (and that run's companion
// stats, so the record stays internally consistent).
func MergeResult(results []BenchResult, r BenchResult) []BenchResult {
	for i, have := range results {
		if have.Name == r.Name {
			if r.NsPerOp < have.NsPerOp {
				results[i] = r
			}
			return results
		}
	}
	return append(results, r)
}

// Compare reports every benchmark present in both runs whose ns/op
// grew by more than threshold; entries matching gate are the ones a CI
// run fails on.
func Compare(old, cur []BenchResult, threshold float64, gate *regexp.Regexp) []Delta {
	prev := make(map[string]BenchResult, len(old))
	for _, r := range old {
		prev[r.Name] = r
	}
	var out []Delta
	for _, r := range cur {
		p, ok := prev[r.Name]
		if !ok || p.NsPerOp <= 0 {
			continue
		}
		d := (r.NsPerOp - p.NsPerOp) / p.NsPerOp
		if d <= threshold {
			continue
		}
		out = append(out, Delta{
			Name: r.Name, Old: p.NsPerOp, New: r.NsPerOp,
			Delta: d, Gated: gate != nil && gate.MatchString(r.Name),
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Delta > out[j].Delta })
	return out
}

// FullDelta is one row of the -compare table: a benchmark's
// measurements in two trajectories. A benchmark absent on one side
// still gets a row (InOld/InNew mark which).
type FullDelta struct {
	Name         string
	InOld, InNew bool
	Old, New     BenchResult
}

// NsDelta is the relative ns/op change, (new-old)/old.
func (d FullDelta) NsDelta() float64 {
	if !d.InOld || !d.InNew || d.Old.NsPerOp <= 0 {
		return 0
	}
	return (d.New.NsPerOp - d.Old.NsPerOp) / d.Old.NsPerOp
}

// CompareAll joins two trajectories into the full delta table: one
// row per benchmark present in either, sorted by name. Unlike
// Compare, nothing is filtered — improvements, no-changes, and
// added/removed benchmarks all appear.
func CompareAll(old, cur []BenchResult) []FullDelta {
	rows := map[string]*FullDelta{}
	for _, r := range old {
		rows[r.Name] = &FullDelta{Name: r.Name, InOld: true, Old: r}
	}
	for _, r := range cur {
		d := rows[r.Name]
		if d == nil {
			d = &FullDelta{Name: r.Name}
			rows[r.Name] = d
		}
		d.InNew = true
		d.New = r
	}
	out := make([]FullDelta, 0, len(rows))
	for _, d := range rows {
		out = append(out, *d)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// RenderDeltas writes the -compare table: ns/op on both sides with
// the relative change, plus allocation deltas when either side
// reported them.
func RenderDeltas(w io.Writer, rows []FullDelta) {
	fmt.Fprintf(w, "%-44s %14s %14s %9s %14s %14s\n",
		"benchmark", "old ns/op", "new ns/op", "delta", "old allocs/op", "new allocs/op")
	for _, d := range rows {
		name := d.Name
		switch {
		case !d.InOld:
			fmt.Fprintf(w, "%-44s %14s %14.1f %9s %14s %14.0f\n",
				name, "-", d.New.NsPerOp, "new", "-", d.New.AllocsPerOp)
		case !d.InNew:
			fmt.Fprintf(w, "%-44s %14.1f %14s %9s %14.0f %14s\n",
				name, d.Old.NsPerOp, "-", "removed", d.Old.AllocsPerOp, "-")
		default:
			fmt.Fprintf(w, "%-44s %14.1f %14.1f %+8.1f%% %14.0f %14.0f\n",
				name, d.Old.NsPerOp, d.New.NsPerOp, 100*d.NsDelta(),
				d.Old.AllocsPerOp, d.New.AllocsPerOp)
		}
	}
}

// streamParser reassembles benchmark result lines from test2json
// output events. The events split lines mid-way: a benchmark's name is
// flushed when it starts ("BenchmarkX \t", no newline) and its
// measurements arrive in a later event, so output must be buffered per
// test until a newline completes the line.
type streamParser struct {
	bufs    map[string]string
	Results []BenchResult
}

func newStreamParser() *streamParser { return &streamParser{bufs: map[string]string{}} }

// Feed appends one event's output for a test, parsing any lines it
// completes.
func (p *streamParser) Feed(test, output string) {
	p.bufs[test] += output
	for {
		i := strings.IndexByte(p.bufs[test], '\n')
		if i < 0 {
			return
		}
		line := p.bufs[test][:i]
		p.bufs[test] = p.bufs[test][i+1:]
		if r, ok := ParseBenchLine(line); ok {
			p.Results = MergeResult(p.Results, r)
		}
	}
}

// loadBenchFile reads and sanity-checks a trajectory file.
func loadBenchFile(path string) (BenchFile, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return BenchFile{}, err
	}
	var f BenchFile
	if err := json.Unmarshal(b, &f); err != nil {
		return BenchFile{}, fmt.Errorf("parsing %s: %w", path, err)
	}
	if f.Schema != benchSchema {
		return BenchFile{}, fmt.Errorf("%s: schema %d, want %d", path, f.Schema, benchSchema)
	}
	return f, nil
}

// writeBenchFile writes a trajectory file, sorted by benchmark name so
// diffs between runs are stable.
func writeBenchFile(path string, f BenchFile) error {
	sort.Slice(f.Bench, func(i, j int) bool { return f.Bench[i].Name < f.Bench[j].Name })
	b, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
