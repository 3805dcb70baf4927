package main

import (
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

func TestParseBenchLine(t *testing.T) {
	r, ok := ParseBenchLine("BenchmarkEngineRNUCA-8   \t 1201\t   997315 ns/op\t  2048 B/op\t      12 allocs/op\n")
	if !ok {
		t.Fatal("line did not parse")
	}
	if r.Name != "BenchmarkEngineRNUCA" {
		t.Fatalf("name = %q (GOMAXPROCS suffix must be stripped)", r.Name)
	}
	if r.NsPerOp != 997315 || r.BytesPerOp != 2048 || r.AllocsPerOp != 12 {
		t.Fatalf("parsed %+v", r)
	}

	r, ok = ParseBenchLine("BenchmarkThroughput-4 500 2500000 ns/op 64.21 MB/s")
	if !ok || r.MBPerS != 64.21 {
		t.Fatalf("MB/s parse: %+v ok=%v", r, ok)
	}

	for _, bad := range []string{
		"PASS",
		"ok  \trnuca\t42.1s",
		"BenchmarkBroken-8 notanumber 5 ns/op",
		"goos: linux",
		"BenchmarkNoUnit-8 100 200", // iterations but no ns/op
	} {
		if _, ok := ParseBenchLine(bad); ok {
			t.Fatalf("%q must not parse", bad)
		}
	}
}

func TestMergeResultKeepsFastest(t *testing.T) {
	rs := MergeResult(nil, BenchResult{Name: "BenchmarkX", NsPerOp: 100, AllocsPerOp: 5})
	rs = MergeResult(rs, BenchResult{Name: "BenchmarkX", NsPerOp: 80, AllocsPerOp: 4})
	rs = MergeResult(rs, BenchResult{Name: "BenchmarkX", NsPerOp: 120, AllocsPerOp: 3})
	if len(rs) != 1 || rs[0].NsPerOp != 80 || rs[0].AllocsPerOp != 4 {
		t.Fatalf("merged %+v", rs)
	}
}

// The regression gate: a slowed engine benchmark beyond the threshold
// fails, a slowed non-gated benchmark only warns, and noise inside the
// threshold passes silently.
func TestCompareGate(t *testing.T) {
	gate := regexp.MustCompile("^BenchmarkEngine")
	old := []BenchResult{
		{Name: "BenchmarkEngineRNUCA", NsPerOp: 1000},
		{Name: "BenchmarkEnginePrivate", NsPerOp: 1000},
		{Name: "BenchmarkFigure12Speedup", NsPerOp: 1000},
		{Name: "BenchmarkRemoved", NsPerOp: 1000},
	}
	cur := []BenchResult{
		{Name: "BenchmarkEngineRNUCA", NsPerOp: 1400},     // gated regression
		{Name: "BenchmarkEnginePrivate", NsPerOp: 1100},   // within threshold
		{Name: "BenchmarkFigure12Speedup", NsPerOp: 1500}, // non-gated
		{Name: "BenchmarkAdded", NsPerOp: 9999},           // no baseline
	}
	ds := Compare(old, cur, 0.15, gate)
	if len(ds) != 2 {
		t.Fatalf("deltas = %+v", ds)
	}
	// Sorted by severity: the 50% figure slowdown before the 40% engine one.
	if ds[0].Name != "BenchmarkFigure12Speedup" || ds[0].Gated {
		t.Fatalf("ds[0] = %+v", ds[0])
	}
	if ds[1].Name != "BenchmarkEngineRNUCA" || !ds[1].Gated {
		t.Fatalf("ds[1] = %+v", ds[1])
	}
	if ds[1].Delta < 0.39 || ds[1].Delta > 0.41 {
		t.Fatalf("delta = %v", ds[1].Delta)
	}
}

func TestCompareNoRegression(t *testing.T) {
	old := []BenchResult{{Name: "BenchmarkEngineRNUCA", NsPerOp: 1000}}
	cur := []BenchResult{{Name: "BenchmarkEngineRNUCA", NsPerOp: 900}}
	if ds := Compare(old, cur, 0.15, regexp.MustCompile("^BenchmarkEngine")); len(ds) != 0 {
		t.Fatalf("faster run reported as regression: %+v", ds)
	}
}

// Round-trip the trajectory file and reject foreign schemas, so a
// future schema bump cannot be silently compared against old data.
func TestBenchFileRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "BENCH.json")
	in := BenchFile{Schema: benchSchema, Go: "go1.24.0", Host: "h1", CPU: "Example CPU @ 2.00GHz", GOMAXPROCS: 2, Bench: []BenchResult{
		{Name: "BenchmarkB", NsPerOp: 2},
		{Name: "BenchmarkA", NsPerOp: 1, BytesPerOp: 3, AllocsPerOp: 4, MBPerS: 5},
	}}
	if err := writeBenchFile(path, in); err != nil {
		t.Fatal(err)
	}
	got, err := loadBenchFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Bench) != 2 || got.Bench[0].Name != "BenchmarkA" {
		t.Fatalf("round trip not sorted: %+v", got.Bench)
	}
	if got.Bench[0].MBPerS != 5 || got.Go != "go1.24.0" || got.Host != "h1" || got.CPU != in.CPU || got.GOMAXPROCS != 2 {
		t.Fatalf("round trip dropped fields: %+v", got)
	}

	if err := os.WriteFile(path, []byte(`{"schema":99,"bench":[]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := loadBenchFile(path); err == nil {
		t.Fatal("foreign schema must be rejected")
	}
}

// Files recorded before the host stamp still load, and a comparison
// across machines warns, naming both.
func TestHostWarning(t *testing.T) {
	old, err := loadBenchFile(filepath.Join("..", "..", "BENCH_14.json"))
	if err != nil {
		t.Fatalf("unstamped file: %v", err)
	}
	a := BenchFile{Host: "ci-1", CPU: "cpu A", GOMAXPROCS: 4}
	if w := HostWarning(a, a); w != "" {
		t.Fatalf("same host warned: %q", w)
	}
	b := a
	b.Host, b.CPU = "laptop", "cpu B"
	if w := HostWarning(a, b); !strings.Contains(w, "ci-1 (cpu A, GOMAXPROCS 4)") || !strings.Contains(w, "laptop (cpu B, GOMAXPROCS 4)") {
		t.Fatalf("host mismatch warning %q", w)
	}
	if w := HostWarning(old, a); !strings.Contains(w, "an unrecorded host vs ci-1") {
		t.Fatalf("unstamped baseline warning %q", w)
	}
	if m := cpuModel("processor\t: 0\nmodel name\t: Example CPU @ 2.00GHz\nflags\t: fpu\n"); m != "Example CPU @ 2.00GHz" {
		t.Fatalf("cpuModel = %q", m)
	}
}

// CompareAll is the -compare table: one row per benchmark in either
// trajectory, sorted by name, nothing filtered.
func TestCompareAll(t *testing.T) {
	old := []BenchResult{
		{Name: "BenchmarkEngineRNUCA", NsPerOp: 1000, AllocsPerOp: 12},
		{Name: "BenchmarkRemoved", NsPerOp: 500},
	}
	cur := []BenchResult{
		{Name: "BenchmarkEngineRNUCA", NsPerOp: 1200, AllocsPerOp: 10},
		{Name: "BenchmarkAdded", NsPerOp: 300},
	}
	rows := CompareAll(old, cur)
	if len(rows) != 3 {
		t.Fatalf("rows = %+v, want 3", rows)
	}
	if rows[0].Name != "BenchmarkAdded" || rows[0].InOld || !rows[0].InNew {
		t.Fatalf("rows[0] = %+v", rows[0])
	}
	if rows[1].Name != "BenchmarkEngineRNUCA" || !rows[1].InOld || !rows[1].InNew {
		t.Fatalf("rows[1] = %+v", rows[1])
	}
	if d := rows[1].NsDelta(); d < 0.19 || d > 0.21 {
		t.Fatalf("NsDelta = %v, want ~0.20", d)
	}
	if rows[2].Name != "BenchmarkRemoved" || !rows[2].InOld || rows[2].InNew {
		t.Fatalf("rows[2] = %+v", rows[2])
	}
	// One-sided rows report no delta rather than a fake ±100%.
	if rows[0].NsDelta() != 0 || rows[2].NsDelta() != 0 {
		t.Fatalf("one-sided deltas: added=%v removed=%v", rows[0].NsDelta(), rows[2].NsDelta())
	}
}

func TestRenderDeltas(t *testing.T) {
	rows := CompareAll(
		[]BenchResult{
			{Name: "BenchmarkEngineRNUCA", NsPerOp: 1000, AllocsPerOp: 12},
			{Name: "BenchmarkRemoved", NsPerOp: 500, AllocsPerOp: 1},
		},
		[]BenchResult{
			{Name: "BenchmarkEngineRNUCA", NsPerOp: 1200, AllocsPerOp: 10},
			{Name: "BenchmarkAdded", NsPerOp: 300, AllocsPerOp: 2},
		})
	var buf strings.Builder
	RenderDeltas(&buf, rows)
	out := buf.String()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 4 {
		t.Fatalf("output has %d lines, want header + 3 rows:\n%s", len(lines), out)
	}
	if !strings.Contains(lines[0], "benchmark") || !strings.Contains(lines[0], "delta") {
		t.Fatalf("header = %q", lines[0])
	}
	for _, want := range []struct{ name, marker string }{
		{"BenchmarkAdded", "new"},
		{"BenchmarkEngineRNUCA", "+20.0%"},
		{"BenchmarkRemoved", "removed"},
	} {
		found := false
		for _, l := range lines[1:] {
			if strings.Contains(l, want.name) && strings.Contains(l, want.marker) {
				found = true
			}
		}
		if !found {
			t.Fatalf("no row with %q and %q in:\n%s", want.name, want.marker, out)
		}
	}
}

// test2json flushes a benchmark's name ("BenchmarkX \t", no newline)
// when it starts and the measurements when it finishes, so one result
// line spans multiple output events. Feed must reassemble them.
func TestStreamParserReassemblesSplitLines(t *testing.T) {
	p := newStreamParser()
	p.Feed("rnuca\x00BenchmarkEngineRNUCA", "=== RUN   BenchmarkEngineRNUCA\n")
	p.Feed("rnuca\x00BenchmarkEngineRNUCA", "BenchmarkEngineRNUCA\n")
	p.Feed("rnuca\x00BenchmarkEngineRNUCA", "BenchmarkEngineRNUCA \t")
	p.Feed("rnuca\x00BenchmarkEngineShared", "BenchmarkEngineShared \t")
	p.Feed("rnuca\x00BenchmarkEngineRNUCA", "   54583\t      1285 ns/op\n")
	p.Feed("rnuca\x00BenchmarkEngineShared", "   60000\t      1100 ns/op\n")
	p.Feed("rnuca\x00", "PASS\n")
	if len(p.Results) != 2 {
		t.Fatalf("parsed %+v, want 2 results", p.Results)
	}
	if p.Results[0].Name != "BenchmarkEngineRNUCA" || p.Results[0].NsPerOp != 1285 {
		t.Fatalf("results[0] = %+v", p.Results[0])
	}
	if p.Results[1].Name != "BenchmarkEngineShared" || p.Results[1].NsPerOp != 1100 {
		t.Fatalf("results[1] = %+v", p.Results[1])
	}
}
