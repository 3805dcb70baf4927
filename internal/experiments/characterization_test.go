package experiments

import (
	"bytes"
	"context"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"rnuca"
	"rnuca/internal/ingest"
	"rnuca/internal/obs"
)

var update = flag.Bool("update", false, "rewrite testdata/characterization.golden from the current analyses")

// convertTiny converts the checked-in Dinero fixture into a 4-core,
// 720-reference corpus named din-ingested and returns its path.
func convertTiny(t *testing.T) string {
	t.Helper()
	fixture := filepath.Join("..", "ingest", "testdata", "tiny.din")
	path := filepath.Join(t.TempDir(), "tiny.rnt")
	sum, err := ingest.Convert([]string{fixture}, path, ingest.Options{
		Interleave: ingest.InterleaveStride,
		Cores:      4,
		Stride:     16,
		Workload:   "din-ingested",
	})
	if err != nil {
		t.Fatalf("convert: %v", err)
	}
	if sum.Refs != 720 {
		t.Fatalf("converted %d refs, want 720", sum.Refs)
	}
	return path
}

// TestCharacterizationGolden pins the text of every §3 table: Figures
// 2–5 over the catalog and the same analyses over an ingested corpus.
// Regenerate with go test -run TestCharacterizationGolden -update.
func TestCharacterizationGolden(t *testing.T) {
	c := NewCampaign(Scale{TraceRefs: 2000})
	if _, err := c.SetInput(rnuca.FromTrace(convertTiny(t))); err != nil {
		t.Fatalf("SetInput: %v", err)
	}
	tables := c.Fig2()
	tables = append(tables, c.Fig3(), c.Fig4(), c.Fig5())
	tables = append(tables, c.FigIngested()...)
	var buf bytes.Buffer
	for _, tab := range tables {
		tab.Render(&buf)
		buf.WriteByte('\n')
	}
	golden := filepath.Join("testdata", "characterization.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("§3 tables differ from %s:\n%s", golden, buf.Bytes())
	}
}

// One campaign's Figures 2–5 analyze each workload once: the four
// figures share one classify.pass per workload.
func TestCharacterizationAnalyzesOncePerWorkload(t *testing.T) {
	tr := obs.NewTrace(0)
	c := NewCampaign(Scale{TraceRefs: 2000})
	c.SetContext(obs.ContextWithTrace(context.Background(), tr))
	c.Fig2()
	c.Fig3()
	c.Fig4()
	c.Fig5()
	passes := map[string]int{}
	for _, sp := range tr.Spans() {
		if sp.Name == "classify.pass" {
			passes[sp.Attrs["workload"]]++
		}
	}
	ws := append(rnuca.Primary(), rnuca.Extended()...)
	if len(passes) != len(ws) {
		t.Fatalf("%d workloads analyzed, want %d: %v", len(passes), len(ws), passes)
	}
	for _, w := range ws {
		if passes[w.Name] != 1 {
			t.Errorf("%s analyzed %d times, want 1", w.Name, passes[w.Name])
		}
	}
}
