package ingest_test

import (
	"crypto/sha256"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"rnuca/internal/ingest"
)

var update = flag.Bool("update", false, "rewrite testdata/classify.golden from the current converter")

// randomKeepCSV writes a seeded keep-mode CSV stream over a few pages,
// cores and threads that mixes fetches, loads and stores, so every §4.3
// transition fires: threads wander between cores (migrations), share
// pages (private->shared), fetch from data pages (private->instr) and
// store to code pages (instr->shared).
func randomKeepCSV(t *testing.T) string {
	t.Helper()
	const refs, pages, cores, threads = 4000, 48, 4, 5
	rng := rand.New(rand.NewSource(21))
	var b strings.Builder
	b.WriteString("addr,kind,core,thread\n")
	for i := 0; i < refs; i++ {
		kind := "load"
		switch k := rng.Intn(10); {
		case k < 2:
			kind = "ifetch"
		case k < 5:
			kind = "store"
		}
		addr := uint64(rng.Intn(pages))*ingest.DefaultPageBytes + uint64(rng.Intn(128))*64
		fmt.Fprintf(&b, "%#x,%s,%d,%d\n", addr, kind, rng.Intn(cores), rng.Intn(threads))
	}
	path := filepath.Join(t.TempDir(), "random.csv")
	if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestClassifyGolden pins the bytes Convert writes, and the classifier's
// counters, for the checked-in fixtures under every classify mode and
// for a seeded stream that fires every re-classification kind, both
// unbounded and with a page bound small enough to evict. Regenerate
// intentionally with -update.
func TestClassifyGolden(t *testing.T) {
	random := randomKeepCSV(t)
	stride := ingest.Options{Interleave: ingest.InterleaveStride, Cores: 4, Stride: 16}
	keep := ingest.Options{Interleave: ingest.InterleaveKeep}
	bounded := keep
	bounded.MaxPages = 6
	cases := []struct {
		name  string
		input string
		opt   ingest.Options
	}{
		{"tiny.din", fixture("tiny.din"), stride},
		{"tiny.champ", fixture("tiny.champ"), stride},
		{"tiny.csv", fixture("tiny.csv"), keep},
		{"random.csv", random, keep},
		{"random.csv/max6", random, bounded},
	}
	modes := []ingest.ClassifyMode{ingest.ClassifyStream, ingest.ClassifyTwoPass, ingest.ClassifyOff}
	dir := t.TempDir()
	var got strings.Builder
	for _, c := range cases {
		for _, mode := range modes {
			opt := c.opt
			opt.Classify = mode
			out := filepath.Join(dir, "out.rnt")
			sum, err := ingest.Convert([]string{c.input}, out, opt)
			if err != nil {
				t.Fatalf("%s %v: %v", c.name, mode, err)
			}
			b, err := os.ReadFile(out)
			if err != nil {
				t.Fatal(err)
			}
			cs := sum.Classify
			fmt.Fprintf(&got, "%s %v sha256=%x refs=%d classes=%v\n", c.name, mode, sha256.Sum256(b), sum.Refs, sum.Classes)
			fmt.Fprintf(&got, "  pages=%d evictions=%d first_touches=%d private_to_shared=%d migrations=%d instr_to_shared=%d private_to_instr=%d\n",
				cs.Pages, cs.Evictions, cs.FirstTouches, cs.PrivateToShared, cs.Migrations, cs.InstrToShared, cs.PrivateToInstr)
			if strings.HasPrefix(c.name, "random") && mode == ingest.ClassifyStream {
				if cs.PrivateToShared == 0 || cs.Migrations == 0 || cs.InstrToShared == 0 || cs.PrivateToInstr == 0 {
					t.Errorf("%s: a re-classification kind never fired: %+v", c.name, cs)
				}
				if opt.MaxPages > 0 && cs.Evictions == 0 {
					t.Errorf("%s: the bounded table never evicted: %+v", c.name, cs)
				}
			}
		}
	}
	const path = "testdata/classify.golden"
	if *update {
		if err := os.WriteFile(path, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != string(want) {
		t.Errorf("converted corpora drifted (-update to regenerate).\n--- got ---\n%s--- want ---\n%s", got.String(), want)
	}
}
