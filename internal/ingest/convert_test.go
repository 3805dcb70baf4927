package ingest_test

import (
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"rnuca"
	"rnuca/internal/cache"
	"rnuca/internal/ingest"
	"rnuca/internal/trace"
	"rnuca/internal/tracefile"
)

func fixture(name string) string { return filepath.Join("testdata", name) }

// replay runs one design over a converted corpus through the Job API.
func replay(path string, id rnuca.DesignID, opt rnuca.RunOptions) (rnuca.Result, error) {
	job := rnuca.Job{Input: rnuca.FromTrace(path), Designs: []rnuca.DesignID{id}, Options: opt}
	return job.Run(context.Background())
}

// The acceptance path: the checked-in Dinero fixture converts into a
// valid indexed v2 tracefile whose refs carry inferred classes, and the
// corpus replays under R-NUCA and the other designs through
// the rnuca Job API without error.
func TestConvertDineroReplays(t *testing.T) {
	out := filepath.Join(t.TempDir(), "tiny-din.rnt")
	sum, err := ingest.Convert([]string{fixture("tiny.din")}, out, ingest.Options{
		Interleave: ingest.InterleaveStride,
		Cores:      4,
		Stride:     16,
		ChunkRefs:  128,
	})
	if err != nil {
		t.Fatalf("convert: %v", err)
	}
	if sum.Refs != 720 || sum.Cores != 4 || sum.Inputs[0].Format != "din" {
		t.Fatalf("summary %+v", sum)
	}
	if sum.Chunks < 2 {
		t.Fatalf("expected a multi-chunk corpus, got %d chunks", sum.Chunks)
	}

	x, err := tracefile.OpenIndexed(out)
	if err != nil {
		t.Fatalf("converted corpus has no valid index: %v", err)
	}
	if x.Refs() != 720 || x.Header().Cores != 4 || x.Header().Workload != "tiny" {
		t.Fatalf("indexed header %+v, refs %d", x.Header(), x.Refs())
	}
	x.Close()

	w, err := rnuca.TraceWorkload(out)
	if err != nil {
		t.Fatalf("TraceWorkload: %v", err)
	}
	if w.Name != "tiny" || w.Cores != 4 {
		t.Fatalf("synthesized workload %+v", w)
	}

	for _, id := range []rnuca.DesignID{rnuca.DesignRNUCA, rnuca.DesignShared, rnuca.DesignPrivate} {
		res, err := replay(out, id, rnuca.RunOptions{Warm: 120, Measure: 480})
		if err != nil {
			t.Fatalf("replay %s: %v", id, err)
		}
		if res.CPI() <= 0 {
			t.Fatalf("replay %s: CPI %v", id, res.CPI())
		}
	}

	// The derived run split: with no explicit counts and no recorded
	// split, replay sizes itself to the corpus (a fifth warms).
	if _, err := replay(out, rnuca.DesignRNUCA, rnuca.RunOptions{}); err != nil {
		t.Fatalf("replay with derived split: %v", err)
	}
}

// Two single-threaded captures in file-per-core mode become a 2-tile
// workload that replays, including under R-NUCA's reduced-grid
// instruction clustering.
func TestConvertFilesModeReplays(t *testing.T) {
	out := filepath.Join(t.TempDir(), "pair.rnt")
	sum, err := ingest.Convert([]string{fixture("tiny.din"), fixture("tiny.champ")}, out, ingest.Options{
		Interleave: ingest.InterleaveFiles,
		Workload:   "pair",
	})
	if err != nil {
		t.Fatalf("convert: %v", err)
	}
	if sum.Cores != 2 || sum.Refs != 720+480 {
		t.Fatalf("summary %+v", sum)
	}
	if sum.Inputs[0].Refs != 720 || sum.Inputs[1].Refs != 480 {
		t.Fatalf("per-input refs %+v", sum.Inputs)
	}
	if sum.Inputs[1].Format != "champsim" {
		t.Fatalf("champ input detected as %q", sum.Inputs[1].Format)
	}
	for _, id := range []rnuca.DesignID{rnuca.DesignRNUCA, rnuca.DesignShared} {
		if _, err := replay(out, id, rnuca.RunOptions{Warm: 100, Measure: 400}); err != nil {
			t.Fatalf("replay %s: %v", id, err)
		}
	}
}

// Keep mode preserves the core/thread placement a CSV capture carries.
func TestConvertKeepPreservesCores(t *testing.T) {
	out := filepath.Join(t.TempDir(), "csv.rnt")
	sum, err := ingest.Convert([]string{fixture("tiny.csv")}, out, ingest.Options{
		Interleave: ingest.InterleaveKeep,
		Cores:      8,
		Busy:       7,
	})
	if err != nil {
		t.Fatalf("convert: %v", err)
	}
	if sum.Refs != 11 {
		t.Fatalf("refs %d, want 11", sum.Refs)
	}
	_, refs, err := tracefile.ReadFile(out)
	if err != nil {
		t.Fatalf("read back: %v", err)
	}
	// Spot-check the fixture's placement survived (line 5: core 2, and
	// the final line's cross-thread core 3 / thread 7).
	if refs[4].Core != 2 || refs[10].Core != 3 || refs[10].Thread != 7 {
		t.Fatalf("placement lost: %+v / %+v", refs[4], refs[10])
	}
	for _, r := range refs {
		if r.Busy != 7 {
			t.Fatalf("busy budget not applied: %+v", r)
		}
	}
}

// Keep mode without an explicit core count auto-sizes from a pass-0
// scan of the inputs' core ids, and the auto-sized conversion is
// byte-identical to the equivalent explicit one.
func TestConvertKeepAutoCores(t *testing.T) {
	dir := t.TempDir()
	auto := filepath.Join(dir, "auto.rnt")
	sum, err := ingest.Convert([]string{fixture("tiny.csv")}, auto, ingest.Options{
		Interleave: ingest.InterleaveKeep,
		Classify:   ingest.ClassifyTwoPass,
	})
	if err != nil {
		t.Fatalf("convert: %v", err)
	}
	// tiny.csv's highest core id is 3.
	if sum.Cores != 4 || !sum.AutoCores {
		t.Fatalf("auto-sized cores %d (auto %v), want 4 (true)", sum.Cores, sum.AutoCores)
	}
	explicit := filepath.Join(dir, "explicit.rnt")
	esum, err := ingest.Convert([]string{fixture("tiny.csv")}, explicit, ingest.Options{
		Interleave: ingest.InterleaveKeep,
		Cores:      4,
		Classify:   ingest.ClassifyTwoPass,
	})
	if err != nil {
		t.Fatalf("convert explicit: %v", err)
	}
	if esum.AutoCores {
		t.Fatal("explicit -cores reported as auto-sized")
	}
	a, err := os.ReadFile(auto)
	if err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(explicit)
	if err != nil {
		t.Fatal(err)
	}
	if string(a) != string(b) {
		t.Fatal("auto-sized conversion differs from the explicit one")
	}
	// An explicit count below the observed ids still rejects, as before.
	if _, err := ingest.Convert([]string{fixture("tiny.csv")}, filepath.Join(dir, "low.rnt"), ingest.Options{
		Interleave: ingest.InterleaveKeep,
		Cores:      2,
	}); err == nil {
		t.Fatal("under-sized explicit core count accepted")
	}
}

// ChampSim inputs carry decoder-derived Busy (instruction-count gaps);
// the flat -busy budget applies only to formats without one, even when
// both feed one conversion.
func TestConvertKeepsDerivedBusy(t *testing.T) {
	out := filepath.Join(t.TempDir(), "mix.rnt")
	if _, err := ingest.Convert([]string{fixture("tiny.champ"), fixture("tiny.csv")}, out, ingest.Options{
		Interleave: ingest.InterleaveStride,
		Cores:      2,
		Stride:     4,
		Busy:       9,
	}); err != nil {
		t.Fatalf("convert: %v", err)
	}
	_, refs, err := tracefile.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	// The champ input comes first (sequential interleave): its ifetches
	// carry the derived Busy 1 and its operands 0; the csv tail gets
	// the flat budget.
	champRefs, csvRefs := refs[:480], refs[480:]
	for i, r := range champRefs {
		want := 0
		if r.Kind == trace.IFetch {
			want = 1
		}
		if r.Busy != want {
			t.Fatalf("champ ref %d busy %d, want %d: %+v", i, r.Busy, want, r)
		}
	}
	if len(csvRefs) != 11 {
		t.Fatalf("csv tail %d refs", len(csvRefs))
	}
	for i, r := range csvRefs {
		if r.Busy != 9 {
			t.Fatalf("csv ref %d busy %d, want the flat 9", i, r.Busy)
		}
	}
}

// Two-pass classification settles one class per page across the whole
// corpus; streaming classification may split a page's early refs.
func TestConvertTwoPassSettlesPages(t *testing.T) {
	out := filepath.Join(t.TempDir(), "twopass.rnt")
	sum, err := ingest.Convert([]string{fixture("tiny.din")}, out, ingest.Options{
		Interleave: ingest.InterleaveStride,
		Cores:      4,
		Stride:     8,
		Classify:   ingest.ClassifyTwoPass,
	})
	if err != nil {
		t.Fatalf("convert: %v", err)
	}
	if sum.Classify.FirstTouches == 0 {
		t.Fatalf("classifier never ran: %+v", sum.Classify)
	}
	_, refs, err := tracefile.ReadFile(out)
	if err != nil {
		t.Fatalf("read back: %v", err)
	}
	classOf := map[uint64]cache.Class{}
	for _, r := range refs {
		page := r.Addr >> 13
		if prev, seen := classOf[page]; seen && prev != r.Class {
			t.Fatalf("page %#x carries classes %v and %v after two-pass", page, prev, r.Class)
		}
		classOf[page] = r.Class
	}
	// The stride-sliced scratch region is touched by several cores, so
	// the classifier must find shared pages; the loop body must be
	// instruction.
	var byClass [4]int
	for _, c := range classOf {
		byClass[c]++
	}
	if byClass[cache.ClassShared] == 0 || byClass[cache.ClassInstruction] == 0 {
		t.Fatalf("class mix by page %v, want shared and instruction pages", byClass)
	}
}

// ClassifyOff leaves classes unknown; conversion is deterministic
// across runs either way.
func TestConvertDeterministicAndClassifyOff(t *testing.T) {
	dir := t.TempDir()
	mk := func(name string, mode ingest.ClassifyMode) []byte {
		out := filepath.Join(dir, name)
		if _, err := ingest.Convert([]string{fixture("tiny.champ")}, out, ingest.Options{
			Interleave: ingest.InterleaveStride,
			Cores:      2,
			Classify:   mode,
		}); err != nil {
			t.Fatalf("convert %s: %v", name, err)
		}
		b, err := os.ReadFile(out)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	a, b := mk("a.rnt", ingest.ClassifyStream), mk("b.rnt", ingest.ClassifyStream)
	if string(a) != string(b) {
		t.Fatal("conversion is not byte-deterministic")
	}
	off := filepath.Join(dir, "off.rnt")
	if _, err := ingest.Convert([]string{fixture("tiny.champ")}, off, ingest.Options{
		Interleave: ingest.InterleaveStride,
		Cores:      2,
		Classify:   ingest.ClassifyOff,
	}); err != nil {
		t.Fatalf("convert off: %v", err)
	}
	_, refs, err := tracefile.ReadFile(off)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range refs {
		if r.Class != cache.ClassUnknown {
			t.Fatalf("ClassifyOff produced class %v", r.Class)
		}
	}
}

// Conversion failures surface exact positions and leave no partial
// output behind.
func TestConvertErrors(t *testing.T) {
	dir := t.TempDir()
	bad := filepath.Join(dir, "bad.din")
	if err := os.WriteFile(bad, []byte("2 400000\n0 10000000\n9 nope\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	out := filepath.Join(dir, "out.rnt")
	_, err := ingest.Convert([]string{bad}, out, ingest.Options{})
	if err == nil || !strings.Contains(err.Error(), "bad.din:3") {
		t.Fatalf("corrupt input error %v, want a bad.din:3 position", err)
	}
	if _, serr := os.Stat(out); !os.IsNotExist(serr) {
		t.Fatalf("partial output left behind: %v", serr)
	}

	if _, err := ingest.Convert(nil, out, ingest.Options{}); err == nil {
		t.Fatal("empty input list accepted")
	}
	// A page size the classifier cannot shift by is an error, not a
	// panic, and is refused before any pass reads an input.
	if _, err := ingest.Convert([]string{fixture("tiny.din")}, out, ingest.Options{
		PageBytes: 3,
	}); err == nil || !strings.Contains(err.Error(), "page size 3") {
		t.Fatalf("3-byte pages: %v", err)
	}
	// Keep mode without -cores auto-sizes from a pass-0 scan — but a
	// ref-less input leaves nothing to size from.
	emptyKeep := filepath.Join(dir, "empty-keep.csv")
	if err := os.WriteFile(emptyKeep, []byte("# nothing\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ingest.Convert([]string{emptyKeep}, out, ingest.Options{
		Interleave: ingest.InterleaveKeep,
	}); err == nil || !strings.Contains(err.Error(), "size cores") {
		t.Fatalf("keep mode over empty input: %v", err)
	}
	if _, err := ingest.Convert([]string{fixture("tiny.din")}, out, ingest.Options{
		Interleave: ingest.InterleaveFiles,
		Cores:      3,
	}); err == nil {
		t.Fatal("files mode with more cores than inputs accepted")
	}
	empty := filepath.Join(dir, "empty.din")
	if err := os.WriteFile(empty, []byte("# nothing\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ingest.Convert([]string{empty}, out, ingest.Options{}); err == nil ||
		!strings.Contains(err.Error(), "no references") {
		t.Fatalf("ref-less input: %v", err)
	}
	// A CSV whose cores exceed the configured count is rejected in keep
	// mode.
	if _, err := ingest.Convert([]string{fixture("tiny.csv")}, out, ingest.Options{
		Interleave: ingest.InterleaveKeep,
		Cores:      2,
	}); err == nil || !strings.Contains(err.Error(), "outside") {
		t.Fatalf("out-of-range core: %v", err)
	}
}
