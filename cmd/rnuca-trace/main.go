// Command rnuca-trace captures, converts, inspects, indexes, and
// replays L2 reference traces in the tracefile format (see
// internal/tracefile and internal/ingest).
//
// Usage:
//
//	rnuca-trace record -workload OLTP-DB2 [-design R] [-warm N]
//	            [-measure N] [-seed S] -o trace.rnt
//	rnuca-trace record -all [-set primary|extended] [-seeds N]
//	            [-design R] [-warm N] [-measure N] -dir DIR
//	rnuca-trace convert [-format din|champsim|csv] [-cores N]
//	            [-interleave files|stride|keep] [-stride N]
//	            [-classify stream|twopass|off] [-max-pages N]
//	            [-page-bytes N] [-busy N] [-mlp F] [-workload NAME]
//	            -o trace.rnt INPUT...
//	rnuca-trace info trace.rnt
//	rnuca-trace index [-upgrade OUT] [-stats] trace.rnt
//	rnuca-trace replay [-design R | -design P,A,S,R,I | -design all]
//	            [-warm N] [-measure N] [-batches B] [-shards N]
//	            [-window START:N] [-trace-out FILE] [-timeline FILE]
//	            [-epoch N] trace.rnt
//	rnuca-trace corpus add|ls|verify|rm|gc -dir STORE ...
//
// record runs a workload through a design once and tees the consumed
// reference stream to disk; with -all it records every catalog
// workload x seed into -dir, the recordings running together on the
// process-wide cell pool. convert ingests foreign
// address traces (Dinero din, ChampSim-style text, generic CSV; gzip
// transparently inflated) into an indexed v2 corpus, interleaving
// single-threaded inputs onto cores and inferring page-grain classes
// (see internal/ingest). info prints the header and a scan summary.
// index prints the v2 chunk index (with -stats, per-chunk compressed
// sizes and a lastAddr drift summary; with -upgrade, rewrites any
// readable trace as an indexed v2 file). replay re-runs any of the five
// designs over the saved trace, every batch of every design in parallel
// on the process-wide cell pool, skipping generation cost; a
// same-design replay reproduces the recording run's numbers exactly. On indexed traces, -shards fans
// chunk decoding across workers without changing results, and -window
// replays only the records [START, START+N); -trace-out, -timeline and
// -epoch work as in rnuca-sim, with one timeline per design. corpus
// manages a content-addressed corpus store (internal/corpus) — the store
// rnuca-serve answers jobs from: add validates and stores traces by
// SHA-256 digest, ls lists manifests, verify re-checks content and
// chunk structure, rm drops names, gc collects unreferenced objects.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"

	"rnuca"
	"rnuca/internal/cellpool"
	"rnuca/internal/ingest"
	"rnuca/internal/report"
	"rnuca/internal/tracefile"
	"rnuca/internal/workload"
)

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	switch os.Args[1] {
	case "record":
		record(os.Args[2:])
	case "convert":
		convert(os.Args[2:])
	case "info":
		info(os.Args[2:])
	case "index":
		index(os.Args[2:])
	case "replay":
		replay(os.Args[2:])
	case "corpus":
		corpusCmd(os.Args[2:])
	default:
		usage()
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage:
  rnuca-trace record -workload NAME [-design R] [-warm N] [-measure N] [-seed S] -o FILE
  rnuca-trace record -all [-set primary|extended] [-seeds N] [-design R] [-warm N] [-measure N] -dir DIR
  rnuca-trace convert [-format NAME] [-cores N] [-interleave files|stride|keep] [-stride N]
              [-classify stream|twopass|off] [-max-pages N] [-page-bytes N] [-busy N] [-mlp F]
              [-workload NAME] -o FILE INPUT...
  rnuca-trace info FILE
  rnuca-trace index [-upgrade OUT] [-stats] FILE
  rnuca-trace replay [-design IDS|all] [-warm N] [-measure N] [-batches B] [-shards N] [-window START:N]
              [-trace-out FILE] [-timeline FILE] [-epoch N] FILE
  rnuca-trace corpus add -dir STORE [-name NAME] FILE...
  rnuca-trace corpus ls -dir STORE
  rnuca-trace corpus verify -dir STORE [REF...]
  rnuca-trace corpus rm -dir STORE NAME...
  rnuca-trace corpus gc -dir STORE [-n]`)
	os.Exit(2)
}

func fatalf(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
	os.Exit(1)
}

func parseDesign(s string) rnuca.DesignID {
	id := rnuca.DesignID(strings.ToUpper(s))
	for _, d := range rnuca.AllDesigns() {
		if id == d {
			return id
		}
	}
	fatalf("unknown design %q (P, A, S, R, I)", s)
	panic("unreachable")
}

func record(args []string) {
	fs := flag.NewFlagSet("record", flag.ExitOnError)
	wl := fs.String("workload", "OLTP-DB2", "workload name (see rnuca-sim -list)")
	ds := fs.String("design", "R", "design the recording run uses: P, S, R or I (ASR's best-of-six has no one recording)")
	warm := fs.Int("warm", 0, "warmup references (0 = default)")
	measure := fs.Int("measure", 0, "measured references (0 = default)")
	seed := fs.Uint64("seed", 0, "workload seed override (0 = workload default)")
	out := fs.String("o", "", "output trace path (required unless -all)")
	all := fs.Bool("all", false, "record every catalog workload x seed instead of one")
	set := fs.String("set", "primary", "catalog set for -all: primary or extended (primary + extras)")
	seeds := fs.Int("seeds", 1, "seed variants per workload for -all")
	dir := fs.String("dir", "", "output directory for -all (required with -all)")
	fs.Parse(args)
	id := parseDesign(*ds)
	if id == rnuca.DesignASR {
		// Refused before -dir is created or any recording is queued.
		fatalf("record: -design A has no one recording: ASR reports the best of its variants, each consuming a different number of references per core; record P, S, R or I")
	}
	opt := rnuca.RunOptions{Warm: *warm, Measure: *measure}
	if *all {
		recordAll(id, opt, *set, *seeds, *dir)
		return
	}
	if *out == "" {
		fatalf("record: -o is required")
	}
	w, ok := workload.ByName(*wl)
	if !ok {
		fatalf("unknown workload %q", *wl)
	}
	if *seed != 0 {
		w.Seed = *seed
	}

	res, err := recordOne(w, id, opt, *out)
	if err != nil {
		fatalf("record: %v", err)
	}
	st, err := os.Stat(*out)
	if err != nil {
		fatalf("record: %v", err)
	}
	f, err := tracefile.Open(*out)
	if err != nil {
		fatalf("record: %v", err)
	}
	total := f.Header().Refs
	f.Close()
	fmt.Printf("recorded %s under %s: %d measured refs, CPI %.4f\n", w.Name, id, res.Refs, res.CPI())
	fmt.Printf("  %s: %d refs, %d bytes (%.2f bytes/ref)\n",
		*out, total, st.Size(), float64(st.Size())/float64(total))
}

// recordOne runs one recording job for a workload under a design.
func recordOne(w workload.Spec, id rnuca.DesignID, opt rnuca.RunOptions, out string) (rnuca.Result, error) {
	job := rnuca.Job{
		Input:   rnuca.FromWorkload(w),
		Designs: []rnuca.DesignID{id},
		Options: opt,
	}
	return job.Record(context.Background(), out)
}

// recordAll records every catalog workload x seed, one trace file per
// (workload, seed) under dir, and prints one line per trace in queue
// order. Seed variants follow the library's batch convention (base +
// k*0x9E37), so trace k of a workload matches batch k of a generator
// run.
func recordAll(id rnuca.DesignID, opt rnuca.RunOptions, set string, seeds int, dir string) {
	if dir == "" {
		fatalf("record -all: -dir is required")
	}
	if seeds < 1 {
		fatalf("record -all: -seeds %d", seeds)
	}
	var specs []workload.Spec
	switch set {
	case "primary":
		specs = workload.Primary()
	case "extended":
		specs = append(workload.Primary(), workload.Extended()...)
	default:
		fatalf("record -all: unknown set %q (primary, extended)", set)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		fatalf("record -all: %v", err)
	}

	type job struct {
		spec workload.Spec
		k    int
		path string
	}
	var queue []job
	for _, w := range specs {
		for k := 0; k < seeds; k++ {
			ws := w
			ws.Seed = w.Seed + uint64(k)*0x9E37
			queue = append(queue, job{
				spec: ws, k: k,
				path: filepath.Join(dir, fmt.Sprintf("%s-s%d.rnt", ws.Name, k)),
			})
		}
	}

	fmt.Printf("recording %d traces (%d workloads x %d seeds) under design %s\n",
		len(queue), len(specs), seeds, id)
	type recorded struct {
		res rnuca.Result
		err error
	}
	failed := 0
	// Each recording's cell takes a slot of the cell pool. Stream, not
	// Each: Record creates its file before its cell waits for a slot,
	// so at most Width() recordings hold an open file at once.
	cellpool.Stream(len(queue), cellpool.Width(), func(i int) recorded {
		res, err := recordOne(queue[i].spec, id, opt, queue[i].path)
		return recorded{res, err}
	}, func(i int, r recorded) bool {
		j := queue[i]
		if r.err != nil {
			failed++
			fmt.Fprintf(os.Stderr, "  FAIL %s seed %d: %v\n", j.spec.Name, j.k, r.err)
			return true
		}
		var size int64
		if st, err := os.Stat(j.path); err == nil {
			size = st.Size()
		}
		fmt.Printf("  %-16s seed %d -> %s (%d refs, %d bytes, CPI %.4f)\n",
			j.spec.Name, j.k, j.path, r.res.Refs, size, r.res.CPI())
		return true
	})
	if failed > 0 {
		fatalf("record -all: %d of %d recordings failed", failed, len(queue))
	}
}

// convert ingests foreign address traces into an indexed v2 corpus.
func convert(args []string) {
	fs := flag.NewFlagSet("convert", flag.ExitOnError)
	format := fs.String("format", "", "input format for every input (default: detect per input from the extension)")
	cores := fs.Int("cores", 0, "converted core count (default: input count for files mode, 16 for stride, scanned from input core ids for keep)")
	inter := fs.String("interleave", "files", "core mapping: files (one input per core), stride (slice one stream), keep (trust input core fields)")
	stride := fs.Int("stride", ingest.DefaultStride, "refs per core run in stride mode")
	classify := fs.String("classify", "stream", "class inference: stream (online, one pass), twopass (settled classes, two passes), off")
	maxPages := fs.Int("max-pages", 0, "bound the classifier's page table to N pages (0 = unbounded)")
	pageBytes := fs.Int("page-bytes", ingest.DefaultPageBytes, "classifier page size in bytes (power of two)")
	busy := fs.Int("busy", ingest.DefaultBusy, "busy cycles charged per reference")
	mlp := fs.Float64("mlp", ingest.DefaultMLP, "off-chip memory-level parallelism recorded in the header")
	name := fs.String("workload", "", "corpus workload name (default: first input's base name)")
	out := fs.String("o", "", "output trace path (required)")
	fs.Parse(args)
	if *out == "" {
		fatalf("convert: -o is required")
	}
	if fs.NArg() == 0 {
		fatalf("convert: no inputs (formats: %s)", formatList())
	}
	im, err := ingest.ParseInterleaveMode(*inter)
	if err != nil {
		fatalf("convert: %v", err)
	}
	cm, err := ingest.ParseClassifyMode(*classify)
	if err != nil {
		fatalf("convert: %v", err)
	}

	sum, err := ingest.Convert(fs.Args(), *out, ingest.Options{
		Format:     *format,
		Cores:      *cores,
		Interleave: im,
		Stride:     *stride,
		Classify:   cm,
		MaxPages:   *maxPages,
		PageBytes:  *pageBytes,
		Busy:       *busy,
		OffChipMLP: *mlp,
		Workload:   *name,
	})
	if err != nil {
		fatalf("convert: %v", err)
	}
	auto := ""
	if sum.AutoCores {
		auto = ", auto-sized"
	}
	fmt.Printf("converted %d input(s) -> %s (%s, %d cores%s)\n", len(sum.Inputs), sum.Out, sum.Workload, sum.Cores, auto)
	for _, in := range sum.Inputs {
		fmt.Printf("  %-24s %-10s %d refs\n", in.Path, in.Format, in.Refs)
	}
	total := sum.Refs
	fmt.Printf("  refs         %d in %d chunks, %d bytes (%.2f bytes/ref)\n",
		total, sum.Chunks, sum.Bytes, float64(sum.Bytes)/float64(total))
	fmt.Printf("  kinds        ifetch %s, load %s, store %s\n",
		pct(sum.Kinds[0], total), pct(sum.Kinds[1], total), pct(sum.Kinds[2], total))
	if cm != ingest.ClassifyOff {
		fmt.Printf("  classes      instr %s, private %s, shared %s\n",
			pct(sum.Classes[1], total), pct(sum.Classes[2], total), pct(sum.Classes[3], total))
		cs := sum.Classify
		fmt.Printf("  classifier   %d pages (%d evicted), %d first touches, %d->shared, %d migrations\n",
			cs.Pages, cs.Evictions, cs.FirstTouches, cs.PrivateToShared+cs.InstrToShared, cs.Migrations)
	}
}

func formatList() string {
	var names []string
	for _, f := range ingest.Formats() {
		names = append(names, f.Name)
	}
	return strings.Join(names, ", ")
}

func info(args []string) {
	fs := flag.NewFlagSet("info", flag.ExitOnError)
	fs.Parse(args)
	if fs.NArg() != 1 {
		usage()
	}
	path := fs.Arg(0)
	f, err := tracefile.Open(path)
	if err != nil {
		fatalf("%v", err)
	}
	defer f.Close()
	hdr := f.Header()
	fmt.Printf("%s: tracefile v%d\n", path, f.Version())
	fmt.Printf("  workload     %s (%d cores, seed %d)\n", hdr.Workload, hdr.Cores, hdr.Seed)
	fmt.Printf("  recorded by  design %s, warm %d + measure %d, off-chip MLP %.2f\n",
		orNone(hdr.Design), hdr.Warm, hdr.Measure, hdr.OffChipMLP)
	if hdr.Refs > 0 {
		fmt.Printf("  declared     %d refs\n", hdr.Refs)
	} else {
		fmt.Printf("  declared     streaming (no ref count)\n")
	}

	var kinds [3]uint64
	var classes [4]uint64
	perCore := map[int]uint64{}
	pages := map[uint64]struct{}{}
	var total uint64
	for {
		r, ok := f.Next()
		if !ok {
			break
		}
		total++
		kinds[r.Kind]++
		classes[r.Class]++
		perCore[r.Core]++
		pages[r.Addr>>13] = struct{}{}
	}
	if err := f.Err(); err != nil {
		fatalf("scan after %d refs: %v", total, err)
	}
	st, _ := os.Stat(path)
	fmt.Printf("  scanned      %d refs, %d distinct 8KB pages, %.2f bytes/ref\n",
		total, len(pages), float64(st.Size())/float64(total))
	fmt.Printf("  kinds        ifetch %s, load %s, store %s\n",
		pct(kinds[0], total), pct(kinds[1], total), pct(kinds[2], total))
	fmt.Printf("  classes      instr %s, private %s, shared %s\n",
		pct(classes[1], total), pct(classes[2], total), pct(classes[3], total))
	cores := make([]int, 0, len(perCore))
	for c := range perCore {
		cores = append(cores, c)
	}
	sort.Ints(cores)
	fmt.Printf("  per-core     ")
	for i, c := range cores {
		if i > 0 {
			fmt.Printf(" ")
		}
		fmt.Printf("%d:%d", c, perCore[c])
	}
	fmt.Println()
}

// index prints a v2 trace's chunk index, or rewrites a trace (any
// readable version) as an indexed v2 file with -upgrade. With -stats it
// adds per-chunk compressed sizes and a lastAddr drift summary, the
// corpus-hygiene view: wildly uneven chunk sizes or runaway address
// drift flag a trace that was converted or recorded wrong.
func index(args []string) {
	fs := flag.NewFlagSet("index", flag.ExitOnError)
	upgrade := fs.String("upgrade", "", "rewrite FILE as an indexed v2 trace at this path")
	stats := fs.Bool("stats", false, "print per-chunk compressed sizes and a lastAddr drift summary")
	fs.Parse(args)
	if fs.NArg() != 1 {
		usage()
	}
	path := fs.Arg(0)
	if *upgrade != "" {
		upgradeTrace(path, *upgrade)
		return
	}

	x, err := tracefile.OpenIndexed(path)
	if errors.Is(err, tracefile.ErrNoIndex) {
		fatalf("%s has no chunk index; rewrite it with\n  rnuca-trace index -upgrade NEW.rnt %s", path, path)
	}
	if err != nil {
		fatalf("%v", err)
	}
	defer x.Close()
	hdr := x.Header()
	fmt.Printf("%s: %d records in %d chunks (%s, %d cores)\n",
		path, x.Refs(), x.Chunks(), hdr.Workload, hdr.Cores)
	if *stats {
		fmt.Printf("  %-6s %-12s %-12s %-10s %-10s %s\n",
			"chunk", "offset", "first-rec", "records", "comp-bytes", "bytes/ref")
	} else {
		fmt.Printf("  %-6s %-12s %-12s %s\n", "chunk", "offset", "first-rec", "records")
	}
	const maxRows = 48
	for i := 0; i < x.Chunks(); i++ {
		if x.Chunks() > maxRows && i == maxRows-8 {
			fmt.Printf("  ... %d chunks elided ...\n", x.Chunks()-maxRows)
			i = x.Chunks() - 8
		}
		e := x.Entry(i)
		if *stats {
			size := x.ChunkCompressedBytes(i)
			fmt.Printf("  %-6d %-12d %-12d %-10d %-10d %.2f\n",
				i, e.Offset, e.FirstRecord, e.Count, size, float64(size)/float64(e.Count))
		} else {
			fmt.Printf("  %-6d %-12d %-12d %d\n", i, e.Offset, e.FirstRecord, e.Count)
		}
	}
	if *stats {
		printIndexStats(x)
	}
}

// printIndexStats summarizes chunk sizes and per-core lastAddr drift
// between consecutive chunk snapshots.
func printIndexStats(x *tracefile.IndexedReader) {
	var minSize, maxSize, sumSize uint64
	for i := 0; i < x.Chunks(); i++ {
		s := x.ChunkCompressedBytes(i)
		if i == 0 || s < minSize {
			minSize = s
		}
		if s > maxSize {
			maxSize = s
		}
		sumSize += s
	}
	fmt.Printf("  chunk sizes  min %d, mean %.0f, max %d bytes\n",
		minSize, float64(sumSize)/float64(x.Chunks()), maxSize)

	// Drift: how far each core's delta-base address moves between
	// consecutive chunk snapshots. A healthy corpus drifts within its
	// footprint; monotone growth reveals an address-space walk (e.g. a
	// converted trace whose addresses were parsed in the wrong radix).
	var (
		maxDrift          uint64
		maxCore, maxChunk int
		sumDrift          float64
		samples           int
	)
	for i := 1; i < x.Chunks(); i++ {
		prev, cur := x.Entry(i-1).LastAddr, x.Entry(i).LastAddr
		for c := range cur {
			d := cur[c] - prev[c]
			if int64(d) < 0 {
				d = -d
			}
			sumDrift += float64(d)
			samples++
			if d > maxDrift {
				maxDrift, maxCore, maxChunk = d, c, i
			}
		}
	}
	if samples == 0 {
		fmt.Printf("  drift        single chunk, no inter-chunk drift\n")
		return
	}
	first := x.Entry(0).LastAddr
	last := x.Entry(x.Chunks() - 1).LastAddr
	var netMax uint64
	netCore := 0
	for c := range last {
		d := last[c] - first[c]
		if int64(d) < 0 {
			d = -d
		}
		if d > netMax {
			netMax, netCore = d, c
		}
	}
	fmt.Printf("  drift        mean %.0f bytes/chunk, max %d (core %d, chunk %d); net max %d (core %d)\n",
		sumDrift/float64(samples), maxDrift, maxCore, maxChunk, netMax, netCore)
}

// upgradeTrace re-encodes src (v1 or v2) into an indexed v2 trace at
// dst, preserving the header. The new trace is built in a temporary
// file and renamed into place only after src has been read and the
// result verified, so dst == src upgrades a trace in place instead of
// truncating the input it is about to read.
func upgradeTrace(src, dst string) {
	f, err := tracefile.Open(src)
	if err != nil {
		fatalf("%v", err)
	}
	defer f.Close()
	tmp := dst + ".tmp"
	out, err := tracefile.Create(tmp, f.Header())
	if err != nil {
		fatalf("%v", err)
	}
	fail := func(format string, args ...interface{}) {
		os.Remove(tmp)
		fatalf(format, args...)
	}
	for {
		r, ok := f.Next()
		if !ok {
			break
		}
		if err := out.Write(r); err != nil {
			fail("upgrade: %v", err)
		}
	}
	if err := f.Err(); err != nil {
		fail("upgrade: reading %s: %v", src, err)
	}
	if err := out.Close(); err != nil {
		fail("upgrade: %v", err)
	}
	x, err := tracefile.OpenIndexed(tmp)
	if err != nil {
		fail("upgrade: verifying %s: %v", tmp, err)
	}
	refs, chunks := x.Refs(), x.Chunks()
	x.Close()
	if err := os.Rename(tmp, dst); err != nil {
		fail("upgrade: %v", err)
	}
	fmt.Printf("upgraded %s -> %s: v%d, %d records in %d chunks\n",
		src, dst, tracefile.Version, refs, chunks)
}

// parseWindow parses a -window START:N spec ("START:" and "START" mean
// to the end of the trace).
func parseWindow(s string) (start, n uint64) {
	head, tail, hasTail := strings.Cut(s, ":")
	start, err := strconv.ParseUint(head, 10, 64)
	if err != nil {
		fatalf("bad -window %q: %v", s, err)
	}
	if hasTail && tail != "" {
		if n, err = strconv.ParseUint(tail, 10, 64); err != nil {
			fatalf("bad -window %q: %v", s, err)
		}
	}
	return start, n
}

func orNone(s string) string {
	if s == "" {
		return "(none)"
	}
	return s
}

func pct(n, total uint64) string {
	if total == 0 {
		return "0%"
	}
	return fmt.Sprintf("%.1f%%", 100*float64(n)/float64(total))
}

func replay(args []string) {
	fs := flag.NewFlagSet("replay", flag.ExitOnError)
	ds := fs.String("design", "", "designs to replay: comma-separated P,A,S,R,I or \"all\" (default: the recording design)")
	warm := fs.Int("warm", 0, "warmup references (0 = recorded split)")
	measure := fs.Int("measure", 0, "measured references (0 = recorded split)")
	batches := fs.Int("batches", 1, "replay batches per design")
	shards := fs.Int("shards", 0, "parallel trace-decode workers per engine (0 = one per CPU, 1 = sequential; needs a v2 indexed trace)")
	window := fs.String("window", "", "replay only records START:N of the trace (needs a v2 indexed trace)")
	outputs := report.OutputFlags(fs)
	fs.Parse(args)
	if fs.NArg() != 1 {
		usage()
	}
	path := fs.Arg(0)
	if *shards == 0 {
		// Auto: shard the decode only when the trace carries an index
		// and there are cores free to run it; v1 traces stay sequential.
		*shards = 1
		if runtime.GOMAXPROCS(0) > 1 {
			if x, err := tracefile.OpenIndexed(path); err == nil {
				x.Close()
				*shards = runtime.GOMAXPROCS(0)
			}
		}
	}

	f, err := tracefile.Open(path)
	if err != nil {
		fatalf("%v", err)
	}
	hdr := f.Header()
	f.Close()

	var ids []rnuca.DesignID
	switch {
	case *ds == "" && hdr.Design != "":
		ids = []rnuca.DesignID{parseDesign(hdr.Design)}
	case *ds == "" || strings.EqualFold(*ds, "all"):
		ids = rnuca.AllDesigns()
	default:
		for _, s := range strings.Split(*ds, ",") {
			ids = append(ids, parseDesign(strings.TrimSpace(s)))
		}
	}

	// SIGINT cancels cooperatively: every design's engines stop at
	// their next progress poll, and whatever partial accounting exists
	// is printed instead of dying mid-write.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	ctx, timeline := outputs.Start(ctx)
	in := rnuca.FromTrace(path).Sharded(*shards)
	if *window != "" {
		start, n := parseWindow(*window)
		in = in.Window(start, n)
	}
	var gauge rnuca.ProgressGauge
	job := rnuca.Job{
		Input:   in,
		Designs: ids,
		Options: rnuca.RunOptions{
			Warm: *warm, Measure: *measure, Batches: *batches,
			Progress: gauge.Observe,
			Timeline: timeline,
		},
	}
	results, err := job.Compare(ctx)
	interrupted := errors.Is(err, context.Canceled)
	if err != nil && !interrupted {
		fatalf("replay: %v", err)
	}
	if interrupted {
		done, total := gauge.Progress()
		fmt.Fprintf(os.Stderr, "replay: interrupted around ref %d of %d per engine; partial results follow\n",
			done, total)
	}

	fmt.Printf("replay of %s (%s, %d cores", path, hdr.Workload, hdr.Cores)
	if *window != "" {
		fmt.Printf(", window %s", *window)
	}
	if *shards > 1 {
		fmt.Printf(", %d decode shards", *shards)
	}
	fmt.Println(")")
	base := results[ids[0]]
	fmt.Printf("  %-6s %-8s %-10s %-9s %s\n", "design", "CPI", "off-chip", "net-msgs", "speedup vs "+string(ids[0]))
	for _, id := range ids {
		// An interrupt can land before a design's cells measured
		// anything (or got a slot at all).
		r := results[id]
		if r.Refs == 0 {
			fmt.Printf("  %-6s interrupted before any measured reference\n", id)
			continue
		}
		speedup := "-"
		if base.Refs > 0 {
			speedup = fmt.Sprintf("%+.1f%%", 100*r.Speedup(base.Result))
		}
		fmt.Printf("  %-6s %-8.4f %-10d %-9d %s\n",
			id, r.CPI(), r.OffChipMisses, r.NetMessages, speedup)
	}
	timelines := make(map[string]*rnuca.Timeline, len(ids))
	for _, id := range ids {
		timelines[fmt.Sprintf("%s/%s", hdr.Workload, id)] = results[id].Timeline
	}
	stages, err := outputs.Finish(timelines)
	if err != nil {
		fatalf("replay: %v", err)
	}
	if len(stages) > 0 {
		report.StageTable(stages).Render(os.Stdout)
	}
	if interrupted {
		os.Exit(130)
	}
}
