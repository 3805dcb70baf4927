package ingest

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"

	"rnuca/internal/ospage"
	"rnuca/internal/sim"
	"rnuca/internal/trace"
	"rnuca/internal/tracefile"
)

// Conversion defaults. Busy and MLP have no representation in foreign
// address traces, so the converter charges every ref a flat budget in
// the range the workload catalog uses for server workloads.
const (
	DefaultBusy      = 24
	DefaultMLP       = 1.6
	DefaultStride    = 64
	DefaultPageBytes = 8 << 10 // Table 1's OS page size
	DefaultCores     = 16      // stride-mode default: the paper's server CMP

	// prefetchBatch is the ref batch size each input's decode goroutine
	// hands to the interleaver.
	prefetchBatch = 4096
)

// Options tunes a conversion. The zero value converts with extension
// detection, file-per-core interleaving, streaming classification, 8KB
// pages, and the catalog-typical busy/MLP budgets.
type Options struct {
	// Format forces every input through the named decoder; "" detects
	// per input from the file extension.
	Format string
	// Cores is the core count of the converted workload. 0 defaults to
	// the input count (files mode), DefaultCores (stride mode), or —
	// in keep mode — the highest core id observed in a scan of the
	// inputs plus one (pass 0); a non-zero value overrides the scan.
	// Convert refuses a resolved count above sim.MaxCores, which no
	// replay could run.
	Cores int
	// Interleave maps single-threaded inputs onto cores.
	Interleave InterleaveMode
	// Stride is the refs-per-core run length in stride mode.
	Stride int
	// Classify selects class inference; PageBytes and MaxPages shape
	// the classifier's page table (MaxPages 0 = unbounded).
	Classify  ClassifyMode
	PageBytes int
	MaxPages  int
	// Busy is the busy-cycle budget charged per ref; OffChipMLP is the
	// header's memory-level-parallelism divisor.
	Busy       int
	OffChipMLP float64
	// Workload names the converted corpus; "" derives it from the first
	// input's base name.
	Workload string
	// ChunkRefs overrides the tracefile writer's records-per-chunk
	// (tests use tiny chunks; 0 = the writer default).
	ChunkRefs int
}

// withDefaults resolves zero values.
func (o Options) withDefaults() Options {
	if o.Stride <= 0 {
		o.Stride = DefaultStride
	}
	if o.PageBytes <= 0 {
		o.PageBytes = DefaultPageBytes
	}
	if o.Busy <= 0 {
		o.Busy = DefaultBusy
	}
	if o.OffChipMLP < 1 {
		o.OffChipMLP = DefaultMLP
	}
	return o
}

// coresFor resolves the converted core count for the given input count.
func (o Options) coresFor(inputs int) (int, error) {
	switch o.Interleave {
	case InterleaveFiles:
		if o.Cores == 0 {
			return inputs, nil
		}
		if o.Cores > inputs {
			return 0, fmt.Errorf("ingest: %d cores from %d input file(s); files mode cannot leave cores without refs", o.Cores, inputs)
		}
		return o.Cores, nil
	case InterleaveStride:
		if o.Cores == 0 {
			return DefaultCores, nil
		}
		return o.Cores, nil
	default: // InterleaveKeep
		if o.Cores == 0 {
			// Convert auto-sizes before resolving; reaching 0 here
			// means the scan found no refs to size from.
			return 0, fmt.Errorf("ingest: keep-mode conversion found no refs to size cores from")
		}
		return o.Cores, nil
	}
}

// InputSummary reports one converted input.
type InputSummary struct {
	Path   string
	Format string
	Refs   uint64
}

// Summary reports a finished conversion.
type Summary struct {
	Out      string
	Workload string
	Cores    int
	// AutoCores reports that keep mode sized Cores by scanning the
	// inputs' core ids (pass 0) rather than from an explicit option.
	AutoCores bool
	Refs      uint64
	// Kinds counts refs by access kind (IFetch/Load/Store); Classes by
	// assigned class (indexed by cache.Class).
	Kinds   [3]uint64
	Classes [4]uint64
	// Classify holds the classifier's page-table counters (zero value
	// under ClassifyOff).
	Classify ClassifyStats
	Inputs   []InputSummary
	Bytes    int64
	Chunks   int
}

// Convert decodes the foreign inputs, interleaves them onto cores,
// infers classes per the options, and writes an indexed tracefile-v2
// corpus at out. Inputs decode in parallel (one goroutine per input,
// batched hand-off), while interleaving, classification, and writing
// stay sequential and deterministic: the same inputs and options always
// produce the same corpus. On error the partial output is removed.
func Convert(inputs []string, out string, opt Options) (*Summary, error) {
	if len(inputs) == 0 {
		return nil, fmt.Errorf("ingest: no inputs to convert")
	}
	opt = opt.withDefaults()
	if err := ospage.CheckPageBytes(opt.PageBytes); err != nil {
		return nil, err
	}

	var table *PageTable
	if opt.Classify != ClassifyOff {
		table = NewPageTable(opt.PageBytes, opt.MaxPages)
	}
	autoCores := opt.Interleave == InterleaveKeep && opt.Cores == 0
	tableSettled := false
	if autoCores {
		// Pass 0: size the core count from the inputs' own core ids.
		// When two-pass classification is on, the same scan settles the
		// page table (observation order matches the keep-mode emit
		// order: inputs concatenated in argument order), so auto-sizing
		// never costs an extra decode.
		var scanTable *PageTable
		if opt.Classify == ClassifyTwoPass {
			scanTable, tableSettled = table, true
		}
		maxCore, err := scanKeepInputs(inputs, opt, scanTable)
		if err != nil {
			return nil, err
		}
		opt.Cores = maxCore + 1
	}
	cores, err := opt.coresFor(len(inputs))
	if err != nil {
		return nil, err
	}
	if cores > sim.MaxCores {
		return nil, fmt.Errorf("ingest: %d cores, above the simulator's %d", cores, sim.MaxCores)
	}
	sum := &Summary{
		Out:       out,
		Workload:  opt.Workload,
		Cores:     cores,
		AutoCores: autoCores,
		Inputs:    make([]InputSummary, len(inputs)),
	}
	if sum.Workload == "" {
		sum.Workload = workloadName(inputs[0])
	}
	for i, in := range inputs {
		sum.Inputs[i].Path = in
		var f Format
		var ok bool
		if opt.Format != "" {
			if f, ok = ByName(opt.Format); !ok {
				return nil, fmt.Errorf("ingest: unknown format %q (have %s)", opt.Format, formatNames())
			}
		} else if f, ok = Detect(in); !ok {
			return nil, fmt.Errorf("ingest: cannot detect the format of %s; pass one of %s explicitly", in, formatNames())
		}
		sum.Inputs[i].Format = f.Name
	}

	if opt.Classify == ClassifyTwoPass && !tableSettled {
		// Pass 1: settle every page's final class; nothing is written.
		observe := func(r trace.Ref) error { table.Observe(r); return nil }
		if err := runPass(inputs, opt, cores, observe, nil); err != nil {
			return nil, err
		}
	}

	fw, err := tracefile.Create(out, tracefile.Header{
		Workload:   sum.Workload,
		Cores:      cores,
		OffChipMLP: opt.OffChipMLP,
	})
	if err != nil {
		return nil, err
	}
	if opt.ChunkRefs > 0 {
		fw.ChunkRefs = opt.ChunkRefs
	}
	abort := func(err error) (*Summary, error) {
		fw.Close()
		os.Remove(out)
		return nil, err
	}
	emit := func(r trace.Ref) error {
		switch opt.Classify {
		case ClassifyStream:
			r.Class = table.Observe(r)
		case ClassifyTwoPass:
			r.Class = table.Final(r)
		}
		sum.Refs++
		sum.Kinds[r.Kind]++
		sum.Classes[r.Class]++
		return fw.Write(r)
	}
	if err := runPass(inputs, opt, cores, emit, sum); err != nil {
		return abort(err)
	}
	if sum.Refs == 0 {
		return abort(fmt.Errorf("ingest: inputs hold no references"))
	}
	if err := fw.Close(); err != nil {
		return abort(err)
	}
	if table != nil {
		sum.Classify = table.Stats()
	}

	// Verify the corpus end to end: it must open through the chunk
	// index and carry exactly the records written.
	x, err := tracefile.OpenIndexed(out)
	if err != nil {
		os.Remove(out)
		return nil, fmt.Errorf("ingest: verifying %s: %w", out, err)
	}
	defer x.Close()
	if x.Refs() != sum.Refs {
		os.Remove(out)
		return nil, fmt.Errorf("ingest: verifying %s: wrote %d refs, index holds %d", out, sum.Refs, x.Refs())
	}
	sum.Chunks = x.Chunks()
	if st, err := os.Stat(out); err == nil {
		sum.Bytes = st.Size()
	}
	return sum, nil
}

// scanKeepInputs is keep mode's pass 0: decode every input in argument
// order, tracking the highest core id (to auto-size the converted core
// count) and, when table is non-nil, settling the two-pass classifier
// along the way.
func scanKeepInputs(inputs []string, opt Options, table *PageTable) (maxCore int, err error) {
	maxCore = -1
	for _, in := range inputs {
		dec, closer, err := Open(in, opt.Format)
		if err != nil {
			return 0, err
		}
		for {
			r, ok := dec.Next()
			if !ok {
				break
			}
			if r.Core > maxCore {
				maxCore = r.Core
			}
			if table != nil {
				table.Observe(r)
			}
		}
		err = dec.Err()
		closer.Close()
		if err != nil {
			return 0, err
		}
	}
	if maxCore < 0 {
		return 0, fmt.Errorf("ingest: inputs hold no references to size cores from")
	}
	return maxCore, nil
}

// workloadName derives a corpus name from an input path: the base name
// with .gz and the format extension stripped.
func workloadName(path string) string {
	base := filepath.Base(path)
	base = strings.TrimSuffix(base, ".gz")
	if ext := filepath.Ext(base); ext != "" {
		base = strings.TrimSuffix(base, ext)
	}
	if base == "" {
		return "ingested"
	}
	return base
}

// runPass decodes every input once (in parallel) and feeds the
// interleaved, core-assigned stream to emit in deterministic order.
// sum, when non-nil, collects per-input ref counts.
func runPass(inputs []string, opt Options, cores int, emit func(trace.Ref) error, sum *Summary) error {
	pre := make([]*prefetcher, len(inputs))
	for i, in := range inputs {
		p, err := startInput(in, opt.Format)
		if err != nil {
			for _, q := range pre[:i] {
				q.close()
			}
			return err
		}
		pre[i] = p
	}
	defer func() {
		for _, p := range pre {
			p.close()
		}
	}()
	count := func(i int) {
		if sum != nil {
			sum.Inputs[i].Refs++
		}
	}
	if opt.Interleave == InterleaveFiles {
		return interleaveFiles(pre, opt, cores, emit, count)
	}
	return interleaveSeq(pre, inputs, opt, cores, emit, count)
}

// interleaveFiles merges the inputs one ref per file in rotation, input
// i feeding core i (mod cores); inputs of uneven length simply drop out
// of the rotation as they end.
func interleaveFiles(pre []*prefetcher, opt Options, cores int, emit func(trace.Ref) error, count func(int)) error {
	live := len(pre)
	done := make([]bool, len(pre))
	for live > 0 {
		for i, p := range pre {
			if done[i] {
				continue
			}
			r, ok := p.next()
			if !ok {
				if p.err != nil {
					return p.err
				}
				done[i] = true
				live--
				continue
			}
			r.Core = i % cores
			r.Thread = r.Core
			if !p.derivesBusy {
				r.Busy = opt.Busy
			}
			count(i)
			if err := emit(r); err != nil {
				return err
			}
		}
	}
	return nil
}

// interleaveSeq concatenates the inputs in argument order and either
// stride-slices the stream across cores or keeps the decoder-provided
// placement.
func interleaveSeq(pre []*prefetcher, inputs []string, opt Options, cores int, emit func(trace.Ref) error, count func(int)) error {
	var n uint64
	stride := uint64(opt.Stride)
	for i, p := range pre {
		for {
			r, ok := p.next()
			if !ok {
				if p.err != nil {
					return p.err
				}
				break
			}
			if opt.Interleave == InterleaveStride {
				r.Core = int((n / stride) % uint64(cores))
				r.Thread = r.Core
			} else if r.Core >= cores {
				return fmt.Errorf("ingest: %s: ref core %d outside the configured %d cores", inputs[i], r.Core, cores)
			}
			if !p.derivesBusy {
				r.Busy = opt.Busy
			}
			n++
			count(i)
			if err := emit(r); err != nil {
				return err
			}
		}
	}
	return nil
}

// prefetchResult is one decoded batch; last marks the input's final
// batch, which alone carries the decoder's error state.
type prefetchResult struct {
	refs []trace.Ref
	err  error
	last bool
}

// prefetcher decodes one input on its own goroutine, handing batches to
// the (single-goroutine) interleaver. The channel is small: decode runs
// ahead of consumption by a bounded number of batches, whatever the
// input size.
type prefetcher struct {
	ch   chan prefetchResult
	stop chan struct{}
	once sync.Once

	// derivesBusy: the input's decoder supplies per-ref Busy
	// (BusySource), so the interleaver keeps it instead of charging
	// the flat Options.Busy budget.
	derivesBusy bool

	cur  []trace.Ref
	pos  int
	done bool
	err  error
}

// startInput opens path and starts its decode goroutine.
func startInput(path, format string) (*prefetcher, error) {
	dec, closer, err := Open(path, format)
	if err != nil {
		return nil, err
	}
	p := &prefetcher{ch: make(chan prefetchResult, 2), stop: make(chan struct{})}
	if bs, ok := dec.(BusySource); ok && bs.DerivesBusy() {
		p.derivesBusy = true
	}
	go func() {
		defer closer.Close()
		buf := make([]trace.Ref, 0, prefetchBatch)
		send := func(res prefetchResult) bool {
			select {
			case p.ch <- res:
				return true
			case <-p.stop:
				return false
			}
		}
		for {
			r, ok := dec.Next()
			if !ok {
				send(prefetchResult{refs: buf, err: dec.Err(), last: true})
				return
			}
			buf = append(buf, r)
			if len(buf) == prefetchBatch {
				if !send(prefetchResult{refs: buf}) {
					return
				}
				buf = make([]trace.Ref, 0, prefetchBatch)
			}
		}
	}()
	return p, nil
}

// next returns the input's next ref; after it returns false, err holds
// the decoder's error, if any.
func (p *prefetcher) next() (trace.Ref, bool) {
	for p.pos >= len(p.cur) {
		if p.done {
			return trace.Ref{}, false
		}
		res := <-p.ch
		p.cur, p.pos = res.refs, 0
		if res.last {
			p.done = true
			p.err = res.err
		}
	}
	r := p.cur[p.pos]
	p.pos++
	return r, true
}

// close stops the decode goroutine; safe to call repeatedly.
func (p *prefetcher) close() {
	p.once.Do(func() { close(p.stop) })
}
