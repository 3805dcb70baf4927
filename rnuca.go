// Package rnuca is a from-scratch Go reproduction of
//
//	Hardavellas, Ferdman, Falsafi, Ailamaki.
//	"Reactive NUCA: Near-Optimal Block Placement and Replication in
//	Distributed Caches." ISCA 2009.
//
// It provides the R-NUCA cache design (OS-cooperative page classification,
// rotational interleaving, clustered replication) together with every
// substrate the paper's evaluation needs: a tiled-CMP timing model with a
// 2-D folded-torus NoC, set-associative cache structures, a full-map MOSI
// directory, the OS page-classification layer, the four competing designs
// (private, ASR, shared, ideal), statistical workload generators
// calibrated to the paper's characterization, and the trace analyses and
// benchmark harness that regenerate every figure and table.
//
// # The Job API
//
// Every simulation is described by a Job: an Input saying where the
// reference stream comes from, the designs to evaluate, and run
// options. Jobs execute under a context.Context, which is the
// cancellation path, and report failures as errors.
//
//	job := rnuca.Job{
//	    Input:   rnuca.FromWorkload(rnuca.OLTPDB2()),
//	    Designs: []rnuca.DesignID{rnuca.DesignRNUCA},
//	}
//	res, err := job.Run(context.Background())
//	if err != nil { ... }
//	fmt.Printf("CPI %.3f, off-chip misses %d\n", res.CPI(), res.OffChipMisses)
//
// Compare designs the way Figure 12 does (every cell of every design
// runs on the process-wide cell pool, at most GOMAXPROCS at once):
//
//	job.Designs = rnuca.AllDesigns()
//	cmp, err := job.Compare(ctx)
//	fmt.Printf("R-NUCA speedup over private: %+.1f%%\n",
//	    100*cmp[rnuca.DesignRNUCA].Speedup(cmp[rnuca.DesignPrivate].Result))
//
// Inputs carry the knobs that are legal for their kind and no others:
// FromWorkload(w) generates references statistically; FromTrace(path)
// replays a recording, optionally .Window(start, n) sampling a record
// range and .Sharded(n) fanning chunk decode across workers;
// FromCorpus(store, ref) replays a content-addressed corpus object.
// Record a generated run for later replay with Job.Record — a
// same-design replay reproduces the recording run's Result bit for
// bit — and ingest an external address stream with rnuca-trace
// convert.
//
// A Job has exactly one canonical JSON encoding (Job.MarshalJSON): it
// is the wire format of the rnuca-serve job service (POST /v1/jobs)
// and the basis of result-cache keys (internal/resultcache), with
// everything that provably cannot change the Result — decode
// sharding, progress observation — excluded by construction.
//
// Cancellation: pass a cancelable context to Run/Compare; engines
// observe it every few thousand simulated references through the same
// plumbing that feeds the RunOptions.Progress observation hook, and a
// canceled run returns its partial Result with the context's error.
//
// Attach an observability trace (internal/obs) to the context and a
// run records per-stage spans — workload or replay setup, a cell's
// wait for a slot, per-cell simulation, result fold — into it; the
// trace's Export aggregates them into a per-stage breakdown, and
// rnuca-serve exposes the same export per job at GET
// /v1/jobs/{id}/trace.
//
// Externally captured traces enter through internal/ingest:
// rnuca-trace convert turns Dinero/ChampSim-style/CSV address streams
// into indexed v2 corpora with page-grain class inference, and
// TraceWorkload synthesizes a replayable workload from any corpus
// header. For serving, cmd/rnuca-serve exposes the whole pipeline as
// a long-running HTTP job service (internal/serve) over a
// content-addressed corpus store (internal/corpus), memoizing results
// behind a singleflight LRU (internal/resultcache) keyed by canonical
// Job encodings.
package rnuca

import (
	"context"
	"fmt"
	"math"
	"strings"
	"sync"

	"rnuca/internal/cellpool"
	"rnuca/internal/design"
	"rnuca/internal/obs"
	"rnuca/internal/obs/flight"
	placement "rnuca/internal/rnuca"
	"rnuca/internal/sim"
	"rnuca/internal/stats"
	"rnuca/internal/trace"
	"rnuca/internal/tracefile"
	"rnuca/internal/workload"
)

// DesignID names one of the five evaluated L2 organizations.
type DesignID string

// The five designs of §5.1.
const (
	DesignPrivate DesignID = "P"
	DesignASR     DesignID = "A"
	DesignShared  DesignID = "S"
	DesignRNUCA   DesignID = "R"
	DesignIdeal   DesignID = "I"
)

// AllDesigns returns the designs in the paper's P/A/S/R/I order.
func AllDesigns() []DesignID {
	return []DesignID{DesignPrivate, DesignASR, DesignShared, DesignRNUCA, DesignIdeal}
}

// Workload re-exports the workload specification type.
type Workload = workload.Spec

// Re-exported workload constructors (Table 1 right + §3.1).
var (
	OLTPDB2    = workload.OLTPDB2
	OLTPOracle = workload.OLTPOracle
	Apache     = workload.Apache
	DSSQry6    = workload.DSSQry6
	DSSQry8    = workload.DSSQry8
	DSSQry13   = workload.DSSQry13
	Em3d       = workload.Em3d
	MIX        = workload.MIX
	Primary    = workload.Primary
	Extended   = workload.Extended
)

// runOpts is the run path's view of a job's options: RunOptions with
// defaults applied, plus what only the run machinery holds.
type runOpts struct {
	RunOptions

	// ctx carries the run's cancellation and any obs.Trace collecting
	// per-stage spans; helpers instrument against it unconditionally
	// (spans no-op without a trace).
	//rnuca:ctx-ok runOpts is the run's internal plumbing record, built per call by Job.lower and dead when the run returns
	ctx context.Context
	// poll, when non-nil, is every engine's progress hook: it feeds
	// RunOptions.Progress and returns false once ctx is done, the one
	// point through which cancellation reaches the engines.
	poll func(done, total int) bool
	// flightRec is the flight recorder batch 0's engine drives (nil for
	// later batches and without RunOptions.Timeline).
	flightRec *flight.Recorder
}

func (o RunOptions) withDefaults(w Workload) RunOptions {
	if o.Warm == 0 {
		o.Warm = 200_000
	}
	if o.Measure == 0 {
		o.Measure = 400_000
	}
	if o.Batches == 0 {
		o.Batches = 1
	}
	if o.Config == nil {
		cfg := ConfigFor(w)
		o.Config = &cfg
	}
	if o.InstrClusterSize != 0 {
		cfg := *o.Config
		cfg.InstrClusterSize = o.InstrClusterSize
		o.Config = &cfg
	}
	return o
}

// checkChassis checks the chassis a run with opt (defaults applied)
// builds for a cores-core input, turning what would panic in
// NewChassis, NewEngine or the R-NUCA placement into errors: the
// configuration itself (sim.Config.Validate), its core count against
// the input's, and both R-NUCA cluster sizes.
func checkChassis(opt RunOptions, cores int) error {
	cfg := opt.Config
	if err := cfg.Validate(); err != nil {
		return fmt.Errorf("rnuca: job config: %w", err)
	}
	if cfg.Cores != cores {
		return fmt.Errorf("rnuca: %d-core input on a %d-core config", cores, cfg.Cores)
	}
	if err := placement.CheckClusterSize("instruction", cfg.InstrClusterSize, cfg.Cores); err != nil {
		return err
	}
	if opt.PrivateClusterSize > 1 {
		return placement.CheckClusterSize("private", opt.PrivateClusterSize, cfg.Cores)
	}
	return nil
}

// ConfigFor returns the Table 1 configuration matching a workload's core
// count: the 16-core CMP for server/scientific workloads, the 8-core CMP
// for multi-programmed ones.
func ConfigFor(w Workload) sim.Config {
	if w.Cores == 8 {
		return sim.Config8()
	}
	cfg := sim.Config16()
	if w.Cores != cfg.Cores {
		// Non-standard core counts (ingested corpora mostly) build a
		// square-ish grid, and the instruction cluster size is clamped
		// to the largest power of two rotational interleaving supports
		// on it (n <= tiles, and n divides the width or vice versa).
		cfg.Cores = w.Cores
		cfg.GridW, cfg.GridH = gridFor(w.Cores)
		for n := cfg.InstrClusterSize; n > 1; n /= 2 {
			if n <= w.Cores && (cfg.GridW%n == 0 || n%cfg.GridW == 0) {
				cfg.InstrClusterSize = n
				break
			}
			cfg.InstrClusterSize = n / 2
		}
	}
	return cfg
}

func gridFor(n int) (int, int) {
	w := 1
	for w*w < n {
		w++
	}
	for n%w != 0 {
		w++
	}
	return w, n / w
}

// TimelineConfig configures the flight recorder (re-exported from
// internal/obs/flight): epoch length in measured references, stored
// epoch cap, and an optional live per-epoch observer.
type TimelineConfig = flight.Config

// Timeline is the flight recorder's product: a delta-encoded per-epoch
// history of the run (re-exported from internal/obs/flight).
type Timeline = flight.Timeline

// Result is one design's measured performance on one workload.
//
//rnuca:wire
type Result struct {
	sim.Result
	// CPIMean/CPICI are the batch statistics when Batches > 1
	// (CPIMean equals Result.CPI() for single batches).
	CPIMean float64 `json:"CPIMean"`
	CPICI   float64 `json:"CPICI"`
	// Timeline is the flight recorder's per-epoch history, populated
	// only when RunOptions.Timeline is set. It is observation, not
	// measurement — excluded from the JSON encoding so
	// recorded and unrecorded Results stay byte-identical on the wire
	// and in result-cache comparisons. With Batches > 1 the timeline
	// covers batch 0 (batches are independently-seeded repetitions, not
	// phases of one run); for ASR best-of-six it is the winning
	// variant's.
	Timeline *Timeline `json:"-"`
}

// NewDesign constructs a design instance on a chassis. ASR here is the
// adaptive variant; Job.Run applies the paper's best-of-six
// methodology for DesignASR. Unknown IDs panic; Job.Validate rejects
// them with an error first.
func NewDesign(id DesignID, ch *sim.Chassis) sim.Design {
	switch id {
	case DesignPrivate:
		return design.NewPrivate(ch)
	case DesignASR:
		return design.NewAdaptiveASR(ch, asrSeed)
	case DesignShared:
		return design.NewShared(ch)
	case DesignRNUCA:
		return design.NewReactive(ch)
	case DesignIdeal:
		return design.NewIdeal(ch)
	default:
		panic(fmt.Sprintf("rnuca: unknown design %q", id))
	}
}

// asrSeed seeds the replication RNG of every ASR design a job builds.
const asrSeed = 0xA5A5

// designMaker returns the design constructor a job uses for id, with
// ASR fixed to the adaptive variant (Job.makers sweeps the six).
func designMaker(id DesignID, opt RunOptions) maker {
	if id == DesignRNUCA && opt.PrivateClusterSize > 1 {
		size := opt.PrivateClusterSize
		return func(ch *sim.Chassis) sim.Design {
			return design.NewReactiveWithPrivateClusters(ch, size)
		}
	}
	return func(ch *sim.Chassis) sim.Design { return NewDesign(id, ch) }
}

// feed is a job input lowered for the batch loop.
type feed struct {
	// w names every cell and supplies its off-chip MLP.
	w Workload
	// open returns batch b's per-core streams and, when the batch holds
	// a reader, done, which reports the reader's error and releases it.
	open func(b int) (streams []trace.Stream, done func() error, err error)
	// what names the input in the errors a bad stream becomes.
	what string
	// gen is the generated input behind open, nil for replay inputs:
	// their references carry arbitrary addresses and busy counts, which
	// a workload.Tape cannot pack, so they still decode once per cell.
	gen *generated
}

// generated is a workload input lowered for the batch loop: batch b
// generates from the spec reseeded by b.
type generated struct {
	w Workload
	// readers is how many cells read each batch, one per maker;
	// runDesigns sets it before the first open.
	readers int

	mu    sync.Mutex
	tapes map[int]*batchTape // guarded by mu
}

// batchTape is one batch's tape and how many of its readers have
// opened it.
type batchTape struct {
	*workload.Tape
	opened int
}

// open returns batch b's per-core streams for one of its readers. With
// one reader per batch they are the batch's own generators, as a tape
// would only add memory. With more, each reader gets its own cursors on
// one workload.Tape, which the first reader builds and the feed drops
// once the last reader has opened it, so a tape lives only as long as
// its batch's cells. Building either records a "workload.setup" span
// on ctx's trace: once per cell on the direct path, once per batch on
// the tape path.
func (g *generated) open(ctx context.Context, b int) []trace.Stream {
	if g.readers <= 1 {
		ws, setup := g.setup(ctx, b)
		defer setup.End()
		return workload.Streams(ws)
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	t := g.tapes[b]
	if t == nil {
		ws, setup := g.setup(ctx, b)
		t = &batchTape{Tape: workload.NewTape(ws)}
		setup.End()
		g.tapes[b] = t
	}
	if t.opened++; t.opened == g.readers {
		delete(g.tapes, b)
	}
	return t.Streams()
}

// setup returns batch b's spec and starts its set-up span.
func (g *generated) setup(ctx context.Context, b int) (Workload, *obs.Span) {
	ws := g.w
	ws.Seed = g.w.Seed + uint64(b)*0x9E37
	sp := obs.StartSpan(ctx, "workload.setup")
	sp.SetAttr("workload", ws.Name)
	return ws, sp
}

// drop releases the tapes still held once a run ends: those of batches
// that some reader never opened because the run stopped early.
func (g *generated) drop() {
	g.mu.Lock()
	defer g.mu.Unlock()
	clear(g.tapes)
}

// runOne executes a single simulation over the given per-core streams.
func runOne(w Workload, opt runOpts, mk maker, streams []trace.Stream) sim.Result {
	sp := obs.StartSpan(opt.ctx, "sim.cell")
	defer sp.End()
	ch := sim.NewChassis(*opt.Config)
	d := mk(ch)
	sp.SetAttr("design", d.Name())
	sp.SetAttr("workload", w.Name)
	eng := sim.NewEngine(ch, d, streams)
	eng.OffChipMLP = w.OffChipMLP
	eng.Flight = opt.flightRec
	if poll := opt.poll; poll != nil {
		total := opt.Warm + opt.Measure
		eng.Progress = func(done int) bool { return poll(done, total) }
	}
	res := eng.Run(opt.Warm, opt.Measure)
	res.Workload = w.Name
	return res
}

// maker builds a cell's design on its chassis.
type maker = func(*sim.Chassis) sim.Design

// cellOut is one finished cell. A cell is one design maker on one
// batch of one input: one chassis build and one Engine.Run under a slot
// of the process-wide cell pool (internal/cellpool). It holds the
// batch's result and, for batch 0 under RunOptions.Timeline, the
// flight timeline.
type cellOut struct {
	res sim.Result
	tl  *Timeline
	err error
}

// runDesigns runs every batch of every maker of every design and
// returns, per design, the folded Result of its lowest-CPI maker, the
// first on ties: ASR's best-of-six (§5.1), or the one maker of any
// other design. The makers run concurrently (cellpool.Each); each
// streams its batches (cellpool.Stream), at most cellpool.Width()
// outstanding, and folds them through batchFold in batch order, so no
// Result depends on which cell finished first. A maker stops at its
// first failed batch (a cell that never got a slot fails with the
// context's cause) and reports the batches it folded before it. The
// error is the first failed maker's, in design order, else the
// context's.
func runDesigns(in feed, opt runOpts, designs [][]maker) ([]Result, error) {
	var makers []maker
	for _, ms := range designs {
		makers = append(makers, ms...)
	}
	if in.gen != nil {
		in.gen.readers = len(makers)
		defer in.gen.drop()
	}
	type unit struct {
		f   batchFold
		tl  *Timeline
		err error
	}
	units := make([]unit, len(makers))
	cellpool.Each(len(makers), func(k int) {
		u := &units[k]
		cellpool.Stream(opt.Batches, cellpool.Width(), func(b int) cellOut {
			return runCell(in, opt, makers[k], b)
		}, func(_ int, c cellOut) bool {
			if c.err != nil {
				u.err = c.err
				return false
			}
			u.f.add(c.res)
			if c.tl != nil {
				u.tl = c.tl
			}
			return true
		})
	})
	var err error
	out := make([]Result, len(designs))
	for d, ms := range designs {
		have := false
		for k := range ms {
			u := &units[k]
			if err == nil {
				err = u.err
			}
			if u.f.n == 0 {
				continue
			}
			r := u.f.result(opt)
			r.Timeline = u.tl
			if !have || r.CPI() < out[d].CPI() {
				out[d], have = r, true
			}
		}
		units = units[len(ms):]
		if have && len(ms) > 1 {
			out[d].Design = string(DesignASR)
		}
	}
	if err != nil {
		return out, err
	}
	return out, ctxErr(opt.ctx)
}

// runCell runs batch b of mk under a pool slot, and records batch 0's
// flight timeline when the options ask for one.
func runCell(in feed, opt runOpts, mk maker, b int) (c cellOut) {
	release, err := cellpool.Acquire(opt.ctx)
	if err != nil {
		return cellOut{err: err}
	}
	defer release()
	var rec *flight.Recorder
	if b == 0 && opt.Timeline != nil {
		rec = flight.NewRecorder(*opt.Timeline)
		opt.flightRec = rec
	}
	c.res, c.err = runBatch(in, opt, mk, b)
	if rec != nil {
		c.tl = rec.Timeline()
	}
	return c
}

// runBatch runs batch b's cell. A bad stream surfaces as an error, not
// a crash: a reader that failed mid-stream must not let the run pass
// silently, and the demux's panics (a core the trace holds no refs
// for, a trace that fails to rewind) are "trace:"-prefixed. Panics from
// anywhere else (engine or design bugs) propagate.
func runBatch(in feed, opt runOpts, mk maker, b int) (res sim.Result, err error) {
	streams, done, err := in.open(b)
	if err != nil {
		return res, err
	}
	defer func() {
		p := recover()
		if done != nil {
			if derr := done(); derr != nil {
				err = fmt.Errorf("rnuca: %s: %w", in.what, derr)
				return
			}
		}
		if p == nil {
			return
		}
		if s, ok := p.(string); ok && strings.HasPrefix(s, "trace: ") {
			err = fmt.Errorf("rnuca: %s: %s", in.what, s)
			return
		}
		panic(p)
	}()
	return runOne(in.w, opt, mk, streams), nil
}

// replaySetup validates the trace header and resolves replay options
// against it: for sharded or windowed replays the trace must carry a v2
// chunk index, and a record window rescopes the default Warm/Measure
// split from the recording run's to the window itself.
func replaySetup(in Input, opt RunOptions) (RunOptions, Workload, error) {
	path := in.path
	f, err := tracefile.Open(path)
	if err != nil {
		return opt, Workload{}, err
	}
	hdr := f.Header()
	f.Close()
	if hdr.Cores < 1 || hdr.Cores > sim.MaxCores {
		return opt, Workload{}, fmt.Errorf("rnuca: trace %s declares %d cores", path, hdr.Cores)
	}
	w := workloadFor(hdr)

	// available is the record count the replay may consume: the header's
	// declared total (0 = streaming trace of unknown length, exempt from
	// the oversampling check below), narrowed to the window when one is
	// set. Sharded and windowed replays read the exact total from the
	// index footer, which is authoritative even for unpatched headers.
	available := hdr.Refs
	if in.shards > 1 || in.windowed() {
		ix, err := tracefile.OpenIndexed(path)
		if err != nil {
			return opt, Workload{}, fmt.Errorf("rnuca: replaying %s with shards/window: %w", path, err)
		}
		available = ix.Refs()
		ix.Close()
	}
	if in.windowed() {
		start, win := in.windowStart, in.windowRefs
		if start >= available {
			return opt, Workload{}, fmt.Errorf("rnuca: trace %s window starts at record %d of %d",
				path, start, available)
		}
		if win == 0 {
			win = available - start
		}
		if start+win > available {
			return opt, Workload{}, fmt.Errorf("rnuca: trace %s window [%d,%d) outside its %d records",
				path, start, start+win, available)
		}
		if win < 5 {
			return opt, Workload{}, fmt.Errorf("rnuca: trace %s window of %d refs too small to replay", path, win)
		}
		if opt.Warm == 0 {
			opt.Warm = int(win / 5)
		}
		if opt.Measure == 0 {
			if uint64(opt.Warm) >= win {
				return opt, Workload{}, fmt.Errorf(
					"rnuca: trace %s window of %d refs leaves nothing to measure after %d warmup", path, win, opt.Warm)
			}
			opt.Measure = int(win) - opt.Warm
		}
		available = win
	} else {
		if opt.Warm == 0 {
			opt.Warm = hdr.Warm
		}
		if opt.Measure == 0 {
			opt.Measure = hdr.Measure
		}
		// Ingested corpora (rnuca-trace convert) record no run split;
		// when the caller sets none either, derive one from the trace
		// length the way windows do: a fifth warms, the rest measures.
		if opt.Warm == 0 && opt.Measure == 0 && available >= 5 {
			n := available
			if n > math.MaxInt32 {
				n = math.MaxInt32
			}
			opt.Warm = int(n / 5)
			opt.Measure = int(n) - opt.Warm
		}
	}
	opt = opt.withDefaults(w)
	if err := checkChassis(opt, hdr.Cores); err != nil {
		return opt, Workload{}, fmt.Errorf("rnuca: trace %s: %w", path, err)
	}
	// A replay that needs more refs than the trace (or window) holds
	// would recycle recorded references (the demux loops per core);
	// refuse rather than let oversampled results masquerade as a longer
	// run. Traces without a declared count (streaming writers) are
	// exempt — the length is unknowable up front.
	if need := uint64(opt.Warm) + uint64(opt.Measure); available > 0 && need > available {
		return opt, Workload{}, fmt.Errorf(
			"rnuca: trace %s holds %d replayable refs but replay needs %d (warm %d + measure %d); record a longer trace or lower the counts",
			path, available, need, opt.Warm, opt.Measure)
	}
	return opt, w, nil
}

// openReplaySource opens one batch's view of the trace: a plain
// streaming reader by default, an indexed window cursor or parallel
// sharded decoder when the input asks for one. done reports the
// reader's error and releases it; it is safe to call after exhaustion.
func openReplaySource(in Input) (src trace.RefSource, done func() error, err error) {
	if in.shards <= 1 && !in.windowed() {
		f, err := tracefile.Open(in.path)
		if err != nil {
			return nil, nil, err
		}
		return f, func() error { defer f.Close(); return f.Err() }, nil
	}
	ix, err := tracefile.OpenIndexed(in.path)
	if err != nil {
		return nil, nil, fmt.Errorf("rnuca: replaying %s with shards/window: %w", in.path, err)
	}
	start, n := in.windowStart, in.windowRefs
	if n == 0 {
		n = ix.Refs() - start
	}
	if in.shards > 1 {
		p, err := ix.Parallel(in.shards, start, n)
		if err != nil {
			ix.Close()
			return nil, nil, err
		}
		return p, func() error { defer ix.Close(); defer p.Close(); return p.Err() }, nil
	}
	c, err := ix.Window(start, n)
	if err != nil {
		ix.Close()
		return nil, nil, err
	}
	return c, func() error { defer ix.Close(); return c.Err() }, nil
}

// TraceWorkload reconstructs the workload a trace file describes: the
// catalog entry when the header's name resolves, otherwise a minimal
// spec carrying the header's core count and timing parameters. It is
// how ingested corpora (rnuca-trace convert), whose workloads exist in
// no catalog, enter the replay and Campaign APIs.
func TraceWorkload(path string) (Workload, error) {
	f, err := tracefile.Open(path)
	if err != nil {
		return Workload{}, err
	}
	hdr := f.Header()
	f.Close()
	if hdr.Cores < 1 {
		return Workload{}, fmt.Errorf("rnuca: trace %s declares %d cores", path, hdr.Cores)
	}
	return workloadFor(hdr), nil
}

// workloadFor reconstructs the workload a trace was recorded from: the
// catalog entry when the name resolves, otherwise a minimal spec carrying
// the header's timing parameters (replay never generates references, so
// footprints and mixes are not needed).
func workloadFor(hdr tracefile.Header) Workload {
	if w, ok := workload.ByName(hdr.Workload); ok {
		return w
	}
	mlp := hdr.OffChipMLP
	if mlp < 1 {
		mlp = 1
	}
	return Workload{
		Name:       hdr.Workload,
		Cores:      hdr.Cores,
		Seed:       hdr.Seed,
		OffChipMLP: mlp,
	}
}

// batchFold folds independently-seeded batch results with equal
// weight, one batch at a time: event counters sum, while the CPI stack
// and per-class cycle breakdowns — per-instruction rates — average over
// the batch count. (The pre-v2 fold averaged pairwise, (a+b)/2 per
// step, which weighted batch b of B by 2^-(B-b) for B > 2.)
type batchFold struct {
	sum sim.Result
	n   int
	cpi stats.Summary
}

// add folds in the next batch's result.
func (f *batchFold) add(b sim.Result) {
	f.cpi.Add(b.CPI())
	if f.n++; f.n == 1 {
		f.sum = b
		return
	}
	out := &f.sum
	out.Instructions += b.Instructions
	out.Refs += b.Refs
	out.Cycles += b.Cycles
	out.OffChipMisses += b.OffChipMisses
	out.MixedPageAccesses += b.MixedPageAccesses
	out.MisclassifiedAccesses += b.MisclassifiedAccesses
	out.ClassifiedAccesses += b.ClassifiedAccesses
	out.NetMessages += b.NetMessages
	out.NetFlitHops += b.NetFlitHops
	out.NetWaitCycles += b.NetWaitCycles
	for i := range out.CPIStack {
		out.CPIStack[i] += b.CPIStack[i]
	}
	for c := range out.ClassCycles {
		for i := range out.ClassCycles[c] {
			out.ClassCycles[c][i] += b.ClassCycles[c][i]
		}
	}
}

// result averages the rates over the batches folded in and attaches
// the batch CPI statistics.
func (f *batchFold) result(opt runOpts) Result {
	sp := obs.StartSpan(opt.ctx, "result.fold")
	defer sp.End()
	out := f.sum
	if n := float64(f.n); n > 1 {
		for i := range out.CPIStack {
			out.CPIStack[i] /= n
		}
		for c := range out.ClassCycles {
			for i := range out.ClassCycles[c] {
				out.ClassCycles[c][i] /= n
			}
		}
	}
	return Result{Result: out, CPIMean: f.cpi.Mean(), CPICI: f.cpi.CI95()}
}
