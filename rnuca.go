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
// Compare designs the way Figure 12 does:
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
// FromCorpus(store, ref) replays a content-addressed corpus object;
// FromSource(fn) plugs in any reference stream. Record a generated
// run for later replay with Job.Record — a same-design replay
// reproduces the recording run's Result bit for bit.
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
// run records per-stage spans — replay setup, per-cell simulation,
// result fold — and reports the aggregate breakdown in
// Result.Timing; rnuca-serve exposes the same spans per job at
// GET /v1/jobs/{id}/trace.
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

// RefSource is re-exported so callers can plug external reference
// streams into FromSource without importing internal packages.
type RefSource = trace.RefSource

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

// runOpts is the internal run description every execution helper
// consumes: the job's RunOptions lowered together with the knobs that
// live elsewhere in the public API (the input's window/shards, the
// context-polling progress callback, the span-collecting context).
type runOpts struct {
	// Warm is the number of chip-wide references run before measurement
	// (cache/TLB/page-table warmup, like the paper's checkpoint warming).
	// 0 means the default.
	Warm int
	// Measure is the number of measured references. 0 means the default.
	Measure int
	// Batches > 1 runs that many independently-seeded measurements and
	// reports mean CPI with a 95% confidence interval, mirroring the
	// paper's sampling methodology. 0 or 1 means a single batch.
	Batches int
	// InstrClusterSize overrides R-NUCA's instruction cluster size
	// (Figure 11 ablation). 0 means the configuration default (4).
	InstrClusterSize int
	// PrivateClusterSize > 1 enables the §4.4 extension: R-NUCA spills
	// private data over fixed-center clusters of this many slices.
	PrivateClusterSize int
	// Config overrides the CMP configuration. Nil selects Config16 or
	// Config8 to match the workload's core count, as the paper does.
	Config *sim.Config
	// Source, when non-nil, overrides the workload's statistical
	// generator: batch b's references come from Source(b), demultiplexed
	// per core by each ref's Core field; external ingesters can supply
	// any RefSource. Finite sources loop per core once exhausted if they
	// implement trace.Rewinder. With Source set, DesignASR runs its
	// adaptive variant only (the best-of-six sweep would pull each
	// batch's source six times); use Replay for trace-driven ASR
	// best-of-six.
	Source func(batch int) RefSource

	// Progress, when non-nil, is called by each engine roughly every
	// few thousand consumed references with the engine's running count
	// and the run's per-engine total (Warm+Measure); returning false
	// stops the run early, leaving a partial Result. Observation cannot
	// perturb the deterministic timing model, so an observed run that
	// completes is bit-identical to an unobserved one. With Batches > 1
	// the engines run concurrently, so the callback must be safe for
	// concurrent use. New code observes with RunOptions.Progress and
	// cancels with a context instead.
	Progress func(done, total int) bool

	// Flight, when non-nil, attaches a flight recorder to batch 0's
	// engine (one recorder per run helper invocation); like Progress it
	// is pure observation and result-neutral.
	Flight *flight.Config
	// flightRec is the recorder instance a batch helper hands the one
	// engine that drives it.
	flightRec *flight.Recorder

	// Shards, when > 1, fans each replay batch's trace decoding across
	// that many parallel workers (replay only; requires a v2 indexed
	// trace). The simulation itself stays sequential and consumes refs
	// in exact file order, so a sharded replay's Result is bit-identical
	// to a sequential one — only chunk decompression overlaps it.
	Shards int
	// WindowStart and WindowRefs restrict a replay to the trace records
	// [WindowStart, WindowStart+WindowRefs), sampling a region of a long
	// trace without scanning from the start (replay only; requires a v2
	// indexed trace). WindowRefs 0 with WindowStart > 0 means "to the
	// end of the trace". When a window is set and Warm/Measure are
	// unset, Warm defaults to a fifth of the window and Measure to the
	// remainder, instead of the recording run's split.
	WindowStart, WindowRefs uint64

	// ctx carries the run's cancellation and any obs.Trace collecting
	// per-stage spans; helpers instrument against it unconditionally
	// (spans no-op without a trace).
	//rnuca:ctx-ok runOpts is the run's internal plumbing record, built per call by lower() and dead when the run returns
	ctx context.Context
}

// windowed reports whether replay options restrict the trace to a
// record window.
func (o runOpts) windowed() bool { return o.WindowStart > 0 || o.WindowRefs > 0 }

func (o runOpts) withDefaults(w Workload) runOpts {
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
func checkChassis(opt runOpts, cores int) error {
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

// StageTiming is one stage of a run's wall-clock breakdown
// (re-exported from internal/obs).
type StageTiming = obs.StageTiming

// TimelineConfig configures the flight recorder (re-exported from
// internal/obs/flight): epoch length in measured references, stored
// epoch cap, and an optional live per-epoch observer.
type TimelineConfig = flight.Config

// Timeline is the flight recorder's product: a delta-encoded per-epoch
// history of the run (re-exported from internal/obs/flight).
type Timeline = flight.Timeline

// TimelineEpoch is one timeline entry (re-exported from
// internal/obs/flight).
type TimelineEpoch = flight.Epoch

// Result is one design's measured performance on one workload.
//
//rnuca:wire
type Result struct {
	sim.Result
	// CPIMean/CPICI are the batch statistics when Batches > 1
	// (CPIMean equals Result.CPI() for single batches).
	CPIMean float64 `json:"CPIMean"`
	CPICI   float64 `json:"CPICI"`
	// Timing is the per-stage wall-clock breakdown, populated only
	// when the run's context carries an obs.Trace. It is diagnostic
	// metadata, not measurement: it is excluded from the JSON encoding
	// so observed and unobserved Results stay byte-identical on the
	// wire and in result-cache comparisons.
	Timing []StageTiming `json:"-"`
	// Timeline is the flight recorder's per-epoch history, populated
	// only when RunOptions.Timeline is set. Like Timing it is
	// observation, not measurement — excluded from the JSON encoding so
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
		return design.NewAdaptiveASR(ch, 0xA5A5)
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

// designMaker returns the design constructor Job.Run would use for id,
// with ASR fixed to the adaptive variant (the best-of-six sweep is
// handled by runASRBest, which generator-driven runs still go through).
func designMaker(id DesignID, opt runOpts) func(*sim.Chassis) sim.Design {
	if id == DesignRNUCA && opt.PrivateClusterSize > 1 {
		size := opt.PrivateClusterSize
		return func(ch *sim.Chassis) sim.Design {
			return design.NewReactiveWithPrivateClusters(ch, size)
		}
	}
	return func(ch *sim.Chassis) sim.Design { return NewDesign(id, ch) }
}

// runOne executes a single simulation over the given per-core streams.
func runOne(ws Workload, opt runOpts, mk func(*sim.Chassis) sim.Design, streams []trace.Stream) sim.Result {
	sp := obs.StartSpan(opt.ctx, "sim.cell")
	defer sp.End()
	ch := sim.NewChassis(*opt.Config)
	d := mk(ch)
	sp.SetAttr("design", d.Name())
	sp.SetAttr("workload", ws.Name)
	eng := sim.NewEngine(ch, d, streams)
	eng.OffChipMLP = ws.OffChipMLP
	eng.Flight = opt.flightRec
	hookProgress(eng, opt)
	res := eng.Run(opt.Warm, opt.Measure)
	res.Workload = ws.Name
	return res
}

// runOneSource is runOne fed by a multiplexed RefSource.
func runOneSource(ws Workload, opt runOpts, mk func(*sim.Chassis) sim.Design, src trace.RefSource) sim.Result {
	sp := obs.StartSpan(opt.ctx, "sim.cell")
	defer sp.End()
	ch := sim.NewChassis(*opt.Config)
	d := mk(ch)
	sp.SetAttr("design", d.Name())
	sp.SetAttr("workload", ws.Name)
	eng := sim.NewEngineSource(ch, d, src)
	eng.OffChipMLP = ws.OffChipMLP
	eng.Flight = opt.flightRec
	hookProgress(eng, opt)
	res := eng.Run(opt.Warm, opt.Measure)
	res.Workload = ws.Name
	return res
}

// hookProgress attaches the options' progress observer to an engine.
func hookProgress(eng *sim.Engine, opt runOpts) {
	if opt.Progress == nil {
		return
	}
	total := opt.Warm + opt.Measure
	cb := opt.Progress
	eng.Progress = func(done int) bool { return cb(done, total) }
}

// runBatches executes opt.Batches independently-seeded runs and folds
// the results with equal batch weight.
func runBatches(w Workload, opt runOpts, mk func(*sim.Chassis) sim.Design) Result {
	results := make([]sim.Result, opt.Batches)
	rec := newFlightRecorder(opt)
	var cpi stats.Summary
	for b := 0; b < opt.Batches; b++ {
		ws := w
		ws.Seed = w.Seed + uint64(b)*0x9E37
		bo := opt
		if b == 0 {
			bo.flightRec = rec
		}
		if opt.Source != nil {
			results[b] = runOneSource(ws, bo, mk, opt.Source(b))
		} else {
			setup := obs.StartSpan(opt.ctx, "workload.setup")
			setup.SetAttr("workload", ws.Name)
			streams := workload.Streams(ws)
			setup.End()
			results[b] = runOne(ws, bo, mk, streams)
		}
		cpi.Add(results[b].CPI())
	}
	var out Result
	out.Result = fold(opt, results)
	out.CPIMean = cpi.Mean()
	out.CPICI = cpi.CI95()
	if rec != nil {
		out.Timeline = rec.Timeline()
	}
	return out
}

// newFlightRecorder builds the run's flight recorder when the options
// ask for one. Each batch-helper invocation gets its own recorder
// (attached to batch 0's engine), so concurrent cells never share one.
func newFlightRecorder(opt runOpts) *flight.Recorder {
	if opt.Flight == nil {
		return nil
	}
	return flight.NewRecorder(*opt.Flight)
}

// replaySetup validates the trace header and resolves replay options
// against it: for sharded or windowed replays the trace must carry a v2
// chunk index, and a record window rescopes the default Warm/Measure
// split from the recording run's to the window itself.
func replaySetup(path string, opt runOpts) (runOpts, Workload, error) {
	if opt.Source != nil {
		return opt, Workload{}, fmt.Errorf("rnuca: Replay with Options.Source set; the trace is the source")
	}
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
	if opt.Shards > 1 || opt.windowed() {
		ix, err := tracefile.OpenIndexed(path)
		if err != nil {
			return opt, Workload{}, fmt.Errorf("rnuca: replaying %s with shards/window: %w", path, err)
		}
		available = ix.Refs()
		ix.Close()
	}
	if opt.windowed() {
		if opt.WindowStart >= available {
			return opt, Workload{}, fmt.Errorf("rnuca: trace %s window starts at record %d of %d",
				path, opt.WindowStart, available)
		}
		if opt.WindowRefs == 0 {
			opt.WindowRefs = available - opt.WindowStart
		}
		if opt.WindowStart+opt.WindowRefs > available {
			return opt, Workload{}, fmt.Errorf("rnuca: trace %s window [%d,%d) outside its %d records",
				path, opt.WindowStart, opt.WindowStart+opt.WindowRefs, available)
		}
		win := opt.WindowRefs
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
// sharded decoder when the options ask for one. The returned close
// function is safe to call after exhaustion.
func openReplaySource(path string, opt runOpts) (src interface {
	trace.RefSource
	Err() error
}, closeSrc func(), err error) {
	if opt.Shards <= 1 && !opt.windowed() {
		f, err := tracefile.Open(path)
		if err != nil {
			return nil, nil, err
		}
		return f, func() { f.Close() }, nil
	}
	ix, err := tracefile.OpenIndexed(path)
	if err != nil {
		return nil, nil, fmt.Errorf("rnuca: replaying %s with shards/window: %w", path, err)
	}
	start, n := opt.WindowStart, opt.WindowRefs
	if n == 0 {
		n = ix.Refs() - start
	}
	if opt.Shards > 1 {
		p, err := ix.Parallel(opt.Shards, start, n)
		if err != nil {
			ix.Close()
			return nil, nil, err
		}
		return p, func() { p.Close(); ix.Close() }, nil
	}
	c, err := ix.Window(start, n)
	if err != nil {
		ix.Close()
		return nil, nil, err
	}
	return c, func() { ix.Close() }, nil
}

// replayBatches runs opt.Batches replay engines over one trace in
// parallel and folds the results with equal batch weight. Each batch
// opens its own view of the file — sequential, windowed, or sharded per
// the options — so batches never contend on shared reader state.
func replayBatches(path string, w Workload, opt runOpts, mk func(*sim.Chassis) sim.Design) (Result, error) {
	results := make([]sim.Result, opt.Batches)
	errs := make([]error, opt.Batches)
	rec := newFlightRecorder(opt)
	var wg sync.WaitGroup
	for b := 0; b < opt.Batches; b++ {
		wg.Add(1)
		go func(b int) {
			defer wg.Done()
			// The recorder is single-goroutine: only batch 0 drives it.
			bo := opt
			if b == 0 {
				bo.flightRec = rec
			}
			opt := bo
			src, closeSrc, err := openReplaySource(path, opt)
			if err != nil {
				errs[b] = err
				return
			}
			defer closeSrc()
			// A corrupt or truncated trace surfaces as an error, not a
			// crash: the demux's panics are "trace:"-prefixed, and a
			// reader that failed mid-stream must not let the run pass
			// silently. Panics from anywhere else (engine or design
			// bugs) propagate.
			defer func() {
				p := recover()
				if err := src.Err(); err != nil {
					errs[b] = fmt.Errorf("rnuca: replaying %s: %w", path, err)
					return
				}
				if p == nil {
					return
				}
				if s, ok := p.(string); ok && strings.HasPrefix(s, "trace: ") {
					errs[b] = fmt.Errorf("rnuca: replaying %s: %s", path, s)
					return
				}
				panic(p)
			}()
			results[b] = runOneSource(w, opt, mk, src)
		}(b)
	}
	wg.Wait()
	var cpi stats.Summary
	for b, res := range results {
		if errs[b] != nil {
			return Result{}, errs[b]
		}
		cpi.Add(res.CPI())
	}
	var out Result
	out.Result = fold(opt, results)
	out.CPIMean = cpi.Mean()
	out.CPICI = cpi.CI95()
	if rec != nil {
		out.Timeline = rec.Timeline()
	}
	return out, nil
}

// replayASRBest mirrors runASRBest over a trace: six ASR variants replay
// the same refs, the best CPI is reported.
func replayASRBest(path string, w Workload, opt runOpts) (Result, error) {
	best := Result{}
	bestCPI := 0.0
	for i, mk := range asrVariants() {
		r, err := replayBatches(path, w, opt, mk)
		if err != nil {
			return Result{}, err
		}
		if i == 0 || r.CPI() < bestCPI {
			best, bestCPI = r, r.CPI()
		}
	}
	best.Design = "A"
	return best, nil
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

// fold folds independently-seeded batch results with equal weight:
// event counters sum, while the CPI stack and per-class cycle
// breakdowns — per-instruction rates — average over the batch count.
// (The pre-v2 fold averaged pairwise, (a+b)/2 per step, which weighted
// batch b of B by 2^-(B-b) for B > 2.)
func fold(opt runOpts, rs []sim.Result) sim.Result {
	sp := obs.StartSpan(opt.ctx, "result.fold")
	defer sp.End()
	out := rs[0]
	for _, b := range rs[1:] {
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
	if n := float64(len(rs)); n > 1 {
		for i := range out.CPIStack {
			out.CPIStack[i] /= n
		}
		for c := range out.ClassCycles {
			for i := range out.ClassCycles[c] {
				out.ClassCycles[c][i] /= n
			}
		}
	}
	return out
}

// asrVariants returns the six ASR configurations of the paper's §5.1
// methodology: five static replication probabilities plus the adaptive
// controller.
func asrVariants() []func(*sim.Chassis) sim.Design {
	return []func(*sim.Chassis) sim.Design{
		func(ch *sim.Chassis) sim.Design { return design.NewASR(ch, 0, 0xA5A5) },
		func(ch *sim.Chassis) sim.Design { return design.NewASR(ch, 0.25, 0xA5A5) },
		func(ch *sim.Chassis) sim.Design { return design.NewASR(ch, 0.5, 0xA5A5) },
		func(ch *sim.Chassis) sim.Design { return design.NewASR(ch, 0.75, 0xA5A5) },
		func(ch *sim.Chassis) sim.Design { return design.NewASR(ch, 1, 0xA5A5) },
		func(ch *sim.Chassis) sim.Design { return design.NewAdaptiveASR(ch, 0xA5A5) },
	}
}

// runASRBest implements the paper's ASR methodology (§5.1): six variants
// (adaptive plus five static probabilities), report the best-performing.
func runASRBest(w Workload, opt runOpts) Result {
	best := Result{}
	bestCPI := 0.0
	for i, mk := range asrVariants() {
		r := runBatches(w, opt, mk)
		if i == 0 || r.CPI() < bestCPI {
			best, bestCPI = r, r.CPI()
		}
	}
	best.Design = "A"
	return best
}
