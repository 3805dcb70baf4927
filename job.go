package rnuca

import (
	"context"
	"encoding/json"
	"fmt"
	"sync/atomic"

	"rnuca/internal/obs"
	"rnuca/internal/sim"
	"rnuca/internal/tracefile"
	"rnuca/internal/workload"
)

// jobEncodingVersion versions the canonical Job JSON. Bump it only
// for changes that alter the meaning of an encoding — every bump
// invalidates persisted result-cache keys built from older encodings.
const jobEncodingVersion = 2

// RunOptions tunes how a Job executes. It carries only knobs that
// are legal for every input kind: source
// selection lives on Input, replay-only knobs (window, shards) live
// on trace- and corpus-backed inputs, and cancellation is the
// context passed to Run/Compare.
type RunOptions struct {
	// Warm is the number of chip-wide references run before
	// measurement. 0 means the default (the recording run's split for
	// replays, 200k for generated runs).
	Warm int
	// Measure is the number of measured references. 0 means the
	// default.
	Measure int
	// Batches > 1 runs that many independently-seeded measurements
	// and reports mean CPI with a 95% confidence interval. 0 or 1
	// means a single batch.
	Batches int
	// InstrClusterSize overrides R-NUCA's instruction cluster size
	// (Figure 11 ablation). 0 means the configuration default.
	InstrClusterSize int
	// PrivateClusterSize > 1 enables the §4.4 extension: R-NUCA
	// spills private data over fixed-center clusters of this size.
	PrivateClusterSize int
	// Config overrides the CMP configuration. Nil selects the Table 1
	// configuration matching the workload's core count.
	Config *sim.Config
	// Progress, when non-nil, observes each engine roughly every few
	// thousand consumed references with the engine's running count
	// and per-engine total (Warm+Measure). It is a pure observation
	// hook: it cannot stop the run (cancel the context for that), it
	// cannot perturb the deterministic timing model, and it is
	// excluded from the canonical encoding and every cache key. With
	// Batches > 1 engines run concurrently, so it must be safe for
	// concurrent use.
	Progress func(done, total int)
	// Timeline, when non-nil, attaches a flight recorder
	// (internal/obs/flight) to the run: every Timeline.Every measured
	// references the engine snapshots per-core CPI, per-class traffic,
	// OS-page transitions, bank pressure, and link utilization into
	// Result.Timeline. Like Progress it is pure observation — it cannot
	// change the Result, and it is excluded from the canonical encoding
	// and every cache key. With Batches > 1 the timeline covers batch 0.
	Timeline *TimelineConfig
}

// ProgressGauge is a concurrency-safe monotone progress cell whose
// Observe method plugs directly into RunOptions.Progress: concurrent
// engines (batches, Compare designs) report independently and the
// largest count wins. The zero value is ready to use.
type ProgressGauge struct {
	done, total atomic.Int64
}

// Observe records an engine's progress report.
func (g *ProgressGauge) Observe(done, total int) {
	g.total.Store(int64(total))
	for {
		cur := g.done.Load()
		if int64(done) <= cur || g.done.CompareAndSwap(cur, int64(done)) {
			return
		}
	}
}

// Progress returns the largest observed count and the per-engine
// total.
func (g *ProgressGauge) Progress() (done, total int64) {
	return g.done.Load(), g.total.Load()
}

// Reset clears the gauge, e.g. between the cells of a compare sweep.
func (g *ProgressGauge) Reset() {
	g.done.Store(0)
	g.total.Store(0)
}

// Job is one simulation request: an Input (where references come
// from), one or more designs to evaluate, and the run options. A Job
// has exactly one canonical JSON encoding (MarshalJSON), which is
// both the wire format of the rnuca-serve job API and the basis of
// result-cache keys — anything that cannot change the Result (decode
// sharding, progress observation) is excluded from it by
// construction.
//
// Execute with Run (exactly one design) or Compare (any number); both
// take a context.Context, which is the cancellation path: engines
// poll it every few thousand simulated references, and a canceled run
// returns its partial Result together with the context's error.
type Job struct {
	// Input is the reference stream (FromWorkload, FromTrace,
	// FromCorpus, FromSource).
	Input Input
	// Designs are the L2 organizations to evaluate. Run requires
	// exactly one; Compare accepts any non-empty list.
	Designs []DesignID
	// Options tunes the run.
	Options RunOptions
	// Maker, when non-nil, constructs the design instance directly,
	// overriding Designs — the hook for ablations and ASR variants
	// (the legacy RunWith/ReplayWith). Maker jobs have no canonical
	// encoding and are never cached; Designs then only labels the
	// result.
	Maker func(*sim.Chassis) sim.Design
}

// Validate checks the job without running it: input construction
// errors, unknown designs, unbound corpus references, negative
// options, and a chassis the run could not build (an invalid Config,
// a core count other than the input's, a cluster size that is not a
// power of two within the chip) all surface here as errors, before
// any per-core state is allocated. A replay's core count comes from
// its trace header, which Run checks when it opens the trace.
func (j Job) Validate() error {
	if err := j.Input.Err(); err != nil {
		return err
	}
	if j.Input.kind == "" {
		return fmt.Errorf("rnuca: job has no input (use FromWorkload, FromTrace, FromCorpus, or FromSource)")
	}
	if j.Maker == nil {
		if len(j.Designs) == 0 {
			return fmt.Errorf("rnuca: job names no designs")
		}
		for _, id := range j.Designs {
			if !knownDesign(id) {
				return fmt.Errorf("rnuca: unknown design %q (P, A, S, R, I)", id)
			}
		}
	}
	for _, f := range []struct {
		name string
		v    int
	}{
		{"Warm", j.Options.Warm}, {"Measure", j.Options.Measure},
		{"Batches", j.Options.Batches},
		{"InstrClusterSize", j.Options.InstrClusterSize},
		{"PrivateClusterSize", j.Options.PrivateClusterSize},
	} {
		if f.v < 0 {
			return fmt.Errorf("rnuca: job option %s is negative (%d)", f.name, f.v)
		}
	}
	cores := j.Input.workload.Cores
	switch j.Input.kind {
	case InputWorkload:
		if err := j.Input.workload.Validate(); err != nil {
			return fmt.Errorf("rnuca: job workload: %w", err)
		}
	case InputSource:
		if !j.Input.hasWorkload {
			if j.Options.Config == nil {
				return fmt.Errorf("rnuca: source input needs ForWorkload or an explicit Options.Config")
			}
			cores = j.Options.Config.Cores
		}
	default:
		if j.Input.kind == InputCorpus && j.Input.path == "" {
			return fmt.Errorf("rnuca: corpus input %q is unbound (Bind a store first)", j.Input.ref)
		}
		if j.Options.Config == nil {
			return nil
		}
		cores = j.Options.Config.Cores
	}
	if j.Options.Config == nil && (cores < 1 || cores > sim.MaxCores) {
		// Refused before ConfigFor, whose grid search runs in time
		// linear in the core count.
		return fmt.Errorf("rnuca: %d cores outside 1..%d", cores, sim.MaxCores)
	}
	opt := runOpts{
		Config:             j.Options.Config,
		InstrClusterSize:   j.Options.InstrClusterSize,
		PrivateClusterSize: j.Options.PrivateClusterSize,
	}
	return checkChassis(opt.withDefaults(Workload{Cores: cores}), cores)
}

func knownDesign(id DesignID) bool {
	for _, d := range AllDesigns() {
		if id == d {
			return true
		}
	}
	return false
}

// Run executes a single-design job. The context is the cancellation
// path: engines observe it every few thousand simulated references,
// and a canceled run stops promptly, returning the partial Result it
// had accumulated alongside the context's error.
func (j Job) Run(ctx context.Context) (Result, error) {
	if err := j.Validate(); err != nil {
		return Result{}, err
	}
	if j.Maker == nil && len(j.Designs) != 1 {
		return Result{}, fmt.Errorf("rnuca: Run on a %d-design job; use Compare", len(j.Designs))
	}
	var id DesignID
	if len(j.Designs) > 0 {
		id = j.Designs[0]
	}
	return j.runDesign(ctx, id)
}

// Compare executes every design of the job concurrently over the same
// input — the Figure 12 sweep. On error (cancellation included) the
// returned map still holds whatever results, partial or complete, the
// designs produced.
func (j Job) Compare(ctx context.Context) (map[DesignID]Result, error) {
	if err := j.Validate(); err != nil {
		return nil, err
	}
	if j.Maker != nil {
		return nil, fmt.Errorf("rnuca: Compare on a Maker job; use Run")
	}
	type cell struct {
		r   Result
		err error
	}
	cells := make([]cell, len(j.Designs))
	done := make(chan int, len(j.Designs))
	for i, id := range j.Designs {
		go func(i int, id DesignID) {
			cells[i].r, cells[i].err = j.runDesign(ctx, id)
			done <- i
		}(i, id)
	}
	for range j.Designs {
		<-done
	}
	out := make(map[DesignID]Result, len(j.Designs))
	var firstErr error
	for i, id := range j.Designs {
		out[id] = cells[i].r
		if cells[i].err != nil && firstErr == nil {
			firstErr = cells[i].err
		}
	}
	return out, firstErr
}

// Record executes a single-design workload job exactly as Run does
// (single batch), teeing every reference the engine consumes — warmup
// included — into a trace file at path. Replaying the file under the
// same design and reference counts reproduces the returned Result bit
// for bit.
func (j Job) Record(ctx context.Context, path string) (Result, error) {
	if err := j.Validate(); err != nil {
		return Result{}, err
	}
	if j.Input.kind != InputWorkload {
		return Result{}, fmt.Errorf("rnuca: Record on a %s input; recording captures a generated stream", j.Input.kind)
	}
	if j.Maker == nil && len(j.Designs) != 1 {
		return Result{}, fmt.Errorf("rnuca: Record on a %d-design job", len(j.Designs))
	}
	var id DesignID
	if len(j.Designs) > 0 {
		id = j.Designs[0]
	}
	w := j.Input.workload
	opt := j.Options.lower(ctx).withDefaults(w)
	opt.Batches = 1
	fw, err := tracefile.Create(path, tracefile.Header{
		Workload:   w.Name,
		Design:     string(id),
		Cores:      opt.Config.Cores,
		Seed:       w.Seed,
		Warm:       opt.Warm,
		Measure:    opt.Measure,
		OffChipMLP: w.OffChipMLP,
	})
	if err != nil {
		return Result{}, err
	}
	streams := tracefile.RecordStreams(fw.Writer, workload.Streams(w))
	mk := j.Maker
	if mk == nil {
		mk = designMaker(id, opt)
	}
	opt.flightRec = newFlightRecorder(opt)
	var out Result
	res := runOne(w, opt, mk, streams)
	out.Result = res
	out.CPIMean = res.CPI()
	if opt.flightRec != nil {
		out.Timeline = opt.flightRec.Timeline()
	}
	if t := obs.TraceFrom(ctx); t != nil {
		out.Timing = t.Stages()
	}
	if err := fw.Close(); err != nil {
		return out, err
	}
	return out, ctxErr(ctx)
}

// runDesign executes one design cell of the job.
func (j Job) runDesign(ctx context.Context, id DesignID) (res Result, err error) {
	defer func() {
		if t := obs.TraceFrom(ctx); t != nil {
			res.Timing = t.Stages()
		}
	}()
	opt := j.Options.lower(ctx)
	mk := j.Maker
	switch j.Input.kind {
	case InputTrace, InputCorpus:
		in := j.Input
		opt.Shards = in.shards
		opt.WindowStart, opt.WindowRefs = in.windowStart, in.windowRefs
		setup := obs.StartSpan(ctx, "replay.setup")
		setup.SetAttr("path", in.path)
		opt, w, err := replaySetup(in.path, opt)
		setup.End()
		if err != nil {
			return Result{}, err
		}
		var r Result
		switch {
		case mk != nil:
			r, err = replayBatches(in.path, w, opt, mk)
		case id == DesignASR:
			r, err = replayASRBest(in.path, w, opt)
		default:
			r, err = replayBatches(in.path, w, opt, designMaker(id, opt))
		}
		if err != nil {
			return r, err
		}
		return r, ctxErr(ctx)
	case InputWorkload:
		w := j.Input.workload
		opt = opt.withDefaults(w)
		var r Result
		switch {
		case mk != nil:
			r = runBatches(w, opt, mk)
		case id == DesignASR:
			r = runASRBest(w, opt)
		default:
			r = runBatches(w, opt, designMaker(id, opt))
		}
		return r, ctxErr(ctx)
	case InputSource:
		w := j.Input.workload
		if !j.Input.hasWorkload {
			// A bare source input: minimal timing parameters, chassis
			// shape from the validated explicit Config.
			w = Workload{Name: "source", Cores: j.Options.Config.Cores, OffChipMLP: 1}
		}
		opt.Source = j.Input.source
		opt = opt.withDefaults(w)
		if mk == nil {
			// ASR runs its adaptive variant only: the best-of-six sweep
			// would pull each batch's source six times.
			mk = designMaker(id, opt)
		}
		return runBatches(w, opt, mk), ctxErr(ctx)
	}
	return Result{}, fmt.Errorf("rnuca: job has no input")
}

// lower drops the public options onto the internal run machinery: a
// runOpts whose Progress callback both feeds the observation hook and
// polls the context — the single plumbing point through which
// cancellation reaches every engine — and whose ctx carries any span
// trace into the helpers.
func (ro RunOptions) lower(ctx context.Context) runOpts {
	o := runOpts{
		Warm:               ro.Warm,
		Measure:            ro.Measure,
		Batches:            ro.Batches,
		InstrClusterSize:   ro.InstrClusterSize,
		PrivateClusterSize: ro.PrivateClusterSize,
		Config:             ro.Config,
		Flight:             ro.Timeline,
		ctx:                ctx,
	}
	watch := ro.Progress
	if watch == nil && ctx.Done() == nil {
		// Nothing to observe and nothing to cancel: skip the hook so
		// the engine's fast path stays untouched.
		return o
	}
	o.Progress = func(done, total int) bool {
		if watch != nil {
			watch(done, total)
		}
		return ctx.Err() == nil
	}
	return o
}

// ctxErr converts a canceled context into the error a partial result
// is returned with.
func ctxErr(ctx context.Context) error {
	if ctx.Err() != nil {
		return context.Cause(ctx)
	}
	return nil
}

// jobJSON is the canonical encoding shape. Field order is fixed by
// this declaration; testdata/job-canonical.json freezes it.
//
//rnuca:wire
type jobJSON struct {
	V       int            `json:"v"`
	Input   Input          `json:"input"`
	Designs []DesignID     `json:"designs"`
	Options jobOptionsJSON `json:"options"`
}

// jobOptionsJSON is the result-relevant options subset in canonical
// field order. Progress is excluded (observation cannot change
// results); Batches is normalized so 0 and 1 — both "a single batch"
// — share one encoding.
//
//rnuca:wire
type jobOptionsJSON struct {
	Warm               int         `json:"warm"`
	Measure            int         `json:"measure"`
	Batches            int         `json:"batches"`
	InstrClusterSize   int         `json:"instr_cluster_size,omitempty"`
	PrivateClusterSize int         `json:"private_cluster_size,omitempty"`
	Config             *sim.Config `json:"config,omitempty"`
}

// MarshalJSON emits the job's canonical encoding: the wire format of
// POST /v1/jobs and the basis of result-cache keys. Two jobs whose
// encodings are byte-identical are guaranteed to produce
// bit-identical Results; knobs that provably cannot change results
// (Sharded, Progress, Timeline) are excluded by construction. Maker-
// and source-backed jobs have no canonical encoding and error.
func (j Job) MarshalJSON() ([]byte, error) {
	if j.Maker != nil {
		return nil, fmt.Errorf("rnuca: a Maker job has no canonical encoding")
	}
	batches := j.Options.Batches
	if batches == 0 {
		batches = 1
	}
	return json.Marshal(jobJSON{
		V:       jobEncodingVersion,
		Input:   j.Input,
		Designs: j.Designs,
		Options: jobOptionsJSON{
			Warm:               j.Options.Warm,
			Measure:            j.Options.Measure,
			Batches:            batches,
			InstrClusterSize:   j.Options.InstrClusterSize,
			PrivateClusterSize: j.Options.PrivateClusterSize,
			Config:             j.Options.Config,
		},
	})
}

// UnmarshalJSON decodes a canonical (or wire-shorthand) encoding.
func (j *Job) UnmarshalJSON(b []byte) error {
	var raw struct {
		V       *int            `json:"v"`
		Input   json.RawMessage `json:"input"`
		Designs []DesignID      `json:"designs"`
		Options jobOptionsJSON  `json:"options"`
	}
	if err := json.Unmarshal(b, &raw); err != nil {
		return fmt.Errorf("rnuca: decoding job: %w", err)
	}
	if raw.V != nil && *raw.V != jobEncodingVersion {
		return fmt.Errorf("rnuca: unsupported job encoding version %d (this release speaks v%d)", *raw.V, jobEncodingVersion)
	}
	if raw.Input == nil {
		return fmt.Errorf("rnuca: job encoding carries no input")
	}
	var in Input
	if err := json.Unmarshal(raw.Input, &in); err != nil {
		return err
	}
	*j = Job{
		Input:   in,
		Designs: raw.Designs,
		Options: RunOptions{
			Warm:               raw.Options.Warm,
			Measure:            raw.Options.Measure,
			Batches:            raw.Options.Batches,
			InstrClusterSize:   raw.Options.InstrClusterSize,
			PrivateClusterSize: raw.Options.PrivateClusterSize,
			Config:             raw.Options.Config,
		},
	}
	return nil
}

// Bind resolves the job's input against a corpus store (a no-op for
// non-corpus inputs) — what a server does between decoding a wire job
// and validating it.
func (j Job) Bind(st CorpusStore) (Job, error) {
	in, err := j.Input.Bind(st)
	if err != nil {
		return j, err
	}
	j.Input = in
	return j, nil
}

// WithDesign returns a copy of the job narrowed to a single design —
// the per-cell view a cache keys and a compare loop executes.
func (j Job) WithDesign(id DesignID) Job {
	j.Designs = []DesignID{id}
	return j
}
