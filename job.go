package rnuca

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"sync/atomic"

	"rnuca/internal/design"
	"rnuca/internal/obs"
	"rnuca/internal/sim"
	"rnuca/internal/trace"
	"rnuca/internal/tracefile"
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
	// Batches > 1 runs that many independently-seeded measurements of
	// a generated input and reports mean CPI with a 95% confidence
	// interval. It applies to generated inputs only: a replay has no
	// seed, so each of its batches would repeat one run, and Validate
	// refuses Batches > 1 on trace and corpus inputs. The batches run
	// on the process-wide cell pool, at most GOMAXPROCS at once, and
	// fold in batch order, so the Result does not depend on which
	// finished first. 0 or 1 means a single batch. When several cells
	// read each batch of a generated input (Compare, or ASR's six
	// variants), the run holds the batch's references on one shared
	// tape, 8 bytes per generated reference for each batch in flight,
	// until its last cell has read them.
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
	// excluded from the canonical encoding and every cache key. Any
	// job of more than one cell (several batches, several designs, or
	// ASR's six variants) runs its engines concurrently, so the hook
	// must be safe for concurrent use.
	Progress func(done, total int)
	// Timeline, when non-nil, attaches a flight recorder
	// (internal/obs/flight) to the run: every Timeline.Every measured
	// references the engine snapshots per-core CPI, per-class traffic,
	// OS-page transitions, bank pressure, and link utilization into
	// Result.Timeline. Like Progress it is pure observation — it cannot
	// change the Result, and it is excluded from the canonical encoding
	// and every cache key. With Batches > 1 the timeline covers batch 0.
	// Each maker's batch 0 records its own timeline (ASR's six variants
	// each one), so like Progress, Timeline.OnEpoch must be safe for
	// concurrent use.
	Timeline *TimelineConfig
}

// ProgressGauge is a concurrency-safe monotone progress cell whose
// Observe method plugs directly into RunOptions.Progress: concurrent
// engines (a job's cells) report independently and the largest count
// wins. The zero value is ready to use.
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

// Reset clears the gauge so it observes a fresh set of engines; a
// figure campaign resets its gauge each time it starts a set of cells.
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
// Execute with Run (exactly one design) or Compare (any set); both
// take a context.Context, which is the cancellation path: engines
// poll it every few thousand simulated references, and a canceled run
// returns its partial Result together with the context's error.
type Job struct {
	// Input is the reference stream (FromWorkload, FromTrace,
	// FromCorpus).
	Input Input
	// Designs are the L2 organizations to evaluate. Run requires
	// exactly one; Compare accepts any non-empty list without repeats.
	Designs []DesignID
	// Options tunes the run.
	Options RunOptions
	// Maker, when non-nil, constructs the design instance directly,
	// overriding Designs — the hook for ablations and ASR variants
	// (the legacy RunWith/ReplayWith). Maker jobs have no canonical
	// encoding and are never cached; Designs then only labels the
	// result. It is called once per cell, concurrently when the job
	// has several batches.
	Maker func(*sim.Chassis) sim.Design
}

// Validate checks the job without running it: input construction
// errors, unknown or repeated designs, unbound corpus references,
// negative options, Warm or Measure above 2^31-1, Batches above 1 on a
// replay, and a chassis the run could not build (an invalid Config, a
// core count other than the input's, a cluster size that is not a
// power of two within the chip) all surface here as errors, before any
// per-core state is allocated. A replay's core count comes from its
// trace header, which Run checks when it opens the trace.
func (j Job) Validate() error {
	if err := j.Input.Err(); err != nil {
		return err
	}
	if j.Input.kind == "" {
		return fmt.Errorf("rnuca: job has no input (use FromWorkload, FromTrace, or FromCorpus)")
	}
	if j.Maker == nil {
		if len(j.Designs) == 0 {
			return fmt.Errorf("rnuca: job names no designs")
		}
		for i, id := range j.Designs {
			if !knownDesign(id) {
				return fmt.Errorf("rnuca: unknown design %q (P, A, S, R, I)", id)
			}
			// Only five designs exist, so this scan stops within six
			// entries of any list.
			for _, prev := range j.Designs[:i] {
				if prev == id {
					return fmt.Errorf("rnuca: design %q listed twice", id)
				}
			}
		}
	}
	// Warm and Measure are capped so the engine's Warm+Measure loop
	// bound cannot overflow; the replay path clamps a derived split the
	// same way. Batches takes the same cap.
	for _, f := range []struct {
		name   string
		v, max int
	}{
		{"Warm", j.Options.Warm, math.MaxInt32}, {"Measure", j.Options.Measure, math.MaxInt32},
		{"Batches", j.Options.Batches, math.MaxInt32},
		{"InstrClusterSize", j.Options.InstrClusterSize, math.MaxInt},
		{"PrivateClusterSize", j.Options.PrivateClusterSize, math.MaxInt},
	} {
		if f.v < 0 {
			return fmt.Errorf("rnuca: job option %s is negative (%d)", f.name, f.v)
		}
		if f.v > f.max {
			return fmt.Errorf("rnuca: job option %s is %d, above %d", f.name, f.v, f.max)
		}
	}
	if j.Input.Replays() && j.Options.Batches > 1 {
		return fmt.Errorf("rnuca: job option Batches is %d on a replay; a replay has no seed, so every batch would repeat one run", j.Options.Batches)
	}
	cores := j.Input.workload.Cores
	switch j.Input.kind {
	case InputWorkload:
		if err := j.Input.workload.Validate(); err != nil {
			return fmt.Errorf("rnuca: job workload: %w", err)
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
	return checkChassis(j.Options.withDefaults(Workload{Cores: cores}), cores)
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
	rs, err := j.run(ctx, []DesignID{id})
	return rs[0], err
}

// Compare executes every design of the job over the same input — the
// Figure 12 sweep. Its cells (every batch of every design, ASR's six
// variants each their own) run together on the process-wide cell pool,
// at most GOMAXPROCS at once, and each design's batches fold in batch
// order, so the Results equal those of one Run per design. On a
// generated input every cell of a batch reads one shared tape of the
// batch's references instead of regenerating them, holding 8 bytes
// per generated reference for each batch in flight; replay inputs
// still decode once per cell. On error
// (cancellation included) the returned map still holds whatever
// results, partial or complete, the designs produced; a design whose
// cells measured nothing before the context ended (none got a slot,
// or all were still warming up) maps to a Result with Refs 0.
func (j Job) Compare(ctx context.Context) (map[DesignID]Result, error) {
	if err := j.Validate(); err != nil {
		return nil, err
	}
	if j.Maker != nil {
		return nil, fmt.Errorf("rnuca: Compare on a Maker job; use Run")
	}
	rs, err := j.run(ctx, j.Designs)
	out := make(map[DesignID]Result, len(j.Designs))
	for i, id := range j.Designs {
		out[id] = rs[i]
	}
	return out, err
}

// Record executes a single-design workload job exactly as Run does
// (single batch), teeing every reference the engine consumes — warmup
// included — into a trace file at path. Replaying the file under the
// same design and reference counts reproduces the returned Result bit
// for bit. ASR without a Maker is refused: Run reports it as the best
// of six variants, and each variant consumes a different number of
// references per core, so no one recording replays to that Result.
// Record one variant through a Maker instead.
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
	if j.Maker == nil && id == DesignASR {
		return Result{}, fmt.Errorf("rnuca: Record under design A: Run reports ASR as the best of %d variants, each consuming a different number of references per core, so no one recording replays to that Result; record one variant through a Maker", design.NumASRVariants)
	}
	in, opt, err := j.lower(ctx)
	if err != nil {
		return Result{}, err
	}
	opt.Batches = 1
	fw, err := tracefile.Create(path, tracefile.Header{
		Workload:   in.w.Name,
		Design:     string(id),
		Cores:      opt.Config.Cores,
		Seed:       in.w.Seed,
		Warm:       opt.Warm,
		Measure:    opt.Measure,
		OffChipMLP: in.w.OffChipMLP,
	})
	if err != nil {
		return Result{}, err
	}
	open := in.open
	in.open = func(b int) ([]trace.Stream, func() error, error) {
		streams, done, err := open(b)
		return tracefile.RecordStreams(fw.Writer, streams), done, err
	}
	mk := j.Maker
	if mk == nil {
		mk = designMaker(id, opt.RunOptions)
	}
	out, err := runDesigns(in, opt, [][]maker{{mk}})
	if cerr := fw.Close(); err == nil {
		err = cerr
	}
	return out[0], err
}

// run lowers the job once and runs the designs' cells together.
func (j Job) run(ctx context.Context, ids []DesignID) ([]Result, error) {
	in, opt, err := j.lower(ctx)
	if err != nil {
		return make([]Result, len(ids)), err
	}
	designs := make([][]maker, len(ids))
	for i, id := range ids {
		designs[i] = j.makers(id, opt.RunOptions)
	}
	return runDesigns(in, opt, designs)
}

// makers returns the makers one design runs: the Maker when set; for
// ASR, the paper's best-of-six (§5.1), reported as "A" with the lowest
// CPI (the first on ties); otherwise the one design.
func (j Job) makers(id DesignID, opt RunOptions) []maker {
	switch {
	case j.Maker != nil:
		return []maker{j.Maker}
	case id == DesignASR:
		ms := make([]maker, design.NumASRVariants)
		for v := range ms {
			v := v
			ms[v] = func(ch *sim.Chassis) sim.Design { return design.NewASRVariant(ch, v, asrSeed) }
		}
		return ms
	}
	return []maker{designMaker(id, opt)}
}

// lower resolves the job for the run path: its options with defaults
// applied (a replay's against the trace header), the progress hook that
// both feeds RunOptions.Progress and polls the context, and its input
// lowered to a per-batch stream opener.
func (j Job) lower(ctx context.Context) (feed, runOpts, error) {
	opt := runOpts{RunOptions: j.Options, ctx: ctx}
	// With nothing to observe and nothing to cancel the hook stays nil,
	// so the engine's fast path stays untouched.
	if watch := j.Options.Progress; watch != nil || ctx.Done() != nil {
		opt.poll = func(done, total int) bool {
			if watch != nil {
				watch(done, total)
			}
			return ctx.Err() == nil
		}
	}
	in := j.Input
	if in.Replays() {
		setup := obs.StartSpan(ctx, "replay.setup")
		setup.SetAttr("path", in.path)
		ro, w, err := replaySetup(in, j.Options)
		setup.End()
		if err != nil {
			return feed{}, opt, err
		}
		opt.RunOptions = ro
		cores := ro.Config.Cores
		return feed{w: w, what: "replaying " + in.path, open: func(int) ([]trace.Stream, func() error, error) {
			src, done, err := tracefile.OpenRange(in.path, in.windowStart, in.windowRefs, in.shards)
			if err != nil {
				return nil, nil, err
			}
			return trace.Demux(src, cores), done, nil
		}}, opt, nil
	}
	w := in.workload
	opt.RunOptions = j.Options.withDefaults(w)
	gen := &generated{w: w, tapes: make(map[int]*batchTape)}
	return feed{w: w, what: "generating " + w.Name, gen: gen, open: func(b int) ([]trace.Stream, func() error, error) {
		return gen.open(ctx, b), nil, nil
	}}, opt, nil
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
// (Sharded, Progress, Timeline) are excluded by construction. Maker
// jobs have no canonical encoding and error.
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
