// Package experiments regenerates every table and figure of the paper's
// evaluation (§3 and §5). Each FigN function returns ready-to-render
// tables; the Campaign caches simulation results so figures that share
// runs (7 through 10 and 12 all need the same design sweep) pay for them
// once. Each figure first declares the cells it needs, and the campaign
// runs them together through its resultcache.Cache, as serve's sim jobs
// do: the cache answers the cells an earlier figure ran, and every
// simulation takes a slot of the process-wide cell pool
// (internal/cellpool). The figure renders from the returned Results on
// the caller's goroutine. Cell spans land in the trace of the
// campaign's context (SetContext), a cache flight's included.
// cmd/rnuca-figures and the root benchmark harness are thin wrappers
// around this package.
package experiments

import (
	"context"
	"fmt"

	"rnuca"
	"rnuca/internal/cellpool"
	"rnuca/internal/obs"
	"rnuca/internal/resultcache"
	"rnuca/internal/sim"
	"rnuca/internal/trace"
	"rnuca/internal/tracefile"
	"rnuca/internal/workload"
)

// Scale sizes an experiment run.
//
//rnuca:wire
type Scale struct {
	// Warm and Measure are chip-wide reference counts per simulation.
	Warm    int `json:"warm,omitempty"`
	Measure int `json:"measure,omitempty"`
	// TraceRefs is the reference count for the §3 characterization
	// analyses (Figures 2-5), which need no timing simulation.
	TraceRefs int `json:"trace_refs,omitempty"`
	// Batches controls confidence intervals on Figure 12. It applies
	// to generated cells; a replay cell runs one batch.
	Batches int `json:"batches,omitempty"`
	// ASRBest enables the paper's best-of-six ASR methodology; when
	// false the adaptive variant alone represents ASR (6x cheaper).
	ASRBest bool `json:"asr_best,omitempty"`
}

// Quick returns a scale suitable for tests and benchmarks (seconds).
func Quick() Scale {
	return Scale{Warm: 60_000, Measure: 120_000, TraceRefs: 150_000, Batches: 1}
}

// Full returns the scale used to produce EXPERIMENTS.md (minutes).
func Full() Scale {
	return Scale{Warm: 200_000, Measure: 400_000, TraceRefs: 2_000_000, Batches: 3, ASRBest: true}
}

// Campaign caches per-workload, per-design simulation results.
type Campaign struct {
	Scale Scale
	// Shards > 1 fans every trace-backed replay's chunk decoding across
	// that many workers (v2 indexed traces only); results are unchanged.
	Shards   int
	sec3     map[string]*sec3Rows      // §3 table rows, by workload
	inputs   map[string]rnuca.Input    // workload name -> registered input
	ingested map[string]rnuca.Workload // ingested corpora, by name
	rcache   *resultcache.Cache        // memoized cell results
	//rnuca:ctx-ok campaign-lifetime cancellation root, set once by SetContext before any run
	runCtx context.Context      // cancellation path, optional
	gauge  *rnuca.ProgressGauge // per-cell observation gauge, optional
	tlCfg  *rnuca.TimelineConfig
	tl     map[string]*rnuca.Timeline // "workload/label" -> cell timeline
}

// NewCampaign builds an empty campaign at the given scale.
func NewCampaign(s Scale) *Campaign {
	return &Campaign{
		Scale:    s,
		sec3:     map[string]*sec3Rows{},
		inputs:   map[string]rnuca.Input{},
		ingested: map[string]rnuca.Workload{},
		rcache:   resultcache.New(0),
	}
}

// SetInput registers an input as the reference stream for the workload
// it describes: subsequent cells for that workload draw from it
// instead of the statistical generator, and the §3 characterization
// analyses read the same records. The resolved workload (the catalog
// entry a trace header names, or its minimal reconstruction) is
// returned. Replay inputs — FromTrace, FromCorpus — additionally join
// the ingested suite (FigIngested, CompareIngested), and their window
// and content digest flow into every cell's cache key.
func (c *Campaign) SetInput(in rnuca.Input) (rnuca.Workload, error) {
	w, err := in.Workload()
	if err != nil {
		return rnuca.Workload{}, err
	}
	c.inputs[w.Name] = in
	if in.Replays() {
		c.ingested[w.Name] = w
	}
	return w, nil
}

// SetContext attaches ctx as the campaign's cancellation path: every
// simulation cell polls it every few thousand simulated references,
// and the characterization analyses between batches of observations,
// so a canceled context aborts a figure build mid-simulation rather
// than between stages. Cancellation surfaces through the campaign's
// usual failure convention — the figure panics with the context error
// (harness callers are fatal anyway; serving callers recover it into a
// canceled job).
func (c *Campaign) SetContext(ctx context.Context) { c.runCtx = ctx }

// SetProgress attaches a gauge that every simulation cell the
// campaign runs observes (see rnuca.RunOptions.Progress): a serving
// layer surfaces live per-engine reference counts through it. The
// campaign resets the gauge each time it starts a figure's cells, so
// watchers see the furthest engine of the running set rather than a
// monotone max pinned at an earlier figure's total. Observation never
// enters cache keys or perturbs results.
func (c *Campaign) SetProgress(g *rnuca.ProgressGauge) { c.gauge = g }

// ctx returns the campaign's cancellation context.
func (c *Campaign) ctx() context.Context {
	if c.runCtx != nil {
		return c.runCtx
	}
	//rnuca:ctx-ok fallback root for campaigns that never call SetContext; there is no caller ctx to inherit
	return context.Background()
}

// SetTimeline attaches a flight-recorder config: every simulation
// cell the campaign runs records a per-epoch timeline, retrievable from
// Timelines by "workload/label" key. A label is the cell's design, plus
// the value a sweep varies ("OLTP-DB2/R/mesh", "OLTP-DB2/R/instr8"), so
// every cell of a figure keeps its own timeline. Pure observation, like
// SetProgress — results and cache keys are untouched. Cells answered
// from a shared result cache carry the timeline their original
// execution recorded.
func (c *Campaign) SetTimeline(cfg *rnuca.TimelineConfig) { c.tlCfg = cfg }

// Timelines returns the flight timelines recorded so far, keyed
// "workload/label". Nil-valued entries never appear; the map is
// shared, not copied.
func (c *Campaign) Timelines() map[string]*rnuca.Timeline { return c.tl }

// saveTimeline stores a finished cell's timeline under its key.
func (c *Campaign) saveTimeline(workloadName, label string, t *rnuca.Timeline) {
	if t == nil {
		return
	}
	if c.tl == nil {
		c.tl = map[string]*rnuca.Timeline{}
	}
	c.tl[workloadName+"/"+label] = t
}

// SetResultCache replaces the campaign's own result cache with a
// shared one (see internal/resultcache). Every simulation the campaign
// runs is keyed by its cell's canonical job encoding and consulted
// there before running, so repeated figure builds over an unchanged
// corpus — in this process or any other holder of the same cache, like
// the rnuca-serve job service — perform zero simulation.
func (c *Campaign) SetResultCache(rc *resultcache.Cache) { c.rcache = rc }

// input returns the registered input for a workload, falling back to
// its statistical generator.
func (c *Campaign) input(w rnuca.Workload) rnuca.Input {
	if in, ok := c.inputs[w.Name]; ok {
		return in
	}
	return rnuca.FromWorkload(w)
}

// cell is one simulation a figure declares: the job that runs it and
// the canonical job the shared result cache keys it by, which differ
// only where a Maker realizes the keyed methodology. workload and
// label name it in failures and timeline keys.
type cell struct {
	workload, label string
	key, job        rnuca.Job
}

// newCell builds the cell for design id on an input, applying the
// campaign's observation hooks. A replay input takes the campaign's
// decode sharding and runs one batch: it has no seed, so further
// batches would repeat the same run.
func (c *Campaign) newCell(w rnuca.Workload, in rnuca.Input, id rnuca.DesignID, opt rnuca.RunOptions) cell {
	if in.Replays() {
		if c.Shards > 0 {
			in = in.Sharded(c.Shards)
		}
		opt.Batches = 1
	}
	j := rnuca.Job{Input: in, Designs: []rnuca.DesignID{id}, Options: opt}
	if c.gauge != nil {
		j.Options.Progress = c.gauge.Observe
	}
	j.Options.Timeline = c.tlCfg
	return cell{workload: w.Name, label: string(id), key: j, job: j}
}

// vary appends suffix, the value a sweep varies ("mesh", "cores32"), to
// each cell's label, so cells that share a design on one workload keep
// their own timelines. Jobs and cache keys are untouched.
func vary(suffix string, cells ...cell) []cell {
	for i := range cells {
		cells[i].label += "/" + suffix
	}
	return cells
}

// makerCell turns a cell into an ablation whose Maker builds the
// design its label names. A Maker job has no canonical encoding, so
// the cell is never cached.
func makerCell(cl cell, mk func(*sim.Chassis) sim.Design) cell {
	cl.job.Designs, cl.job.Maker = nil, mk
	cl.key = cl.job
	return cl
}

// genCell is a generator-driven cell. The extension sweeps use it
// because they mutate the workload or configuration: a registered
// trace input (recorded under the catalog parameters) must not
// substitute for the generator there.
func (c *Campaign) genCell(w rnuca.Workload, id rnuca.DesignID, opt rnuca.RunOptions) cell {
	return c.newCell(w, rnuca.FromWorkload(w), id, opt)
}

// runAll runs cells together through resultcache.Cache.Run — each
// simulation takes its own slot of the process-wide cell pool — and
// returns their results in order. Once every cell has returned, the
// caller's goroutine saves their timelines and panics on the first
// failure (cancellation included).
func (c *Campaign) runAll(cells []cell) []rnuca.Result {
	if len(cells) == 0 {
		return nil
	}
	if c.gauge != nil {
		c.gauge.Reset()
	}
	out := make([]rnuca.Result, len(cells))
	errs := make([]error, len(cells))
	cellpool.Each(len(cells), func(i int) {
		out[i], _, errs[i] = c.rcache.Run(c.ctx(), cells[i].key, cells[i].job)
	})
	for i, cl := range cells {
		if errs[i] != nil {
			panic(fmt.Sprintf("experiments: %s on %s: %v", cl.label, cl.workload, errs[i]))
		}
		c.saveTimeline(cl.workload, cl.label, out[i].Timeline)
	}
	return out
}

func (c *Campaign) opts() rnuca.RunOptions {
	return rnuca.RunOptions{Warm: c.Scale.Warm, Measure: c.Scale.Measure, Batches: c.Scale.Batches}
}

// want is a cell a figure declares: design id on a workload, at an
// R-NUCA instruction cluster size for Figure 11's sweep (0 for the
// configuration's own).
type want struct {
	w    rnuca.Workload
	id   rnuca.DesignID
	size int
}

// cellKey names a declared cell among the results of one need call.
type cellKey struct {
	workload string
	id       rnuca.DesignID
	size     int
}

// results are the Results of the cells one need call declared.
type results map[cellKey]rnuca.Result

// of returns design id's Result on w at the configuration's own
// cluster size.
func (rs results) of(w rnuca.Workload, id rnuca.DesignID) rnuca.Result {
	return rs[cellKey{w.Name, id, 0}]
}

// grid declares every design on every workload.
func grid(ws []rnuca.Workload, ids ...rnuca.DesignID) []want {
	var out []want
	for _, w := range ws {
		for _, id := range ids {
			out = append(out, want{w: w, id: id})
		}
	}
	return out
}

// need runs the declared cells together through the campaign's result
// cache, which answers those an earlier figure ran, and returns their
// Results. Each draws on the workload's registered input (the generator
// when none is registered). With Scale.ASRBest off, ASR is the cheap
// adaptive variant alone, keyed under the "A/adaptive" methodology
// label: its result differs from the best-of-six "A" cell's, so they
// must not share an entry.
func (c *Campaign) need(ws []want) results {
	cells := make([]cell, len(ws))
	for i, x := range ws {
		opt := c.opts()
		opt.InstrClusterSize = x.size
		id := x.id
		if id == rnuca.DesignASR && !c.Scale.ASRBest {
			id = "A/adaptive"
		}
		cl := c.newCell(x.w, c.input(x.w), id, opt)
		if id != x.id {
			cl.job.Designs = nil
			cl.job.Maker = func(ch *sim.Chassis) sim.Design { return rnuca.NewDesign(rnuca.DesignASR, ch) }
		}
		if x.size != 0 {
			cl.label += fmt.Sprintf("/instr%d", x.size)
		}
		cells[i] = cl
	}
	rs := results{}
	for i, r := range c.runAll(cells) {
		rs[cellKey{ws[i].w.Name, ws[i].id, ws[i].size}] = r
	}
	return rs
}

// Result returns (running on demand, or from the result cache) one
// workload's result under one design.
func (c *Campaign) Result(w rnuca.Workload, id rnuca.DesignID) rnuca.Result {
	return c.need([]want{{w: w, id: id}}).of(w, id)
}

// checkCtx aborts an analysis loop once the campaign's context ends,
// through the campaign's panic convention.
func (c *Campaign) checkCtx(what string) {
	if err := c.ctx().Err(); err != nil {
		panic(fmt.Sprintf("experiments: %s: %v", what, err))
	}
}

// ctxCheckEvery paces context polls in analysis loops: frequent enough
// that cancellation lands within milliseconds, rare enough to stay
// invisible next to the per-reference work.
const ctxCheckEvery = 1 << 13

// analyze feeds TraceRefs references of a workload through a fresh
// analyzer — from the registered input when one replays a trace (its
// registered window, if any), from the generator otherwise. A trace
// shorter than the count is rewound and read again. Windowed traces
// are read through the chunk index, so sampling a region never scans
// the file's front.
func (c *Campaign) analyze(w rnuca.Workload) *trace.Analyzer {
	sp := obs.StartSpan(c.ctx(), "classify.pass")
	sp.SetAttr("workload", w.Name)
	defer sp.End()
	src, what, closeSrc := c.records(w)
	defer closeSrc()
	an := trace.NewAnalyzer(w.Cores)
	for seen, pass := 0, 0; seen < c.Scale.TraceRefs; {
		if seen%ctxCheckEvery == 0 {
			c.checkCtx("analyzing " + what)
		}
		r, ok := src.Next()
		if !ok {
			// Only a trace ends; Rewind refuses after a read error.
			if pass == 0 {
				panic(fmt.Sprintf("experiments: trace %s holds no refs", what))
			}
			if err := src.(trace.Rewinder).Rewind(); err != nil {
				panic(fmt.Sprintf("experiments: analyzing %s: %v", what, err))
			}
			pass = 0
			continue
		}
		an.Observe(r)
		seen++
		pass++
	}
	return an
}

// records opens the reference stream analyze reads for a workload,
// named for errors by what; closeSrc releases it.
func (c *Campaign) records(w rnuca.Workload) (src trace.RefSource, what string, closeSrc func()) {
	in, ok := c.inputs[w.Name]
	if !ok || !in.Replays() {
		return workload.Source(w), w.Name, func() {}
	}
	path := in.TracePath()
	start, refs := in.WindowRange()
	src, done, err := tracefile.OpenRange(path, start, refs, 1)
	if err != nil {
		panic(fmt.Sprintf("experiments: analyzing %s: %v", path, err))
	}
	return src, path, func() { done() }
}

// pct formats a fraction as a percentage.
func pct(f float64) string { return fmt.Sprintf("%.1f%%", 100*f) }

// share formats k of total as a percentage, rounded half up in integer
// arithmetic: an exact tie (an odd multiple of 0.05%) always rounds
// the same way, which a float quotient does not promise.
func share(k, total uint64) string {
	if total == 0 {
		return pct(0)
	}
	tenths := (2000*k + total) / (2 * total)
	return fmt.Sprintf("%d.%d%%", tenths/10, tenths%10)
}

// kb formats bytes as KB.
func kb(b float64) string {
	switch {
	case b >= 1<<20:
		return fmt.Sprintf("%.1fMB", b/(1<<20))
	default:
		return fmt.Sprintf("%.0fKB", b/(1<<10))
	}
}
