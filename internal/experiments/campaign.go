// Package experiments regenerates every table and figure of the paper's
// evaluation (§3 and §5). Each FigN function returns ready-to-render
// tables; the Campaign caches simulation results so figures that share
// runs (7 through 10 and 12 all need the same design sweep) pay for them
// once. cmd/rnuca-figures and the root benchmark harness are thin wrappers
// around this package.
package experiments

import (
	"context"
	"fmt"

	"rnuca"
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
	// Batches controls confidence intervals on Figure 12.
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
	results  map[string]map[rnuca.DesignID]rnuca.Result
	rnucaBy  map[string]map[int]rnuca.Result // cluster-size sweep cache
	sec3     map[string]*sec3Rows            // §3 table rows, by workload
	inputs   map[string]rnuca.Input          // workload name -> registered input
	ingested map[string]rnuca.Workload       // ingested corpora, by name
	rcache   *resultcache.Cache              // shared memoized results, optional
	//rnuca:ctx-ok campaign-lifetime cancellation root, set once by SetContext before any run
	runCtx context.Context      // cancellation path, optional
	gauge  *rnuca.ProgressGauge // per-cell observation gauge, optional
	tlCfg  *rnuca.TimelineConfig
	tl     map[string]*rnuca.Timeline // "workload/design" -> cell timeline
}

// NewCampaign builds an empty campaign at the given scale.
func NewCampaign(s Scale) *Campaign {
	return &Campaign{
		Scale:    s,
		results:  map[string]map[rnuca.DesignID]rnuca.Result{},
		rnucaBy:  map[string]map[int]rnuca.Result{},
		sec3:     map[string]*sec3Rows{},
		inputs:   map[string]rnuca.Input{},
		ingested: map[string]rnuca.Workload{},
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
	if in.Kind() == rnuca.InputSource {
		// A source closure has no canonical identity (no cache key)
		// and cannot feed the characterization analyses, which re-read
		// the stream from the start; campaigns take generators and
		// recordings only.
		return rnuca.Workload{}, fmt.Errorf("experiments: SetInput: source-backed inputs cannot back a campaign; record the source to a trace first")
	}
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
// usual failure convention — the running cell panics with the context
// error (harness callers are fatal anyway; serving callers recover it
// into a canceled job).
func (c *Campaign) SetContext(ctx context.Context) { c.runCtx = ctx }

// SetProgress attaches a gauge that every simulation cell the
// campaign runs observes (see rnuca.RunOptions.Progress): a serving
// layer surfaces live per-engine reference counts through it. The
// campaign resets the gauge at each cell boundary, so watchers see
// the running cell's progress rather than a monotone max pinned at
// the first cell's total. Observation never enters cache keys or
// perturbs results.
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
// cell the campaign runs records a per-epoch timeline, retrievable by
// "workload/design" key from Timelines. Pure observation, like
// SetProgress — results and cache keys are untouched. Cells answered
// from a shared result cache carry the timeline their original
// execution recorded.
func (c *Campaign) SetTimeline(cfg *rnuca.TimelineConfig) { c.tlCfg = cfg }

// Timelines returns the flight timelines recorded so far, keyed
// "workload/design". Nil-valued entries never appear; the map is
// shared, not copied.
func (c *Campaign) Timelines() map[string]*rnuca.Timeline { return c.tl }

// saveTimeline stores a finished cell's timeline under its key.
func (c *Campaign) saveTimeline(workloadName, designKey string, t *rnuca.Timeline) {
	if t == nil {
		return
	}
	if c.tl == nil {
		c.tl = map[string]*rnuca.Timeline{}
	}
	c.tl[workloadName+"/"+designKey] = t
}

// SetResultCache attaches a shared memoized result cache (see
// internal/resultcache): every simulation the campaign runs is keyed by
// its cell's canonical job encoding and consulted there before running,
// so repeated figure builds over an unchanged corpus — in this process
// or any other holder of the same cache, like the rnuca-serve job
// service — perform zero simulation.
func (c *Campaign) SetResultCache(rc *resultcache.Cache) { c.rcache = rc }

// input returns the registered input for a workload, falling back to
// its statistical generator.
func (c *Campaign) input(w rnuca.Workload) rnuca.Input {
	if in, ok := c.inputs[w.Name]; ok {
		return in
	}
	return rnuca.FromWorkload(w)
}

// cellJob assembles the canonical job for one campaign cell, applying
// the campaign's decode sharding to replay inputs.
func (c *Campaign) cellJob(in rnuca.Input, opt rnuca.RunOptions, ids ...rnuca.DesignID) rnuca.Job {
	if in.Replays() && c.Shards > 0 {
		in = in.Sharded(c.Shards)
	}
	j := rnuca.Job{Input: in, Designs: ids, Options: opt}
	if c.gauge != nil {
		j.Options.Progress = c.gauge.Observe
	}
	j.Options.Timeline = c.tlCfg
	return j
}

// run dispatches one workload x design simulation to the registered
// input (or the generator), through the shared result cache when one
// is attached.
func (c *Campaign) run(w rnuca.Workload, id rnuca.DesignID, opt rnuca.RunOptions) rnuca.Result {
	job := c.cellJob(c.input(w), opt, id)
	return c.cached(w.Name, string(id), job, job.Run)
}

// cached runs one cell through the shared result cache when one is
// attached and the cell is keyable; errors (cancellation included)
// panic exactly as the uncached paths always have. keyJob must be the
// cell's canonical job — run may differ only in ways that cannot
// change the Result (a Maker realizing the keyed methodology).
func (c *Campaign) cached(workloadName, designKey string, keyJob rnuca.Job, run func(context.Context) (rnuca.Result, error)) rnuca.Result {
	fail := func(err error) {
		panic(fmt.Sprintf("experiments: %s on %s: %v", designKey, workloadName, err))
	}
	// A fresh cell starts a fresh gauge window; cache hits return
	// before any engine reports, so the watcher just sees the next
	// running cell.
	resetGauge := func() {
		if c.gauge != nil {
			c.gauge.Reset()
		}
	}
	key, keyable := resultcache.JobKey(keyJob)
	if c.rcache == nil || !keyable {
		resetGauge()
		r, err := run(c.ctx())
		if err != nil {
			fail(err)
		}
		c.saveTimeline(workloadName, designKey, r.Timeline)
		return r
	}
	v, _, err := c.rcache.Do(c.ctx(), key, func(fctx context.Context) (any, error) {
		resetGauge()
		r, err := run(fctx)
		if err != nil {
			return nil, err
		}
		// A canceled flight holds a partial result; it must never
		// enter the cache.
		if fctx.Err() != nil {
			return nil, fctx.Err()
		}
		return r, nil
	})
	if err != nil {
		fail(err)
	}
	r := v.(rnuca.Result)
	c.saveTimeline(workloadName, designKey, r.Timeline)
	return r
}

func (c *Campaign) opts() rnuca.RunOptions {
	return rnuca.RunOptions{Warm: c.Scale.Warm, Measure: c.Scale.Measure, Batches: c.Scale.Batches}
}

// runGen executes one generator-driven cell under the campaign's
// context, cache, and panic conventions. The extension sweeps use it
// instead of run because they mutate the workload or configuration:
// a registered trace input (recorded under the catalog parameters)
// must not substitute for the generator there.
func (c *Campaign) runGen(w rnuca.Workload, id rnuca.DesignID, opt rnuca.RunOptions) rnuca.Result {
	job := c.cellJob(rnuca.FromWorkload(w), opt, id)
	return c.cached(w.Name, string(id), job, job.Run)
}

// runMaker executes one maker-built cell — an ablation design with no
// canonical encoding, hence never cached — under the campaign's
// context and panic conventions. label names the methodology in
// failure messages.
func (c *Campaign) runMaker(label string, w rnuca.Workload, opt rnuca.RunOptions, mk func(*sim.Chassis) sim.Design) rnuca.Result {
	j := c.cellJob(rnuca.FromWorkload(w), opt)
	j.Maker = mk
	return c.cached(w.Name, label, j, j.Run)
}

// Result returns (running on demand) the cached result for one workload
// and design.
func (c *Campaign) Result(w rnuca.Workload, id rnuca.DesignID) rnuca.Result {
	m := c.results[w.Name]
	if m == nil {
		m = map[rnuca.DesignID]rnuca.Result{}
		c.results[w.Name] = m
	}
	if r, ok := m[id]; ok {
		return r
	}
	opt := c.opts()
	var r rnuca.Result
	if id == rnuca.DesignASR && !c.Scale.ASRBest {
		r = c.runAdaptiveASR(w, opt)
	} else {
		r = c.run(w, id, opt)
	}
	m[id] = r
	return r
}

// runAdaptiveASR runs the cheap single-variant ASR (Scale.ASRBest off):
// a Maker job pinning the adaptive controller, keyed under the
// "A/adaptive" methodology label — the single-variant result differs
// from the best-of-six "A" cell, so they must not share an entry.
func (c *Campaign) runAdaptiveASR(w rnuca.Workload, opt rnuca.RunOptions) rnuca.Result {
	in := c.input(w)
	keyJob := c.cellJob(in, opt, rnuca.DesignID("A/adaptive"))
	runJob := c.cellJob(in, opt)
	runJob.Maker = func(ch *sim.Chassis) sim.Design { return rnuca.NewDesign(rnuca.DesignASR, ch) }
	return c.cached(w.Name, "A/adaptive", keyJob, runJob.Run)
}

// RNUCAWithClusterSize returns (running on demand) R-NUCA with the given
// instruction cluster size (Figure 11).
func (c *Campaign) RNUCAWithClusterSize(w rnuca.Workload, size int) rnuca.Result {
	m := c.rnucaBy[w.Name]
	if m == nil {
		m = map[int]rnuca.Result{}
		c.rnucaBy[w.Name] = m
	}
	if r, ok := m[size]; ok {
		return r
	}
	opt := c.opts()
	opt.InstrClusterSize = size
	r := c.run(w, rnuca.DesignRNUCA, opt)
	m[size] = r
	return r
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
	fail := func(err error) {
		panic(fmt.Sprintf("experiments: analyzing %s: %v", path, err))
	}
	start, refs := in.WindowRange()
	if start == 0 && refs == 0 {
		f, err := tracefile.Open(path)
		if err != nil {
			fail(err)
		}
		return f, path, func() { f.Close() }
	}
	x, err := tracefile.OpenIndexed(path)
	if err != nil {
		fail(err)
	}
	if refs == 0 {
		refs = x.Refs() - start
	}
	cur, err := x.Window(start, refs)
	if err != nil || refs == 0 {
		x.Close()
		panic(fmt.Sprintf("experiments: analyzing %s window [%d,+%d): %v", path, start, refs, err))
	}
	return cur, path, func() { x.Close() }
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
