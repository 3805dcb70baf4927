package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"rnuca"
	"rnuca/internal/design"
	"rnuca/internal/sim"
	"rnuca/internal/trace"
	"rnuca/internal/tracefile"
	"rnuca/internal/workload"
)

// A run builds its workload's cell at least minSetupBuilds times to
// measure set-up, and keeps building cheap cells until setupBudget is
// spent (at most maxSetupBuilds); the reported value is the median.
const (
	minSetupBuilds = 10
	maxSetupBuilds = 200
	setupBudget    = time.Second
)

// workloadDef is one benchmark workload. BENCHMARK.json carries the
// same names and reasons.
type workloadDef struct {
	name, why string
	run       func(r *run) error
}

var workloads = []workloadDef{
	{
		name: "serve-cold",
		why:  "open loop, 2 cold OLTP-DB2 R-NUCA jobs/s over HTTP into rnuca-serve: per-job setup, serve tier and result cache on every job",
		run:  runServeCold,
	},
	{
		name: "steady-rnuca-db2",
		why:  "closed loop of full-size OLTP-DB2 R-NUCA jobs: per-reference cost of the OS page layer, TLB and L1 directory dominates",
		run:  runSteady,
	},
	{
		name: "replay-dss-shared",
		why:  "closed loop replaying a recorded DSS-Qry6 trace under the shared design: tracefile decode and the L2 miss path, no Zipf setup, no OS layer",
		run:  runReplay,
	},
	{
		name: "compare-mix",
		why:  "closed loop of five-design Job.Compare on MIX (Figure 12 path): ten cells over GOMAXPROCS, cost spread over every design's Access",
		run:  runCompareMix,
	},
}

func workloadNames() []string {
	var out []string
	for _, w := range workloads {
		out = append(out, w.name)
	}
	return out
}

func workloadByName(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

// run is one workload execution: its inputs, its operation ledger and
// the metrics it has measured so far.
type run struct {
	cfg config
	//rnuca:ctx-ok run is the lifetime of one workload process; the context bounds everything it starts
	ctx context.Context
	tmp string // scratch directory, removed when the run ends

	mu        sync.Mutex
	attempted int      // guarded by mu
	failed    int      // guarded by mu
	failures  []string // guarded by mu

	values map[string]metric
	extras []metric
}

// maxFailureNotes bounds the failure messages a report keeps.
const maxFailureNotes = 10

// ok records a successful operation.
func (r *run) ok() {
	r.mu.Lock()
	r.attempted++
	r.mu.Unlock()
}

// fail records a failed operation: a job error, a refusal, a wrong
// terminal state, or an output mismatch.
func (r *run) fail(format string, args ...any) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.attempted++
	r.failed++
	if len(r.failures) < maxFailureNotes {
		r.failures = append(r.failures, fmt.Sprintf(format, args...))
	}
}

// set records a contract metric (its unit comes from the metric tables).
func (r *run) set(name string, v float64, n int) {
	r.values[name] = metric{Name: name, Value: v, N: n}
}

// extra records a workload-specific metric: printed and written with
// -out, but not part of the contract line.
func (r *run) extra(m metric) { r.extras = append(r.extras, m) }

// inputSeed derives the i-th input seed of the run from -seed.
func (r *run) inputSeed(i int) uint64 {
	return splitmix64(uint64(r.cfg.seed)*0x9E3779B97F4A7C15 + uint64(i))
}

func splitmix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

// runWorkload executes one workload and assembles its report.
func runWorkload(def workloadDef, cfg config) (report, error) {
	tmp, err := os.MkdirTemp("", "rnuca-bench-*")
	if err != nil {
		return report{}, err
	}
	defer os.RemoveAll(tmp)
	ctx, cancel := context.WithTimeout(context.Background(), childTimeout-10*time.Second)
	defer cancel()
	r := &run{cfg: cfg, ctx: ctx, tmp: tmp, values: map[string]metric{}}
	if err := def.run(r); err != nil {
		return report{}, err
	}
	defs := perLayer
	if !cfg.trace {
		defs = endToEnd
		rss, err := peakRSSMB()
		if err != nil {
			return report{}, err
		}
		r.set("peak_rss_mb", rss, 1)
	}
	rep := report{Workload: def.name, Trace: cfg.trace, Seed: cfg.seed, Extras: r.extras, Host: host()}
	r.mu.Lock()
	rep.Attempted, rep.Failed, rep.Failures = r.attempted, r.failed, r.failures
	r.mu.Unlock()
	for _, d := range defs {
		m, ok := r.values[d.name]
		if !ok {
			return report{}, fmt.Errorf("%s: metric %s was not measured", def.name, d.name)
		}
		m.Unit = d.unit
		rep.Metrics = append(rep.Metrics, m)
	}
	return rep, nil
}

// cell is one simulation cell built the way Job.Run builds it: a
// reference source, a Table 1 chassis, one design and the engine.
type cell struct {
	// label is the design the cell's result is reported under (the six
	// ASR variants all report as "A").
	label     string
	spec      workload.Spec
	tracePath string // replay this trace instead of generating
	mk        func(*sim.Chassis) sim.Design
	warm      int
	measure   int
}

// designCell is a generated-input cell for one of the five designs
// (ASR as its adaptive variant).
func designCell(id rnuca.DesignID, spec workload.Spec, warm, measure int) cell {
	return cell{
		label: string(id), spec: spec, warm: warm, measure: measure,
		mk: func(ch *sim.Chassis) sim.Design { return rnuca.NewDesign(id, ch) },
	}
}

// jobCells returns the cells Job.Run executes for one design: ASR is
// the paper's best-of-six sweep (five static replication probabilities
// and the adaptive controller), every other design a single cell.
func jobCells(id rnuca.DesignID, spec workload.Spec, warm, measure int) []cell {
	if id != rnuca.DesignASR {
		return []cell{designCell(id, spec, warm, measure)}
	}
	var out []cell
	for v := 0; v < 6; v++ {
		v := v
		c := designCell(id, spec, warm, measure)
		c.mk = func(ch *sim.Chassis) sim.Design {
			return design.NewASRVariants(func() *sim.Chassis { return ch }, asrSeed)[v]
		}
		out = append(out, c)
	}
	return out
}

// asrSeed is the replication RNG seed Job.Run gives every ASR variant.
const asrSeed = 0xA5A5

// stages is one cell build's set-up time per constructor.
type stages struct {
	source, chassis, design, engine time.Duration
	// sourceAlloc is the bytes the reference source allocated.
	sourceAlloc uint64
}

func (s stages) total() time.Duration { return s.source + s.chassis + s.design + s.engine }

// built is a constructed cell ready to run.
type built struct {
	ch  *sim.Chassis
	eng *sim.Engine
	src *tracefile.File
}

func (b built) release() {
	if b.src != nil {
		b.src.Close()
	}
}

// build constructs the cell through the same constructors, in the same
// order, as the library's run path: workload.Streams (for a replay,
// tracefile.Open), sim.NewChassis, the design constructor, and
// sim.NewEngine (for a replay, sim.NewEngineSource). The wrap hooks,
// when set, interpose the tracing wrappers on the two seams the engine
// calls through.
func (c cell) build(wrapStreams func([]trace.Stream) []trace.Stream, wrapDesign func(sim.Design) sim.Design) (built, stages, error) {
	var st stages
	var b built
	cfg := rnuca.ConfigFor(c.spec)
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)

	t := time.Now()
	var streams []trace.Stream
	if c.tracePath == "" {
		streams = workload.Streams(c.spec)
	} else {
		src, err := tracefile.Open(c.tracePath)
		if err != nil {
			return b, st, err
		}
		b.src = src
	}
	st.source = time.Since(t)
	runtime.ReadMemStats(&m1)
	st.sourceAlloc = m1.TotalAlloc - m0.TotalAlloc

	t = time.Now()
	b.ch = sim.NewChassis(cfg)
	st.chassis = time.Since(t)

	t = time.Now()
	d := c.mk(b.ch)
	st.design = time.Since(t)
	if wrapDesign != nil {
		d = wrapDesign(d)
	}

	t = time.Now()
	switch {
	case b.src != nil && wrapStreams == nil:
		b.eng = sim.NewEngineSource(b.ch, d, b.src)
	default:
		if b.src != nil {
			streams = trace.Demux(b.src, cfg.Cores)
		}
		if wrapStreams != nil {
			streams = wrapStreams(streams)
		}
		b.eng = sim.NewEngine(b.ch, d, streams)
	}
	b.eng.OffChipMLP = c.spec.OffChipMLP
	st.engine = time.Since(t)
	return b, st, nil
}

// run simulates a built cell the way runOne does.
func (c cell) run(b built) (sim.Result, error) {
	res := b.eng.Run(c.warm, c.measure)
	res.Workload = c.spec.Name
	if b.src != nil {
		if err := b.src.Err(); err != nil {
			return res, fmt.Errorf("replaying %s: %w", c.tracePath, err)
		}
	}
	return res, nil
}

// measureSetup builds the cell repeatedly. Untraced runs report the
// median total as setup_s; traced runs report each constructor's median
// and the reference source's allocation.
func (r *run) measureSetup(c cell) error {
	var total, source, chassis, dsgn, engine, alloc []float64
	start := time.Now()
	for i := 0; i < minSetupBuilds || (i < maxSetupBuilds && time.Since(start) < setupBudget); i++ {
		runtime.GC()
		b, st, err := c.build(nil, nil)
		if err != nil {
			return err
		}
		b.release()
		total = append(total, st.total().Seconds())
		source = append(source, st.source.Seconds())
		chassis = append(chassis, st.chassis.Seconds())
		dsgn = append(dsgn, st.design.Seconds())
		engine = append(engine, st.engine.Seconds())
		alloc = append(alloc, float64(st.sourceAlloc)/(1<<20))
	}
	n := len(total)
	if !r.cfg.trace {
		r.set("setup_s", median(total), n)
		return nil
	}
	r.set("setup.source_s", median(source), n)
	r.set("setup.source_alloc_mb", median(alloc), n)
	r.set("setup.chassis_s", median(chassis), n)
	r.set("setup.design_s", median(dsgn), n)
	r.set("setup.engine_s", median(engine), n)
	return nil
}

// timedJobs runs job(i) back to back until the timed phase has lasted
// -seconds (at least one job), reporting job_p50_s from the call-to-
// return latencies and alloc_mb_per_job from the heap allocated over the
// phase. A job that returns an error is a failed operation.
//
// Every job starts from a collected heap: a garbage collection runs
// before each one, outside its timing. Otherwise where the collector's
// pacing happened to fall decides both how much of one job's garbage
// the next job pays for and the process's peak resident set, which
// then swings by a quarter from run to run.
func (r *run) timedJobs(job func(i int) error) {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	var lat []float64
	jobs := 0
	start := time.Now()
	for i := 0; i == 0 || time.Since(start) < r.cfg.seconds; i++ {
		if r.ctx.Err() != nil {
			r.fail("timed phase: %v", r.ctx.Err())
			break
		}
		runtime.GC()
		t := time.Now()
		err := job(i)
		d := time.Since(t)
		jobs++
		if err != nil {
			r.fail("job %d: %v", i, err)
			continue
		}
		r.ok()
		lat = append(lat, d.Seconds())
	}
	runtime.ReadMemStats(&m1)
	r.set("job_p50_s", median(lat), len(lat))
	r.set("alloc_mb_per_job", float64(m1.TotalAlloc-m0.TotalAlloc)/(1<<20)/float64(jobs), jobs)
	r.extra(tailMetric("job_p90_s", lat, 0.9))
}

// tailMetric reports a latency percentile, or notes why it is omitted.
func tailMetric(name string, xs []float64, p float64) metric {
	v, beyond, ok := percentile(xs, p)
	m := metric{Name: name, Unit: "s", Value: v, N: len(xs)}
	if !ok {
		m.Value = 0
		m.Note = fmt.Sprintf("%d samples beyond it, need %d", beyond, tailMin)
	}
	return m
}

// runObserved runs a single-design job with a RunOptions.Progress
// observer and appends the host ns per simulated reference between the
// first and the last callback — which excludes set-up — to rates.
func (r *run) runObserved(j rnuca.Job, rates *[]float64) (rnuca.Result, error) {
	var mu sync.Mutex
	var first, last time.Time // guarded by mu
	var d0, d1 int            // guarded by mu
	j.Options.Progress = func(done, _ int) {
		now := time.Now()
		mu.Lock()
		defer mu.Unlock()
		if first.IsZero() {
			first, d0 = now, done
		}
		last, d1 = now, done
	}
	res, err := j.Run(r.ctx)
	mu.Lock()
	defer mu.Unlock()
	if err == nil && d1 > d0 {
		*rates = append(*rates, float64(last.Sub(first).Nanoseconds())/float64(d1-d0))
	}
	return res, err
}

// expectRefs checks a job's measured reference count.
func expectRefs(label string, res rnuca.Result, want int) error {
	if res.Refs != uint64(want) {
		return fmt.Errorf("%s: %d measured refs, want %d", label, res.Refs, want)
	}
	return nil
}

// Workload shapes.
const (
	coldRate    = 2 // serve-cold arrivals per second
	coldWarm    = 300
	coldMeasure = 600

	replayWarm    = 100_000
	replayMeasure = 500_000

	mixWarm    = 50_000
	mixMeasure = 100_000
)

// Job.Run's default reference counts, which steady-rnuca-db2 keeps.
const (
	defaultWarm    = 200_000
	defaultMeasure = 400_000
)

func withSeed(spec workload.Spec, seed uint64) workload.Spec {
	spec.Seed = seed
	return spec
}

// runSteady: closed loop, one client, full-size OLTP-DB2 jobs under
// R-NUCA with the Job defaults.
func runSteady(r *run) error {
	spec := func(i int) workload.Spec { return withSeed(workload.OLTPDB2(), r.inputSeed(i)) }
	cell0 := designCell(rnuca.DesignRNUCA, spec(0), defaultWarm, defaultMeasure)
	r.checkGolden("steady-rnuca-db2")
	if err := r.measureSetup(cell0); err != nil {
		return err
	}
	job := func(i int) rnuca.Job {
		return rnuca.Job{Input: rnuca.FromWorkload(spec(i)), Designs: []rnuca.DesignID{rnuca.DesignRNUCA}}
	}
	if r.cfg.trace {
		return r.tracedLibrary(2, func(ctx context.Context, i int) (map[string]rnuca.Result, error) {
			res, err := job(i).Run(ctx)
			return map[string]rnuca.Result{"R": res}, err
		}, func() []cell { return []cell{cell0} })
	}
	var rates []float64
	r.timedJobs(func(i int) error {
		res, err := r.runObserved(job(i), &rates)
		if err != nil {
			return err
		}
		return expectRefs("R", res, defaultMeasure)
	})
	r.extra(metric{Name: "sim_ns_per_ref", Unit: "ns", Value: median(rates), N: len(rates)})
	return nil
}

// runReplay: records one DSS-Qry6 trace (untimed, outside set-up), then
// a closed loop of replays under the shared design. Every replay must
// reproduce the recording run's Result bit for bit.
func runReplay(r *run) error {
	r.checkGolden("replay-dss-shared")
	path := filepath.Join(r.tmp, "dss-qry6.rnt")
	rec := rnuca.Job{
		Input:   rnuca.FromWorkload(withSeed(workload.DSSQry6(), r.inputSeed(0))),
		Designs: []rnuca.DesignID{rnuca.DesignShared},
		Options: rnuca.RunOptions{Warm: replayWarm, Measure: replayMeasure},
	}
	recorded, err := rec.Record(r.ctx, path)
	if err != nil {
		return fmt.Errorf("recording the replay trace: %w", err)
	}
	spec, err := rnuca.TraceWorkload(path)
	if err != nil {
		return err
	}
	replayCell := cell{
		label: "S", spec: spec, tracePath: path, warm: replayWarm, measure: replayMeasure,
		mk: func(ch *sim.Chassis) sim.Design { return rnuca.NewDesign(rnuca.DesignShared, ch) },
	}
	if err := r.measureSetup(replayCell); err != nil {
		return err
	}
	job := rnuca.Job{Input: rnuca.FromTrace(path), Designs: []rnuca.DesignID{rnuca.DesignShared}}
	matchesRecording := func(res rnuca.Result) error {
		if !sameResult(res.Result, recorded.Result) {
			return fmt.Errorf("replay result differs from the recording run")
		}
		return nil
	}
	if r.cfg.trace {
		return r.tracedLibrary(5, func(ctx context.Context, _ int) (map[string]rnuca.Result, error) {
			res, err := job.Run(ctx)
			if err == nil {
				err = matchesRecording(res)
			}
			return map[string]rnuca.Result{"S": res}, err
		}, func() []cell { return []cell{replayCell} })
	}
	var rates []float64
	r.timedJobs(func(int) error {
		res, err := r.runObserved(job, &rates)
		if err != nil {
			return err
		}
		return matchesRecording(res)
	})
	r.extra(metric{Name: "sim_ns_per_ref", Unit: "ns", Value: median(rates), N: len(rates)})
	return nil
}

// runCompareMix: closed loop of cold five-design comparisons on MIX.
func runCompareMix(r *run) error {
	spec := func(i int) workload.Spec { return withSeed(workload.MIX(), r.inputSeed(i)) }
	r.checkGolden("compare-mix")
	if err := r.measureSetup(designCell(rnuca.DesignRNUCA, spec(0), mixWarm, mixMeasure)); err != nil {
		return err
	}
	job := func(i int) rnuca.Job {
		return rnuca.Job{
			Input:   rnuca.FromWorkload(spec(i)),
			Designs: rnuca.AllDesigns(),
			Options: rnuca.RunOptions{Warm: mixWarm, Measure: mixMeasure},
		}
	}
	compare := func(ctx context.Context, i int) (map[string]rnuca.Result, error) {
		cmp, err := job(i).Compare(ctx)
		out := map[string]rnuca.Result{}
		for id, res := range cmp {
			out[string(id)] = res
			if err == nil {
				err = expectRefs(string(id), res, mixMeasure)
			}
		}
		return out, err
	}
	if r.cfg.trace {
		return r.tracedLibrary(2, compare, func() []cell {
			var cells []cell
			for _, id := range rnuca.AllDesigns() {
				cells = append(cells, jobCells(id, spec(0), mixWarm, mixMeasure)...)
			}
			return cells
		})
	}
	r.timedJobs(func(i int) error {
		_, err := compare(r.ctx, i)
		return err
	})
	return nil
}
