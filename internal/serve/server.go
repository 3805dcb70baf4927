package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"sort"
	"sync"
	"time"

	"rnuca"
	"rnuca/internal/corpus"
	"rnuca/internal/experiments"
	"rnuca/internal/ingest"
	"rnuca/internal/obs"
	"rnuca/internal/obs/flight"
	"rnuca/internal/obs/log"
	"rnuca/internal/report"
	"rnuca/internal/resultcache"
)

// Submission errors the HTTP layer maps to status codes.
var (
	// ErrDraining: the server stopped accepting jobs (SIGTERM drain).
	ErrDraining = errors.New("serve: draining, not accepting jobs")
	// ErrBusy: the job queue is full.
	ErrBusy = errors.New("serve: job queue full")
)

// Config tunes a Server. The zero value serves without a corpus store,
// with one worker per CPU, and with default queue and cache sizes.
type Config struct {
	// Store is the corpus store backing replay/compare/convert/figure
	// jobs and the /v1/corpora endpoints; nil disables them.
	Store *corpus.Store
	// Workers bounds concurrently executing jobs (0 = one per CPU).
	Workers int
	// QueueDepth bounds queued-but-unstarted jobs (0 = 64).
	QueueDepth int
	// CacheEntries sizes the memoized result cache (0 = the
	// resultcache default).
	CacheEntries int
	// IngestDir roots convert-job inputs: a convert job may only read
	// files under this directory. Empty disables convert jobs — an
	// unauthenticated API must not open arbitrary server paths.
	IngestDir string
	// JobHistory bounds retained terminal jobs (0 = 512): once
	// exceeded, the oldest finished jobs (and their result payloads)
	// are dropped from /v1/jobs. Queued and running jobs never drop.
	JobHistory int
	// EpochRefs sets the flight recorder's epoch length in measured
	// references for simulation cells (0 = the flight default, 64Ki).
	// Result-neutral: epochs only shape the recorded timelines.
	EpochRefs int
	// Logger receives structured job-lifecycle lines, each correlated
	// by job_id. Nil serves silently.
	Logger *log.Logger
	// SLO is the submit→terminal job-latency target: jobs reaching done
	// or failed later than this burn the per-kind SLO counters, and
	// /v1/stats reports attainment against it. 0 disables SLO
	// accounting (latency quantiles are tracked regardless).
	SLO time.Duration
}

// defaultJobHistory is the terminal-job retention bound when
// Config.JobHistory is zero.
const defaultJobHistory = 512

// Server owns the job queue, the bounded worker pool, and the shared
// memoized result cache. Create with New, mount Handler on an
// http.Server, and Drain before exit.
type Server struct {
	cfg   Config
	cache *resultcache.Cache

	//rnuca:ctx-ok server-lifetime root: every job ctx derives from it so Shutdown cancels the fleet
	baseCtx context.Context
	stop    context.CancelFunc

	mu       sync.Mutex
	jobs     map[string]*job // guarded by mu
	order    []string        // guarded by mu
	queue    chan *job       // guarded by mu (the channel value; send/receive are inherently synchronized)
	draining bool            // guarded by mu

	wg sync.WaitGroup

	// stats is the job-lifecycle accounting every /metrics scrape
	// snapshots. One mutex guards all seven numbers so a single scrape
	// sees a mutually consistent view (queued+running+terminal adds up);
	// the registry's OnCollect hook copies them onto the exported
	// metrics under the render lock.
	stats jobStats

	// lat holds the latency windows and SLO burn counters that
	// /v1/stats serves and the quantile gauges export.
	lat *latencyTracker

	reg          *obs.Registry
	mJobDuration *obs.HistogramVec // rnuca_job_duration_seconds{kind,outcome}
	mQueueWait   *obs.HistogramVec // rnuca_job_queue_wait_seconds{kind}
	mRefs        *obs.Counter      // rnuca_engine_refs_simulated_total
	mEpochs      *obs.Counter      // rnuca_flight_epochs_total

	mSLOBreached  *obs.CounterVec   // rnuca_jobs_slo_breached_total{kind}
	mHTTPRequests *obs.CounterVec   // rnuca_http_requests_total{route,code}
	mHTTPDuration *obs.HistogramVec // rnuca_http_request_duration_seconds{route}

	mJobQuantile       *obs.FloatGaugeVec // rnuca_job_latency_quantile_seconds{kind,q}
	mQueueWaitQuantile *obs.FloatGaugeVec // rnuca_job_queue_wait_quantile_seconds{kind,q}
	mHTTPQuantile      *obs.FloatGaugeVec // rnuca_http_request_quantile_seconds{route,q}
}

// jobStats is the mutex-guarded lifecycle ledger. Transitions update
// every affected number under one lock, so no scrape can observe a job
// that has left "queued" but not yet arrived anywhere else.
type jobStats struct {
	mu sync.Mutex
	// guarded by mu
	submitted, completed, failed, canceled, rejected uint64
	// throttled counts the rejected subset refused for queue pressure
	// (the 429s); drain refusals count only in rejected. guarded by mu.
	throttled       uint64
	queued, running int64 // guarded by mu
}

// Metrics returns a consistent snapshot of the job-lifecycle counters
// (tests and the collect hook read it; the mutex makes the seven
// numbers one atomic unit).
func (s *Server) Metrics() (submitted, completed, failed, canceled, rejected uint64, queued, running int64) {
	s.stats.mu.Lock()
	defer s.stats.mu.Unlock()
	st := &s.stats
	return st.submitted, st.completed, st.failed, st.canceled, st.rejected, st.queued, st.running
}

// Registry exposes the server's metrics registry (CLIs mount extra
// instrumentation on it; tests render it directly).
func (s *Server) Registry() *obs.Registry { return s.reg }

// initMetrics builds the server's registry: lifecycle counters and
// gauges fed from jobStats via one OnCollect hook, latency histograms,
// result-cache instrumentation, and corpus-store occupancy.
func (s *Server) initMetrics() {
	reg := obs.NewRegistry()
	s.reg = reg

	submitted := reg.Counter("rnuca_jobs_submitted_total", "Jobs accepted into the queue.")
	completed := reg.Counter("rnuca_jobs_completed_total", "Jobs finished successfully.")
	failed := reg.Counter("rnuca_jobs_failed_total", "Jobs finished with an error.")
	canceled := reg.Counter("rnuca_jobs_canceled_total", "Jobs canceled before completion.")
	rejected := reg.Counter("rnuca_jobs_rejected_total", "Submissions refused at the door.")
	throttled := reg.Counter("rnuca_jobs_throttled_total",
		"Submissions refused for queue pressure (the HTTP 429s; a subset of rejected).")
	queued := reg.Gauge("rnuca_jobs_queued", "Jobs waiting for a worker.")
	running := reg.Gauge("rnuca_jobs_running", "Jobs currently executing.")
	queueDepth := reg.Gauge("rnuca_jobs_queue_depth",
		"Jobs waiting for a worker (saturation alias of rnuca_jobs_queued).")
	inflight := reg.Gauge("rnuca_jobs_inflight",
		"Jobs currently executing (saturation alias of rnuca_jobs_running).")
	utilization := reg.FloatGauge("rnuca_worker_utilization",
		"Fraction of the worker pool executing jobs (inflight/workers).")
	workers := reg.Gauge("rnuca_workers", "Size of the worker pool.")
	workers.Set(int64(s.cfg.Workers))
	reg.OnCollect(func() {
		s.stats.mu.Lock()
		defer s.stats.mu.Unlock()
		submitted.Set(s.stats.submitted)
		completed.Set(s.stats.completed)
		failed.Set(s.stats.failed)
		canceled.Set(s.stats.canceled)
		rejected.Set(s.stats.rejected)
		throttled.Set(s.stats.throttled)
		queued.Set(s.stats.queued)
		running.Set(s.stats.running)
		queueDepth.Set(s.stats.queued)
		inflight.Set(s.stats.running)
		utilization.Set(float64(s.stats.running) / float64(s.cfg.Workers))
	})

	s.mJobDuration = reg.HistogramVec("rnuca_job_duration_seconds",
		"Job execution time from start to terminal state.",
		obs.DefSecondsBuckets(), "kind", "outcome")
	s.mQueueWait = reg.HistogramVec("rnuca_job_queue_wait_seconds",
		"Time jobs spent queued before a worker picked them up.",
		obs.DefSecondsBuckets(), "kind")
	s.mRefs = reg.Counter("rnuca_engine_refs_simulated_total",
		"Cache references simulated by locally executed cells (cache hits add nothing).")
	s.mEpochs = reg.Counter("rnuca_flight_epochs_total",
		"Flight-recorder epochs closed by locally executed cells.")

	s.mSLOBreached = reg.CounterVec("rnuca_jobs_slo_breached_total",
		"Done or failed jobs whose submit-to-terminal latency exceeded the SLO target.",
		"kind")
	s.mHTTPRequests = reg.CounterVec("rnuca_http_requests_total",
		"HTTP requests served, by normalized route and status code.",
		"route", "code")
	s.mHTTPDuration = reg.HistogramVec("rnuca_http_request_duration_seconds",
		"HTTP handler latency by normalized route (SSE streams record their full lifetime).",
		obs.DefSecondsBuckets(), "route")

	s.mJobQuantile = reg.FloatGaugeVec("rnuca_job_latency_quantile_seconds",
		"Windowed submit-to-terminal job latency quantiles per kind.",
		"kind", "q")
	s.mQueueWaitQuantile = reg.FloatGaugeVec("rnuca_job_queue_wait_quantile_seconds",
		"Windowed queue-wait quantiles per kind.",
		"kind", "q")
	s.mHTTPQuantile = reg.FloatGaugeVec("rnuca_http_request_quantile_seconds",
		"Windowed HTTP handler latency quantiles per normalized route.",
		"route", "q")
	reg.OnCollect(s.collectQuantiles)

	s.cache.Instrument(reg)

	if store := s.cfg.Store; store != nil {
		objects := reg.Gauge("rnuca_corpus_objects", "Objects in the corpus store.")
		bytes := reg.Gauge("rnuca_corpus_bytes", "Bytes held by the corpus store.")
		reg.OnCollect(func() {
			// On a stat error the gauges keep their last good values; a
			// transient filesystem hiccup should not zero the series.
			if o, b, err := store.Stats(); err == nil {
				objects.Set(int64(o))
				bytes.Set(b)
			}
		})
	}
}

// reject counts a refused submission.
func (s *Server) reject() {
	s.stats.mu.Lock()
	s.stats.rejected++
	s.stats.mu.Unlock()
}

// throttle counts a submission refused for queue pressure: it is a
// rejection, and additionally a throttle (the 429 the client should
// back off from, as opposed to a drain's terminal 503).
func (s *Server) throttle() {
	s.stats.mu.Lock()
	s.stats.rejected++
	s.stats.throttled++
	s.stats.mu.Unlock()
}

// New builds a server and starts its worker pool.
func New(cfg Config) *Server {
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 64
	}
	if cfg.JobHistory <= 0 {
		cfg.JobHistory = defaultJobHistory
	}
	//rnuca:ctx-ok the server's lifecycle root; New has no caller ctx and Shutdown owns cancellation
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{
		cfg:     cfg,
		cache:   resultcache.New(cfg.CacheEntries),
		baseCtx: ctx,
		stop:    cancel,
		jobs:    map[string]*job{},
		queue:   make(chan *job, cfg.QueueDepth),
		lat:     newLatencyTracker(cfg.SLO),
	}
	s.initMetrics()
	for i := 0; i < cfg.Workers; i++ {
		s.wg.Add(1)
		go s.worker()
	}
	return s
}

// Cache exposes the shared result cache (the figure harness and tests
// read its metrics; Campaigns created outside the server can attach to
// it).
func (s *Server) Cache() *resultcache.Cache { return s.cache }

// logFor returns the server's logger bound to a job's correlation
// fields. Nil-safe: a server without a logger gets the nil *Logger,
// which discards.
func (s *Server) logFor(j *job) *log.Logger {
	return s.cfg.Logger.With("job_id", j.id, "kind", j.spec.Kind)
}

// Submit validates a spec, enqueues the job, and returns its status.
func (s *Server) Submit(spec JobSpec) (JobStatus, error) {
	j := &job{id: newJobID(), spec: spec, created: time.Now(), state: JobQueued}
	if err := s.validate(j); err != nil {
		s.reject()
		s.cfg.Logger.Warn("job rejected", "kind", spec.Kind, "err", err)
		return JobStatus{}, err
	}
	j.trace = obs.NewTrace(0)
	j.ctx, j.cancel = context.WithCancel(s.baseCtx)
	j.ctx = obs.ContextWithTrace(j.ctx, j.trace)
	// The queue span must exist before the job is visible to a worker:
	// runJob ends it on dequeue.
	j.queued = j.trace.StartSpan("job.queue")

	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		j.cancel() // detach the rejected job's context from baseCtx
		s.reject()
		s.cfg.Logger.Warn("job rejected", "kind", spec.Kind, "err", ErrDraining)
		return JobStatus{}, ErrDraining
	}
	select {
	case s.queue <- j:
	default:
		s.mu.Unlock()
		j.cancel()
		s.throttle()
		s.cfg.Logger.Warn("job rejected", "kind", spec.Kind, "err", ErrBusy)
		return JobStatus{}, ErrBusy
	}
	s.jobs[j.id] = j
	s.order = append(s.order, j.id)
	s.mu.Unlock()

	s.stats.mu.Lock()
	s.stats.submitted++
	s.stats.queued++
	s.stats.mu.Unlock()
	s.logFor(j).Info("job queued")
	return j.status(), nil
}

// Job returns a job's status by ID.
func (s *Server) Job(id string) (JobStatus, bool) {
	s.mu.Lock()
	j, ok := s.jobs[id]
	s.mu.Unlock()
	if !ok {
		return JobStatus{}, false
	}
	return j.status(), true
}

// Cancel cancels a job: queued jobs never run, running jobs stop at
// the next progress observation (a few thousand simulated references).
func (s *Server) Cancel(id string) (JobStatus, bool) {
	s.mu.Lock()
	j, ok := s.jobs[id]
	s.mu.Unlock()
	if !ok {
		return JobStatus{}, false
	}
	j.cancel()
	return j.status(), true
}

// Jobs lists every job in submission order.
func (s *Server) Jobs() []JobStatus {
	s.mu.Lock()
	ids := append([]string(nil), s.order...)
	jobs := make([]*job, 0, len(ids))
	for _, id := range ids {
		jobs = append(jobs, s.jobs[id])
	}
	s.mu.Unlock()
	out := make([]JobStatus, len(jobs))
	for i, j := range jobs {
		out[i] = j.status()
	}
	return out
}

// jobByID returns the raw job record.
func (s *Server) jobByID(id string) (*job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	return j, ok
}

// Ready reports whether the server is accepting jobs: true from New
// until draining begins. /readyz maps it to 200/503 so a load
// balancer stops routing to a terminating instance while in-flight
// jobs finish.
func (s *Server) Ready() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return !s.draining
}

// Drain stops accepting new jobs and waits for queued and running work
// to finish, or for ctx to end (running jobs are then left to Close).
func (s *Server) Drain(ctx context.Context) error {
	s.mu.Lock()
	if !s.draining {
		s.draining = true
		close(s.queue)
	}
	s.mu.Unlock()
	done := make(chan struct{})
	//rnuca:go-ok wait-or-cancel shim: exits when the job WaitGroup drains; a ctx timeout abandons it but it still terminates on its own
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Close force-stops the server: drain begins if it has not, every job
// context is canceled (running simulations stop at their next progress
// observation), and the workers are awaited.
func (s *Server) Close() {
	s.mu.Lock()
	if !s.draining {
		s.draining = true
		close(s.queue)
	}
	s.mu.Unlock()
	s.stop()
	s.wg.Wait()
}

// worker executes queued jobs until the queue closes.
func (s *Server) worker() {
	defer s.wg.Done()
	//rnuca:lock-ok channel receive synchronizes itself; the queue field is written once at New and closed under mu
	for j := range s.queue {
		s.runJob(j)
	}
}

// runJob drives one job through execution and terminal-state
// accounting. The job's context is always canceled on the way out so
// it detaches from the server's base context (a long-running server
// must not accumulate one live child context per finished job).
func (s *Server) runJob(j *job) {
	defer j.cancel()
	j.queued.End()
	wait := time.Since(j.created).Seconds()
	s.mQueueWait.With(j.spec.Kind).Observe(wait)
	s.lat.observeQueueWait(j.spec.Kind, wait)
	if j.ctx.Err() != nil {
		s.finishJob(j, JobCanceled, nil, context.Cause(j.ctx), true)
		return
	}
	j.setRunning()
	s.stats.mu.Lock()
	s.stats.queued--
	s.stats.running++
	s.stats.mu.Unlock()

	s.logFor(j).Info("job running",
		"queue_wait", time.Since(j.created).Round(time.Millisecond))

	// The worker goroutine carries the job's pprof labels while it
	// executes, so CPU and goroutine profiles attribute samples to
	// jobs. j.ctx itself is deliberately not replaced: SSE watchers
	// read it concurrently.
	sp := j.trace.StartSpan("job.run")
	var res *JobResult
	var err error
	pprof.Do(j.ctx, jobLabels(j.id, j.spec.Kind), func(context.Context) {
		res, err = s.execute(j)
	})
	sp.End()
	switch {
	case err == nil:
		s.finishJob(j, JobDone, res, nil, false)
	case j.ctx.Err() != nil || errors.Is(err, context.Canceled):
		s.finishJob(j, JobCanceled, nil, err, false)
	default:
		s.finishJob(j, JobFailed, nil, err, false)
	}
	s.pruneJobs()
}

// finishJob records a terminal state: the job's own record, the
// lifecycle ledger (one locked transition, so queued/running and the
// terminal counters never disagree within a scrape), and the duration
// histogram. fromQueue marks a job canceled before it ever ran.
func (s *Server) finishJob(j *job, state JobState, res *JobResult, err error, fromQueue bool) {
	j.finish(state, res, err)
	s.stats.mu.Lock()
	if fromQueue {
		s.stats.queued--
	} else {
		s.stats.running--
	}
	switch state {
	case JobDone:
		s.stats.completed++
	case JobFailed:
		s.stats.failed++
	case JobCanceled:
		s.stats.canceled++
	}
	s.stats.mu.Unlock()

	st := j.status()
	start := st.Created
	if st.Started != nil {
		start = *st.Started
	}
	if st.Finished != nil {
		s.mJobDuration.With(j.spec.Kind, string(state)).
			Observe(st.Finished.Sub(start).Seconds())
		// The windowed quantiles and the SLO measure what the client
		// felt: submit→terminal, queue wait included.
		if s.lat.observeJob(j.spec.Kind, state, st.Finished.Sub(st.Created).Seconds()) {
			s.mSLOBreached.With(j.spec.Kind).Inc()
		}
	}

	lg := s.logFor(j)
	var dur time.Duration
	if st.Finished != nil {
		dur = st.Finished.Sub(start).Round(time.Millisecond)
	}
	switch state {
	case JobDone:
		lg.Info("job done", "duration", dur)
	case JobCanceled:
		lg.Warn("job canceled", "duration", dur)
	default:
		lg.Error("job failed", "duration", dur, "err", err)
	}
}

// jobLabels is the pprof label set a worker executes a job under.
// Factored out so tests can assert the exact labels without running a
// job.
func jobLabels(id, kind string) pprof.LabelSet {
	return pprof.Labels("job_id", id, "kind", kind)
}

// pruneJobs drops the oldest terminal jobs (and their retained result
// payloads) beyond the history bound, so a long-running server does
// not accumulate one record per request forever.
func (s *Server) pruneJobs() {
	s.mu.Lock()
	defer s.mu.Unlock()
	terminal := 0
	for _, id := range s.order {
		if st := s.jobs[id]; st != nil && s.jobTerminal(st) {
			terminal++
		}
	}
	if terminal <= s.cfg.JobHistory {
		return
	}
	keep := s.order[:0]
	for _, id := range s.order {
		st := s.jobs[id]
		if st != nil && s.jobTerminal(st) && terminal > s.cfg.JobHistory {
			delete(s.jobs, id)
			terminal--
			continue
		}
		keep = append(keep, id)
	}
	s.order = keep
}

// jobTerminal reads a job's terminal-ness under its own lock.
func (s *Server) jobTerminal(j *job) bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state.terminal()
}

// execute dispatches a job by kind.
func (s *Server) execute(j *job) (*JobResult, error) {
	switch {
	case simSpec(j.spec.Kind):
		return s.executeSim(j)
	case j.spec.Kind == "convert":
		return s.executeConvert(j)
	case j.spec.Kind == "figure":
		return s.executeFigure(j)
	}
	return nil, fmt.Errorf("serve: unvalidated job kind %q", j.spec.Kind)
}

// cell runs one single-design simulation cell through the memoized
// cache: key it by the cell's canonical encoding, join or start the
// flight, and refuse to cache a canceled partial. The cell executes
// under the flight's context (canceled only when every interested job
// has canceled) with the job's observation hook attached.
func (s *Server) cell(j *job, cell rnuca.Job) (rnuca.Result, resultcache.Outcome, error) {
	run := func(ctx context.Context) (rnuca.Result, error) {
		c := cell
		c.Options.Progress = j.observe()
		c.Options.Timeline = s.timelineConfig(j)
		return c.Run(ctx)
	}
	key, ok := resultcache.JobKey(cell)
	if !ok {
		r, err := run(j.ctx)
		if err == nil {
			s.mRefs.Add(r.Refs)
		}
		return r, resultcache.Miss, err
	}
	v, outcome, err := s.cache.Do(j.ctx, key, func(fctx context.Context) (any, error) {
		// The flight's context is detached from the submitting job's, so
		// the job's trace must be re-attached for the library's spans
		// (sim.cell, replay.setup, result.fold) to land in it.
		fctx = obs.ContextWithTrace(fctx, j.trace)
		r, err := run(fctx)
		if err != nil {
			return nil, err
		}
		// A canceled flight returns a partial result; it must never
		// enter the cache.
		if fctx.Err() != nil {
			return nil, fctx.Err()
		}
		s.mRefs.Add(r.Refs)
		return r, nil
	})
	if err != nil {
		return rnuca.Result{}, outcome, err
	}
	return v.(rnuca.Result), outcome, nil
}

// timelineConfig builds a cell's flight-recorder config: each closed
// epoch lands on the job's live status (and the epochs counter) as
// the engine crosses the boundary, and the finished cell's full
// timeline reaches the API via Result.Timeline. Pure observation —
// the recorder never feeds back into timing, and the option is
// excluded from the cell's canonical encoding, so cache keys are
// untouched.
func (s *Server) timelineConfig(j *job) *rnuca.TimelineConfig {
	return &rnuca.TimelineConfig{
		Every: s.cfg.EpochRefs,
		OnEpoch: func(e flight.Epoch) {
			s.mEpochs.Add(1)
			j.observeEpoch(e)
		},
	}
}

// executeSim runs a simulation job, one cached cell per design.
// Single-design jobs report a single Result; everything else reports a
// design-keyed map.
func (s *Server) executeSim(j *job) (*JobResult, error) {
	job := *j.spec.Job
	single := len(job.Designs) == 1
	out := &JobResult{Cache: map[string]string{}}
	if !single {
		out.Results = map[string]rnuca.Result{}
	}
	for _, id := range job.Designs {
		if err := j.ctx.Err(); err != nil {
			return nil, err
		}
		// Each design is a fresh cell: restart the progress gauge so
		// a later cell does not appear frozen at the previous one's max.
		j.gauge.Reset()
		sp := j.trace.StartSpan("cache.lookup")
		sp.SetAttr("design", string(id))
		r, outcome, err := s.cell(j, job.WithDesign(id))
		sp.SetAttr("outcome", outcome.String())
		sp.End()
		if err != nil {
			return nil, err
		}
		out.Cache[string(id)] = outcome.String()
		// The timeline rides the Result (cache hits carry the one their
		// original execution recorded) but is served from its own
		// endpoint, not the result payload.
		j.setTimeline(string(id), r.Timeline)
		if single {
			rr := r
			out.Result = &rr
		} else {
			out.Results[string(id)] = r
		}
	}
	return out, nil
}

func (s *Server) executeConvert(j *job) (*JobResult, error) {
	sp := j.trace.StartSpan("convert.ingest")
	defer sp.End()
	opt, err := j.spec.Convert.ingestOptions()
	if err != nil {
		return nil, err
	}
	tmp, err := os.CreateTemp("", "rnuca-serve-convert-*.rnt")
	if err != nil {
		return nil, fmt.Errorf("serve: %w", err)
	}
	tmpPath := tmp.Name()
	tmp.Close()
	// The converter has no cancellation hook, so it runs on its own
	// goroutine: a canceled job (or a forced shutdown) releases the
	// worker immediately, and the conversion finishes detached with a
	// reaper removing its temporary output.
	done := make(chan error, 1)
	go func() {
		_, cerr := ingest.Convert(j.spec.Convert.Inputs, tmpPath, opt)
		done <- cerr
	}()
	select {
	case <-j.ctx.Done():
		//rnuca:go-ok reaper for the detached conversion: exits after the buffered done send, removing the orphaned temp file
		go func() {
			<-done
			os.Remove(tmpPath)
		}()
		return nil, j.ctx.Err()
	case err = <-done:
	}
	defer os.Remove(tmpPath)
	if err != nil {
		return nil, err
	}
	ent, _, err := s.cfg.Store.Add(tmpPath, j.spec.Convert.Name)
	if err != nil {
		return nil, err
	}
	return &JobResult{Corpus: &ent}, nil
}

// figureScale applies the Quick defaults (the test-harness scale) to
// a figure spec's zero scale fields.
func figureScale(sc experiments.Scale) experiments.Scale {
	def := experiments.Quick()
	if sc.Warm == 0 {
		sc.Warm = def.Warm
	}
	if sc.Measure == 0 {
		sc.Measure = def.Measure
	}
	if sc.Batches == 0 {
		sc.Batches = def.Batches
	}
	if sc.TraceRefs == 0 {
		sc.TraceRefs = def.TraceRefs
	}
	return sc
}

// executeFigure builds the ingested-corpus table suite (the Figure 2–5
// characterization analyses plus the Figure 12 design comparison) over
// the job's corpora. The whole build memoizes under a key of the
// corpus digests, designs, and scale; the campaign's individual
// simulation cells share the same cache, so even a partially-warm
// cache skips every cell it has seen. The flight's context threads
// through Campaign.SetContext, so a canceled job stops its build
// mid-simulation, not between stages.
func (s *Server) executeFigure(j *job) (*JobResult, error) {
	fig := j.spec.Figure
	sc := figureScale(fig.Scale)
	digests := make([]string, len(j.corpora))
	for i, c := range j.corpora {
		digests[i] = c.digest
	}
	sort.Strings(digests)
	ids, err := parseDesigns(fig.Designs)
	if err != nil {
		return nil, err
	}
	keyJSON, err := json.Marshal(struct {
		Digests []string          `json:"d"`
		Designs []rnuca.DesignID  `json:"ids"`
		Scale   experiments.Scale `json:"sc"`
	}{digests, ids, sc})
	if err != nil {
		return nil, err
	}
	key := "figure|" + string(keyJSON)

	sp := j.trace.StartSpan("figure.build")
	defer sp.End()
	v, outcome, err := s.cache.Do(j.ctx, key, func(fctx context.Context) (tables any, err error) {
		// Re-attach the job's trace: the flight context is detached from
		// j.ctx, and the campaign's spans (classify.pass, sim.cell)
		// should land in the submitting job's trace.
		fctx = obs.ContextWithTrace(fctx, j.trace)
		// The campaign API reports simulation failures — cancellation
		// included — by panicking (its callers are harnesses); a
		// serving worker must turn that into a failed or canceled job,
		// not a dead process.
		defer func() {
			if p := recover(); p != nil {
				if cerr := fctx.Err(); cerr != nil {
					tables, err = nil, cerr
					return
				}
				tables, err = nil, fmt.Errorf("serve: figure build: %v", p)
			}
		}()
		camp := experiments.NewCampaign(sc)
		camp.Shards = fig.Shards
		camp.SetResultCache(s.cache)
		camp.SetContext(fctx)
		camp.SetProgress(&j.gauge)
		for _, c := range j.corpora {
			if _, err := camp.SetInput(rnuca.FromCorpus(s.cfg.Store, c.digest)); err != nil {
				return nil, err
			}
		}
		ts := camp.FigIngested()
		ts = append(ts, camp.CompareIngested(ids))
		if err := fctx.Err(); err != nil {
			return nil, err
		}
		return ts, nil
	})
	sp.SetAttr("outcome", outcome.String())
	if err != nil {
		return nil, err
	}
	return &JobResult{
		Tables: v.([]*report.Table),
		Cache:  map[string]string{"figure": outcome.String()},
	}, nil
}
