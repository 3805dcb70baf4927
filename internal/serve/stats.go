package serve

import (
	"errors"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"rnuca/internal/obs"
)

// latencyTracker owns the serve layer's windowed latency state:
// submit→terminal job latency and queue wait per job kind, HTTP
// handler latency per route (one obs.Window per label, each covering
// the trailing obs.WindowSpan), and the SLO burn counters. One mutex
// guards all of it; the windows do no locking of their own.
type latencyTracker struct {
	slo time.Duration    // 0 disables SLO accounting
	now func() time.Time // the windows' clock; tests inject their own

	mu         sync.Mutex
	jobLatency map[string]*obs.Window // guarded by mu; per kind, seconds, submit→terminal
	queueWait  map[string]*obs.Window // guarded by mu; per kind, seconds
	httpWait   map[string]*obs.Window // guarded by mu; per route, seconds
	// Cumulative SLO burn counters per kind, over jobs reaching done or
	// failed (a canceled job is the client's choice, not a latency
	// breach).
	sloTotal    map[string]uint64 // guarded by mu
	sloBreached map[string]uint64 // guarded by mu
}

func newLatencyTracker(slo time.Duration) *latencyTracker {
	return &latencyTracker{
		slo:         slo,
		now:         time.Now,
		jobLatency:  map[string]*obs.Window{},
		queueWait:   map[string]*obs.Window{},
		httpWait:    map[string]*obs.Window{},
		sloTotal:    map[string]uint64{},
		sloBreached: map[string]uint64{},
	}
}

// observeLocked records one value into a family's window for label,
// creating the window on first use. Callers hold lt.mu.
func (lt *latencyTracker) observeLocked(family map[string]*obs.Window, label string, seconds float64) {
	w := family[label]
	if w == nil {
		w = obs.NewWindow()
		family[label] = w
	}
	w.Observe(lt.now(), seconds)
}

// observeJob records one terminal job: its submit→terminal latency
// always enters the job-latency window; done and failed jobs also
// burn against the SLO. Returns whether this job breached the target.
func (lt *latencyTracker) observeJob(kind string, state JobState, seconds float64) bool {
	lt.mu.Lock()
	defer lt.mu.Unlock()
	lt.observeLocked(lt.jobLatency, kind, seconds)
	if lt.slo <= 0 || state == JobCanceled {
		return false
	}
	breached := seconds > lt.slo.Seconds()
	lt.sloTotal[kind]++
	if breached {
		lt.sloBreached[kind]++
	}
	return breached
}

// observeQueueWait records how long one job of a kind sat queued.
func (lt *latencyTracker) observeQueueWait(kind string, seconds float64) {
	lt.mu.Lock()
	defer lt.mu.Unlock()
	lt.observeLocked(lt.queueWait, kind, seconds)
}

// observeHTTP records one request's handler latency on its route.
func (lt *latencyTracker) observeHTTP(route string, seconds float64) {
	lt.mu.Lock()
	defer lt.mu.Unlock()
	lt.observeLocked(lt.httpWait, route, seconds)
}

// latencies summarizes a family's windows at now in the wire shape,
// omitting labels whose windows are currently empty (nil when all are,
// so the field is omitted).
func latencies(family map[string]*obs.Window, now time.Time) map[string]LatencyStats {
	out := make(map[string]LatencyStats, len(family))
	for label, w := range family {
		if s := w.Snapshot(now); s.Count > 0 {
			out[label] = LatencyStats(s)
		}
	}
	if len(out) == 0 {
		return nil
	}
	return out
}

// stats snapshots every window under one lock: per-kind job latency
// with SLO attainment, queue wait per kind, and latency per route.
func (lt *latencyTracker) stats() (jobs map[string]KindStats, queueWait, http map[string]LatencyStats) {
	lt.mu.Lock()
	defer lt.mu.Unlock()
	now := lt.now()
	jobs = map[string]KindStats{}
	for kind, lat := range latencies(lt.jobLatency, now) {
		ks := KindStats{Latency: lat}
		if lt.slo > 0 {
			total, breached := lt.sloTotal[kind], lt.sloBreached[kind]
			ks.SLO = &SLOStats{
				TargetSeconds:    lt.slo.Seconds(),
				WindowAttainment: lt.jobLatency[kind].FractionBelow(now, lt.slo.Seconds()),
				Counted:          total,
				Breached:         breached,
				Attainment:       1,
			}
			if total > 0 {
				ks.SLO.Attainment = 1 - float64(breached)/float64(total)
			}
		}
		jobs[kind] = ks
	}
	return jobs, latencies(lt.queueWait, now), latencies(lt.httpWait, now)
}

// StatsResponse is the GET /v1/stats payload: the serving tier's
// latency intelligence in one consistent JSON snapshot — windowed
// quantiles per job kind and HTTP route, saturation (queue depth,
// in-flight jobs, worker utilization), cache effectiveness, SLO
// attainment, and the lifecycle ledger.
//
//rnuca:wire
type StatsResponse struct {
	// WindowSeconds is the sliding window the quantiles cover.
	WindowSeconds float64 `json:"window_seconds"`
	// SLOSeconds echoes the configured job-latency target (absent when
	// SLO accounting is disabled).
	SLOSeconds float64 `json:"slo_seconds,omitempty"`
	// Workers / QueueDepth / Inflight / Utilization are the saturation
	// signals: pool size, jobs waiting in the queue, jobs executing,
	// and Inflight/Workers.
	Workers     int     `json:"workers"`
	QueueDepth  int     `json:"queue_depth"`
	Inflight    int     `json:"inflight"`
	Utilization float64 `json:"utilization"`
	// Jobs holds windowed submit→terminal latency (and SLO attainment)
	// per job kind; QueueWait the windowed queue-wait latency per kind;
	// HTTP the windowed handler latency per route.
	Jobs      map[string]KindStats    `json:"jobs,omitempty"`
	QueueWait map[string]LatencyStats `json:"queue_wait,omitempty"`
	HTTP      map[string]LatencyStats `json:"http,omitempty"`
	// Cache summarizes the result cache.
	Cache CacheStats `json:"cache"`
	// Ledger is the cumulative job-lifecycle accounting.
	Ledger LedgerStats `json:"ledger"`
}

// LatencyStats is one windowed latency summary in seconds.
//
//rnuca:wire
type LatencyStats struct {
	Count uint64  `json:"count"`
	Mean  float64 `json:"mean_seconds"`
	Min   float64 `json:"min_seconds"`
	Max   float64 `json:"max_seconds"`
	P50   float64 `json:"p50_seconds"`
	P90   float64 `json:"p90_seconds"`
	P95   float64 `json:"p95_seconds"`
	P99   float64 `json:"p99_seconds"`
}

// KindStats is one job kind's windowed latency plus SLO accounting.
//
//rnuca:wire
type KindStats struct {
	Latency LatencyStats `json:"latency"`
	SLO     *SLOStats    `json:"slo,omitempty"`
}

// SLOStats reports attainment against the configured submit→terminal
// latency target: windowed (the estimated fraction of windowed jobs
// within target) and cumulative (the burn counters, over jobs
// reaching done or failed since process start).
//
//rnuca:wire
type SLOStats struct {
	TargetSeconds    float64 `json:"target_seconds"`
	WindowAttainment float64 `json:"window_attainment"`
	Counted          uint64  `json:"counted_total"`
	Breached         uint64  `json:"breached_total"`
	Attainment       float64 `json:"attainment"`
}

// CacheStats summarizes the result cache for /v1/stats. HitRatio is
// hits/(hits+misses+shared), 0 when the cache has seen no lookups.
//
//rnuca:wire
type CacheStats struct {
	Hits     uint64  `json:"hits"`
	Misses   uint64  `json:"misses"`
	Shared   uint64  `json:"shared"`
	Entries  int     `json:"entries"`
	HitRatio float64 `json:"hit_ratio"`
}

// LedgerStats is the cumulative lifecycle ledger (one consistent
// snapshot — the same numbers /metrics exports).
//
//rnuca:wire
type LedgerStats struct {
	Submitted uint64 `json:"submitted"`
	Completed uint64 `json:"completed"`
	Failed    uint64 `json:"failed"`
	Canceled  uint64 `json:"canceled"`
	Rejected  uint64 `json:"rejected"`
	Throttled uint64 `json:"throttled"`
	Queued    int64  `json:"queued"`
	Running   int64  `json:"running"`
}

// Stats assembles the /v1/stats snapshot.
func (s *Server) Stats() StatsResponse {
	out := StatsResponse{
		WindowSeconds: obs.WindowSpan.Seconds(),
		Workers:       s.cfg.Workers,
	}
	if s.lat.slo > 0 {
		out.SLOSeconds = s.lat.slo.Seconds()
	}

	s.stats.mu.Lock()
	out.Ledger = LedgerStats{
		Submitted: s.stats.submitted, Completed: s.stats.completed,
		Failed: s.stats.failed, Canceled: s.stats.canceled,
		Rejected: s.stats.rejected, Throttled: s.stats.throttled,
		Queued: s.stats.queued, Running: s.stats.running,
	}
	s.stats.mu.Unlock()
	out.QueueDepth = int(out.Ledger.Queued)
	out.Inflight = int(out.Ledger.Running)
	if s.cfg.Workers > 0 {
		out.Utilization = float64(out.Inflight) / float64(s.cfg.Workers)
	}

	out.Jobs, out.QueueWait, out.HTTP = s.lat.stats()

	cm := s.cache.Metrics()
	out.Cache = CacheStats{
		Hits: cm.Hits, Misses: cm.Misses, Shared: cm.Shared,
		Entries: cm.Entries,
	}
	if lookups := cm.Hits + cm.Misses + cm.Shared; lookups > 0 {
		out.Cache.HitRatio = float64(cm.Hits) / float64(lookups)
	}
	return out
}

// handleStats serves GET /v1/stats.
func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		w.Header().Set("Allow", "GET")
		writeError(w, http.StatusMethodNotAllowed, errors.New("use GET"))
		return
	}
	writeJSON(w, http.StatusOK, s.Stats())
}

// routeLabel normalizes a request path to a bounded label set, so the
// per-endpoint metrics cannot explode on job IDs or corpus digests.
func routeLabel(path string) string {
	switch {
	case path == "/v1/jobs", path == "/v1/corpora", path == "/v1/stats",
		path == "/metrics", path == "/healthz", path == "/readyz":
		return path
	case path == "/v1/corpora/gc":
		return "/v1/corpora/gc"
	case strings.HasPrefix(path, "/v1/jobs/"):
		rest := strings.TrimPrefix(path, "/v1/jobs/")
		if _, sub, ok := strings.Cut(rest, "/"); ok {
			switch sub {
			case "events", "trace", "timeline":
				return "/v1/jobs/{id}/" + sub
			}
			return "other"
		}
		return "/v1/jobs/{id}"
	case strings.HasPrefix(path, "/v1/corpora/"):
		if !strings.Contains(strings.TrimPrefix(path, "/v1/corpora/"), "/") {
			return "/v1/corpora/{ref}"
		}
		return "other"
	}
	return "other"
}

// statusWriter captures the response status for the HTTP metrics
// while passing the Flusher through (SSE needs it).
type statusWriter struct {
	http.ResponseWriter
	code int
}

func (w *statusWriter) WriteHeader(code int) {
	w.code = code
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Flush() {
	if fl, ok := w.ResponseWriter.(http.Flusher); ok {
		fl.Flush()
	}
}

// instrument wraps the service mux with per-endpoint latency and
// status accounting: a counter per (route, status class), a fixed-
// bucket histogram and a latency window per route. SSE
// watchers record their full stream lifetime — long tails on the
// events route are watchers, not slow handlers.
func (s *Server) instrument(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		sw := &statusWriter{ResponseWriter: w, code: http.StatusOK}
		next.ServeHTTP(sw, r)
		route := routeLabel(r.URL.Path)
		sec := time.Since(start).Seconds()
		s.mHTTPRequests.With(route, strconv.Itoa(sw.code)).Inc()
		s.mHTTPDuration.With(route).Observe(sec)
		s.lat.observeHTTP(route, sec)
	})
}

// collectQuantiles publishes the latency windows onto the registry's
// float gauges; it runs as an OnCollect hook so every scrape
// re-snapshots under the render lock.
func (s *Server) collectQuantiles() {
	lt := s.lat
	lt.mu.Lock()
	defer lt.mu.Unlock()
	now := lt.now()
	for _, f := range []struct {
		family map[string]*obs.Window
		gauges *obs.FloatGaugeVec
	}{
		{lt.jobLatency, s.mJobQuantile},
		{lt.queueWait, s.mQueueWaitQuantile},
		{lt.httpWait, s.mHTTPQuantile},
	} {
		for label, snap := range latencies(f.family, now) {
			f.gauges.With(label, "p50").Set(snap.P50)
			f.gauges.With(label, "p90").Set(snap.P90)
			f.gauges.With(label, "p99").Set(snap.P99)
			f.gauges.With(label, "max").Set(snap.Max)
		}
	}
}
