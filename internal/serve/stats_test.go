package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"rnuca/internal/corpus"
)

// postRaw submits a job body and returns the raw response (callers
// close it) — the hook for asserting refusal statuses and headers.
func postRaw(t *testing.T, base, body string) *http.Response {
	t.Helper()
	resp, err := http.Post(base+"/v1/jobs", "application/json",
		bytes.NewReader([]byte(body)))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// Queue pressure and draining are different refusals: a full queue is
// transient (429 + Retry-After, counted as throttled), a drain is
// terminal for the instance (503, no Retry-After, not throttled).
func TestThrottleAndDrainStatuses(t *testing.T) {
	s, hs, _ := newTestServer(t, 1)
	// Rebuild with a one-slot queue: one job running, one queued, the
	// next refused.
	hs.Close()
	s.Close()
	s = New(Config{Workers: 1, QueueDepth: 1})
	hs = httptest.NewServer(s.Handler())
	t.Cleanup(func() { hs.Close(); s.Close() })

	// A workload job long enough (tens of ms) that the flood below —
	// each POST costs ~100µs — fills the queue while it runs.
	long := `{"input":{"workload":"OLTP-DB2"},"designs":["R"],"options":{"warm":6000,"measure":60000}}`

	var throttledResp *http.Response
	deadline := time.Now().Add(10 * time.Second)
	for throttledResp == nil {
		if time.Now().After(deadline) {
			t.Fatal("queue never filled; no 429 observed")
		}
		resp := postRaw(t, hs.URL, long)
		switch resp.StatusCode {
		case http.StatusAccepted:
			resp.Body.Close()
		case http.StatusTooManyRequests:
			throttledResp = resp
		default:
			t.Fatalf("unexpected submit status %s", resp.Status)
		}
	}
	if got := throttledResp.Header.Get("Retry-After"); got != "1" {
		t.Errorf("429 Retry-After = %q, want \"1\"", got)
	}
	throttledResp.Body.Close()
	if v := metric(t, hs.URL, "rnuca_jobs_throttled_total"); v < 1 {
		t.Errorf("rnuca_jobs_throttled_total = %v, want >= 1", v)
	}
	// Throttles are a subset of rejections.
	if rej := metric(t, hs.URL, "rnuca_jobs_rejected_total"); rej < metric(t, hs.URL, "rnuca_jobs_throttled_total") {
		t.Errorf("rejected (%v) < throttled", rej)
	}

	// Drain, then: 503, no Retry-After, throttled counter unchanged.
	thrBefore := metric(t, hs.URL, "rnuca_jobs_throttled_total")
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	drained := make(chan error, 1)
	go func() { drained <- s.Drain(ctx) }()
	dl := time.Now().Add(5 * time.Second)
	for {
		resp := postRaw(t, hs.URL, long)
		code, retry := resp.StatusCode, resp.Header.Get("Retry-After")
		resp.Body.Close()
		if code == http.StatusServiceUnavailable {
			if retry != "" {
				t.Errorf("drain 503 carries Retry-After %q, want none", retry)
			}
			break
		}
		if time.Now().After(dl) {
			t.Fatalf("drain never started refusing (last status %d)", code)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if err := <-drained; err != nil {
		t.Fatalf("drain: %v", err)
	}
	if got := metric(t, hs.URL, "rnuca_jobs_throttled_total"); got != thrBefore {
		t.Errorf("drain refusals moved throttled counter: %v -> %v", thrBefore, got)
	}
}

// GET /v1/stats reports windowed latency quantiles per kind, SLO
// attainment against the configured target, queue saturation, and
// cache effectiveness — one consistent JSON snapshot.
func TestStatsEndpoint(t *testing.T) {
	st, err := corpus.Open(filepath.Join(t.TempDir(), "store"))
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := st.Add(recordedTrace(t), "oltp"); err != nil {
		t.Fatal(err)
	}
	// A generous SLO: every test job attains it, so the assertion on
	// attainment is deterministic.
	s := New(Config{Store: st, Workers: 2, SLO: 5 * time.Minute})
	hs := httptest.NewServer(s.Handler())
	t.Cleanup(func() { hs.Close(); s.Close() })

	// Three identical replays: a cold miss, then cache hits.
	for i := 0; i < 3; i++ {
		fin := waitJob(t, hs.URL, postJob(t, hs.URL, `{"input":{"corpus":"oltp"},"designs":["R"]}`).ID)
		if fin.State != JobDone {
			t.Fatalf("job %d: %s (%s)", i, fin.State, fin.Error)
		}
	}

	resp, err := http.Get(hs.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/v1/stats: %s", resp.Status)
	}
	var stats StatsResponse
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatalf("decoding stats: %v", err)
	}

	if stats.WindowSeconds != 60 {
		t.Errorf("window_seconds = %v, want 60", stats.WindowSeconds)
	}
	if stats.SLOSeconds != 300 {
		t.Errorf("slo_seconds = %v, want 300", stats.SLOSeconds)
	}
	if stats.Workers != 2 || stats.QueueDepth != 0 || stats.Inflight != 0 || stats.Utilization != 0 {
		t.Errorf("saturation = workers %d depth %d inflight %d util %v, want 2/0/0/0",
			stats.Workers, stats.QueueDepth, stats.Inflight, stats.Utilization)
	}

	sim, ok := stats.Jobs["sim"]
	if !ok {
		t.Fatalf("stats.jobs has no sim entry: %v", stats.Jobs)
	}
	lat := sim.Latency
	if lat.Count != 3 {
		t.Errorf("sim latency count = %d, want 3", lat.Count)
	}
	if !(lat.P50 > 0 && lat.P50 <= lat.P90 && lat.P90 <= lat.P99 && lat.P99 <= lat.Max) {
		t.Errorf("sim quantiles not monotone positive: %+v", lat)
	}
	if sim.SLO == nil {
		t.Fatal("sim SLO stats absent with Config.SLO set")
	}
	if sim.SLO.TargetSeconds != 300 || sim.SLO.Counted != 3 || sim.SLO.Breached != 0 ||
		sim.SLO.Attainment != 1 || sim.SLO.WindowAttainment != 1 {
		t.Errorf("sim SLO = %+v, want 3 counted, 0 breached, attainment 1", sim.SLO)
	}

	if qw, ok := stats.QueueWait["sim"]; !ok || qw.Count != 3 {
		t.Errorf("queue_wait[sim] = %+v (present %v), want count 3", qw, ok)
	}
	if _, ok := stats.HTTP["/v1/jobs"]; !ok {
		t.Errorf("http stats missing /v1/jobs route: %v", stats.HTTP)
	}

	l := stats.Ledger
	if l.Submitted != 3 || l.Completed != 3 || l.Queued != 0 || l.Running != 0 || l.Throttled != 0 {
		t.Errorf("ledger = %+v, want 3 submitted, 3 completed, 0 in flight", l)
	}
	if stats.Cache.Hits < 1 || stats.Cache.HitRatio <= 0 {
		t.Errorf("cache = %+v, want at least one hit from the repeats", stats.Cache)
	}

	// The windowed quantiles are also exported as /metrics gauges.
	if v := metric(t, hs.URL, `rnuca_job_latency_quantile_seconds{kind="sim",q="p50"}`); v <= 0 {
		t.Errorf("p50 quantile gauge = %v, want > 0", v)
	}
	if v := metric(t, hs.URL, `rnuca_job_queue_wait_quantile_seconds{kind="sim",q="max"}`); v < 0 {
		t.Errorf("queue-wait max gauge = %v, want >= 0", v)
	}

	// Writes are refused.
	wr, err := http.Post(hs.URL+"/v1/stats", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	wr.Body.Close()
	if wr.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("POST /v1/stats: %s, want 405", wr.Status)
	}
}

// TestLatencyTrackerConcurrency hammers one tracker from many
// goroutines — window creation, observation, rotation and snapshot
// races across labels — for the race detector, and checks that every
// observation and SLO burn lands.
func TestLatencyTrackerConcurrency(t *testing.T) {
	var clockMu sync.Mutex
	now := time.Unix(1_700_000_000, 0)
	lt := newLatencyTracker(time.Second)
	lt.now = func() time.Time {
		clockMu.Lock()
		defer clockMu.Unlock()
		return now
	}
	kinds := []string{"sim", "convert", "figure"}
	const goroutines, perG = 8, 500
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				kind := kinds[(g+i)%len(kinds)]
				sec := 0.5 * float64(i%4) // one in four exceeds the 1s SLO
				lt.observeJob(kind, JobDone, sec)
				lt.observeQueueWait(kind, sec)
				lt.observeHTTP("/v1/jobs/{id}", sec)
				if i%100 == 0 {
					lt.stats()
					// 40 one-second steps in all: sub-windows rotate, and
					// nothing reaches the window's minute.
					clockMu.Lock()
					now = now.Add(time.Second)
					clockMu.Unlock()
				}
			}
		}(g)
	}
	wg.Wait()

	jobs, queueWait, httpWait := lt.stats()
	var count, counted, breached, waits uint64
	for _, kind := range kinds {
		ks := jobs[kind]
		count += ks.Latency.Count
		counted += ks.SLO.Counted
		breached += ks.SLO.Breached
		waits += queueWait[kind].Count
	}
	const total = goroutines * perG
	if count != total || waits != total || httpWait["/v1/jobs/{id}"].Count != total {
		t.Errorf("windowed counts: jobs %d, queue wait %d, http %d; want %d each",
			count, waits, httpWait["/v1/jobs/{id}"].Count, total)
	}
	if counted != total || breached != total/4 {
		t.Errorf("SLO burn: %d counted, %d breached; want %d, %d", counted, breached, total, total/4)
	}
}

// Without a configured SLO the stats omit SLO blocks entirely.
func TestStatsNoSLO(t *testing.T) {
	_, hs, _ := newTestServer(t, 1)
	fin := waitJob(t, hs.URL, postJob(t, hs.URL, `{"input":{"corpus":"oltp"},"designs":["R"]}`).ID)
	if fin.State != JobDone {
		t.Fatalf("job: %s (%s)", fin.State, fin.Error)
	}
	var stats StatsResponse
	resp, err := http.Get(hs.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	if stats.SLOSeconds != 0 {
		t.Errorf("slo_seconds = %v, want omitted", stats.SLOSeconds)
	}
	if sim, ok := stats.Jobs["sim"]; !ok || sim.SLO != nil {
		t.Errorf("jobs[sim] = %+v (present %v), want latency without SLO", sim, ok)
	}
}

// The HTTP middleware labels every request with a normalized route —
// IDs and digests collapse to placeholders so the label set is
// bounded.
func TestRouteLabel(t *testing.T) {
	for _, tc := range []struct{ path, want string }{
		{"/v1/jobs", "/v1/jobs"},
		{"/v1/jobs/j-abc123", "/v1/jobs/{id}"},
		{"/v1/jobs/j-abc123/events", "/v1/jobs/{id}/events"},
		{"/v1/jobs/j-abc123/trace", "/v1/jobs/{id}/trace"},
		{"/v1/jobs/j-abc123/timeline", "/v1/jobs/{id}/timeline"},
		{"/v1/jobs/j-abc123/bogus", "other"},
		{"/v1/corpora", "/v1/corpora"},
		{"/v1/corpora/gc", "/v1/corpora/gc"},
		{"/v1/corpora/sha256:deadbeef", "/v1/corpora/{ref}"},
		{"/v1/corpora/a/b", "other"},
		{"/v1/stats", "/v1/stats"},
		{"/metrics", "/metrics"},
		{"/healthz", "/healthz"},
		{"/readyz", "/readyz"},
		{"/favicon.ico", "other"},
	} {
		if got := routeLabel(tc.path); got != tc.want {
			t.Errorf("routeLabel(%q) = %q, want %q", tc.path, got, tc.want)
		}
	}
}

// Every handled request lands in the per-route counter with its
// status code, and in the per-route duration histogram.
func TestHTTPMiddlewareMetrics(t *testing.T) {
	_, hs, _ := newTestServer(t, 1)
	if resp, err := http.Get(hs.URL + "/healthz"); err != nil {
		t.Fatal(err)
	} else {
		resp.Body.Close()
	}
	if resp, err := http.Get(hs.URL + "/v1/jobs/nope"); err != nil {
		t.Fatal(err)
	} else {
		resp.Body.Close()
	}
	if v := metric(t, hs.URL, `rnuca_http_requests_total{route="/healthz",code="200"}`); v != 1 {
		t.Errorf("healthz request counter = %v, want 1", v)
	}
	if v := metric(t, hs.URL, `rnuca_http_requests_total{route="/v1/jobs/{id}",code="404"}`); v != 1 {
		t.Errorf("missing-job request counter = %v, want 1", v)
	}
	if v := metric(t, hs.URL, `rnuca_http_request_duration_seconds_count{route="/healthz"}`); v != 1 {
		t.Errorf("healthz duration count = %v, want 1", v)
	}
}
