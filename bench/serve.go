package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"time"

	"rnuca"
	"rnuca/internal/obs"
	"rnuca/internal/serve"
	"rnuca/internal/sim"
	"rnuca/internal/workload"
)

// cachedResubmits is how many closed-loop resubmits of a finished job
// measure the serve tier's fixed cost (every one a result-cache hit).
const cachedResubmits = 200

// tracedColdCells is how many of the served jobs a traced serve-cold run
// re-simulates in traced cells (each re-pays the cold set-up).
const tracedColdCells = 4

// openLoop fires n arrivals on a fixed schedule — arrival i is due at
// start+i*interval whatever the earlier arrivals are doing — each in its
// own goroutine, and returns once all have finished, with how late each
// arrival started relative to its due time. An arrival measures its own
// latency from due, so a stall in the generator counts against the
// requests it delays. Arrivals not yet started when ctx ends are dropped.
func openLoop(ctx context.Context, start time.Time, n int, interval time.Duration, arrive func(i int, due time.Time)) []time.Duration {
	var late []time.Duration
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		due := start.Add(time.Duration(i) * interval)
		if d := time.Until(due); d > 0 {
			t := time.NewTimer(d)
			select {
			case <-ctx.Done():
				t.Stop()
				wg.Wait()
				return late
			case <-t.C:
			}
		}
		late = append(late, time.Since(due))
		wg.Add(1)
		go func(i int, due time.Time) {
			defer wg.Done()
			arrive(i, due)
		}(i, due)
	}
	wg.Wait()
	return late
}

// client talks to the in-process server the way a service user does:
// POST the canonical job, follow its SSE stream to the terminal event.
type client struct {
	base string
	http *http.Client
}

func newClient(base string) *client {
	tr := &http.Transport{MaxConnsPerHost: runtime.NumCPU(), MaxIdleConnsPerHost: runtime.NumCPU()}
	return &client{base: base, http: &http.Client{Transport: tr}}
}

func (c *client) close() { c.http.CloseIdleConnections() }

// jobEcho is the part of serve.JobStatus the client reads.
type jobEcho struct {
	ID     string `json:"id"`
	State  string `json:"state"`
	Error  string `json:"error"`
	Result *struct {
		Result *rnuca.Result     `json:"result"`
		Cache  map[string]string `json:"cache"`
	} `json:"result"`
}

// submit POSTs a job; any status but 202 Accepted is a refusal.
func (c *client) submit(ctx context.Context, body []byte) (string, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+"/v1/jobs", bytes.NewReader(body))
	if err != nil {
		return "", err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.http.Do(req)
	if err != nil {
		return "", err
	}
	defer drain(resp.Body)
	if resp.StatusCode != http.StatusAccepted {
		return "", fmt.Errorf("submit refused: HTTP %d", resp.StatusCode)
	}
	var st jobEcho
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return "", fmt.Errorf("decoding submit echo: %w", err)
	}
	return st.ID, nil
}

// follow reads the job's SSE stream until its terminal "done" event.
func (c *client) follow(ctx context.Context, id string) (jobEcho, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/v1/jobs/"+id+"/events", nil)
	if err != nil {
		return jobEcho{}, err
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return jobEcho{}, err
	}
	defer drain(resp.Body)
	if resp.StatusCode != http.StatusOK {
		return jobEcho{}, fmt.Errorf("events: HTTP %d", resp.StatusCode)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 16<<20)
	event := ""
	for sc.Scan() {
		line := sc.Text()
		if v, ok := strings.CutPrefix(line, "event: "); ok {
			event = v
			continue
		}
		if v, ok := strings.CutPrefix(line, "data: "); ok && event == "done" {
			var st jobEcho
			if err := json.Unmarshal([]byte(v), &st); err != nil {
				return jobEcho{}, fmt.Errorf("decoding terminal event: %w", err)
			}
			return st, nil
		}
	}
	if err := sc.Err(); err != nil {
		return jobEcho{}, err
	}
	return jobEcho{}, fmt.Errorf("event stream of %s ended without a terminal event", id)
}

// run submits a job and follows it to a done state with a result,
// reporting the POST round trip separately.
func (c *client) run(ctx context.Context, body []byte) (st jobEcho, submit time.Duration, err error) {
	t := time.Now()
	id, err := c.submit(ctx, body)
	submit = time.Since(t)
	if err != nil {
		return jobEcho{}, submit, err
	}
	st, err = c.follow(ctx, id)
	if err != nil {
		return st, submit, err
	}
	st.ID = id
	if st.State != string(serve.JobDone) {
		return st, submit, fmt.Errorf("job %s ended %s: %s", id, st.State, st.Error)
	}
	if st.Result == nil || st.Result.Result == nil {
		return st, submit, fmt.Errorf("job %s is done without a result", id)
	}
	return st, submit, nil
}

func (c *client) getJSON(ctx context.Context, path string, v any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+path, nil)
	if err != nil {
		return err
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return err
	}
	defer drain(resp.Body)
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: HTTP %d", path, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

func drain(rc io.ReadCloser) {
	io.Copy(io.Discard, rc)
	rc.Close()
}

// coldJob is the CI load-smoke cold shape: a small OLTP-DB2 R-NUCA job
// whose unique seed guarantees a result-cache miss.
func coldJob(seed uint64) rnuca.Job {
	return rnuca.Job{
		Input:   rnuca.FromWorkload(withSeed(workload.OLTPDB2(), seed)),
		Designs: []rnuca.DesignID{rnuca.DesignRNUCA},
		Options: rnuca.RunOptions{Warm: coldWarm, Measure: coldMeasure},
	}
}

// arrival is one served job's client-side record.
type arrival struct {
	done    bool
	id      string
	latency time.Duration // due → terminal event
	submit  time.Duration // POST round trip
	result  sim.Result
}

// runServeCold: an in-process rnuca-serve behind httptest, with as many
// workers as CPUs, driven by an open loop of cold jobs at coldRate per
// second for -seconds. Job latency runs from each arrival's due time to
// its terminal SSE event.
func runServeCold(r *run) error {
	srv := serve.New(serve.Config{Workers: runtime.NumCPU()})
	ts := httptest.NewServer(srv.Handler())
	cl := newClient(ts.URL)
	defer func() {
		cl.close()
		ts.Close()
		srv.Close()
	}()

	golden, err := json.Marshal(goldenJob("serve-cold"))
	if err != nil {
		return err
	}
	st, _, err := cl.run(r.ctx, golden)
	got := map[string]sim.Result{}
	if err == nil {
		got["R"] = st.Result.Result.Result
	}
	r.verifyGolden("serve-cold", got, err)

	spec := func(i int) workload.Spec { return withSeed(workload.OLTPDB2(), r.inputSeed(i)) }
	if err := r.measureSetup(designCell(rnuca.DesignRNUCA, spec(0), coldWarm, coldMeasure)); err != nil {
		return err
	}

	n := coldRate * int(r.cfg.seconds/time.Second)
	bodies := make([][]byte, n)
	for i := range bodies {
		if bodies[i], err = json.Marshal(coldJob(r.inputSeed(i))); err != nil {
			return err
		}
	}
	var before, after serve.StatsResponse
	if err := cl.getJSON(r.ctx, "/v1/stats", &before); err != nil {
		return err
	}

	arrivals := make([]arrival, n)
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Now()
	late := openLoop(r.ctx, start, n, time.Second/coldRate, func(i int, due time.Time) {
		st, submit, err := cl.run(r.ctx, bodies[i])
		a := &arrivals[i]
		a.latency, a.submit, a.id = time.Since(due), submit, st.ID
		if err == nil {
			a.result = st.Result.Result.Result
			err = expectRefs("R", *st.Result.Result, coldMeasure)
		}
		if err != nil {
			r.fail("arrival %d: %v", i, err)
			return
		}
		a.done = true
		r.ok()
	})
	elapsed := time.Since(start)
	runtime.ReadMemStats(&m1)
	for i := len(late); i < n; i++ {
		r.fail("arrival %d never fired: %v", i, r.ctx.Err())
	}

	if err := cl.getJSON(r.ctx, "/v1/stats", &after); err != nil {
		return err
	}
	hits := after.Cache.Hits - before.Cache.Hits
	lookups := hits + after.Cache.Misses - before.Cache.Misses + after.Cache.Shared - before.Cache.Shared
	if hits > 0 {
		r.fail("%d of %d cold jobs hit the result cache; every cold job must simulate", hits, lookups)
	} else {
		r.ok()
	}

	var lat, submits []float64
	for _, a := range arrivals {
		if a.done {
			lat = append(lat, a.latency.Seconds())
			submits = append(submits, a.submit.Seconds())
		}
	}
	maxLate := 0.0
	for _, l := range late {
		if l.Seconds() > maxLate {
			maxLate = l.Seconds()
		}
	}
	r.extra(metric{Name: "loadgen.late_max_s", Unit: "s", Value: maxLate, N: len(late)})

	if !r.cfg.trace {
		r.set("job_p50_s", median(lat), len(lat))
		r.set("alloc_mb_per_job", float64(m1.TotalAlloc-m0.TotalAlloc)/(1<<20)/float64(n), n)
		r.extra(tailMetric("job_p90_s", lat, 0.9))
		return nil
	}

	// Per-layer: the serve tier's own numbers, then the library stages
	// of every served job from its span trace.
	var jobs []jobSpans
	var runs []float64
	runTotal := 0.0
	for _, a := range arrivals {
		if !a.done {
			continue
		}
		var jt serve.JobTrace
		if err := cl.getJSON(r.ctx, "/v1/jobs/"+a.id+"/trace", &jt); err != nil {
			return err
		}
		for _, sp := range jt.Spans {
			if sp.Name == "job.run" {
				jobs = append(jobs, jobSpans{start: sp.Start, end: spanEnd(sp), spans: jt.Spans})
				runs = append(runs, sp.Seconds)
				runTotal += sp.Seconds
			}
		}
	}
	r.setJobSpans(jobs)
	r.extra(metric{Name: "serve.submit_s", Unit: "s", Value: median(submits), N: len(submits)})
	qw := after.QueueWait["sim"]
	r.extra(metric{Name: "serve.queue_wait_p50_s", Unit: "s", Value: qw.P50, N: int(qw.Count)})
	r.extra(metric{Name: "serve.run_p50_s", Unit: "s", Value: median(runs), N: len(runs)})
	r.extra(metric{Name: "serve.utilization", Unit: "ratio", Value: runTotal / (float64(after.Workers) * elapsed.Seconds()), N: len(runs)})
	hitRatio := 0.0
	if lookups > 0 {
		hitRatio = float64(hits) / float64(lookups)
	}
	r.extra(metric{Name: "resultcache.hit_ratio", Unit: "ratio", Value: hitRatio, N: int(lookups)})

	var cached []float64
	for i := 0; i < cachedResubmits; i++ {
		t := time.Now()
		st, _, err := cl.run(r.ctx, bodies[0])
		d := time.Since(t)
		if err == nil && st.Result.Cache["R"] != "hit" {
			err = fmt.Errorf("resubmit of a finished job was a cache %q, not a hit", st.Result.Cache["R"])
		}
		if err != nil {
			r.fail("cached resubmit %d: %v", i, err)
			continue
		}
		r.ok()
		cached = append(cached, d.Seconds())
	}
	r.extra(metric{Name: "serve.cached_job_p50_s", Unit: "s", Value: median(cached), N: len(cached)})

	var groups []cellGroup
	for i := 0; i < tracedColdCells && i < n; i++ {
		if arrivals[i].done {
			groups = append(groups, cellGroup{
				ref:   arrivals[i].result,
				cells: []cell{designCell(rnuca.DesignRNUCA, spec(i), coldWarm, coldMeasure)},
			})
		}
	}
	return r.traceCells(groups)
}

// jobSpans is one job's wall-clock window and the spans recorded in it.
type jobSpans struct {
	start, end time.Time
	spans      []obs.SpanData
}

// containerSpans are the serve tier's own spans, which enclose the
// library's stages rather than account for any part of a job.
var containerSpans = map[string]bool{"job.queue": true, "job.run": true, "cache.lookup": true}

func spanEnd(sp obs.SpanData) time.Time {
	return sp.Start.Add(time.Duration(sp.Seconds * float64(time.Second)))
}

func (j jobSpans) seconds(name string) float64 {
	s := 0.0
	for _, sp := range j.spans {
		if sp.Name == name {
			s += sp.Seconds
		}
	}
	return s
}

// unattributed is the job's wall time that no stage span covers.
func (j jobSpans) unattributed() float64 {
	var ivs []interval
	for _, sp := range j.spans {
		if !containerSpans[sp.Name] {
			ivs = append(ivs, interval{sp.Start, spanEnd(sp)})
		}
	}
	return (j.end.Sub(j.start) - covered(j.start, j.end, ivs)).Seconds()
}

// setJobSpans reports the job-stage metrics: time in simulation cells
// and result folds per job, and the wall time no stage accounts for.
func (r *run) setJobSpans(jobs []jobSpans) {
	var cells, folds, setups, un []float64
	for _, j := range jobs {
		cells = append(cells, j.seconds("sim.cell"))
		folds = append(folds, j.seconds("result.fold"))
		setups = append(setups, j.seconds("replay.setup"))
		un = append(un, j.unattributed())
	}
	n := len(jobs)
	r.set("job.cell_s", median(cells), n)
	r.set("job.fold_s", median(folds), n)
	r.set("job.unattributed_s", median(un), n)
	if median(setups) > 0 {
		r.extra(metric{Name: "job.replay_setup_s", Unit: "s", Value: median(setups), N: n})
	}
}
