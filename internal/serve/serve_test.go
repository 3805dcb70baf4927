package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"fmt"

	"rnuca"
	"rnuca/internal/cellpool"
	"rnuca/internal/corpus"
	"rnuca/internal/experiments"
	"rnuca/internal/sim"
)

// testTrace records one small OLTP-DB2 trace per test binary run and
// shares it (recording costs a simulation; every test only reads it).
var (
	traceOnce sync.Once
	tracePath string
	traceErr  error
)

// The shared trace is long enough (warm+measure > the engine's
// progress tick of 8192 refs) that cancellation tests can land a
// context cancellation mid-simulation, not just between cells.
const (
	recWarm    = 3000
	recMeasure = 9000
)

func recordedTrace(t *testing.T) string {
	t.Helper()
	traceOnce.Do(func() {
		dir, err := os.MkdirTemp("", "rnuca-serve-test-")
		if err != nil {
			traceErr = err
			return
		}
		tracePath = filepath.Join(dir, "oltp.rnt")
		rec := rnuca.Job{
			Input:   rnuca.FromWorkload(rnuca.OLTPDB2()),
			Designs: []rnuca.DesignID{rnuca.DesignRNUCA},
			Options: rnuca.RunOptions{Warm: recWarm, Measure: recMeasure},
		}
		_, traceErr = rec.Record(context.Background(), tracePath)
	})
	if traceErr != nil {
		t.Fatalf("recording shared trace: %v", traceErr)
	}
	return tracePath
}

// newTestServer builds a server over a fresh store holding the shared
// trace, plus its httptest front end.
func newTestServer(t *testing.T, workers int) (*Server, *httptest.Server, corpus.Entry) {
	s, hs, ent, _ := newTestServerStore(t, workers)
	return s, hs, ent
}

func newTestServerStore(t *testing.T, workers int) (*Server, *httptest.Server, corpus.Entry, *corpus.Store) {
	t.Helper()
	st, err := corpus.Open(filepath.Join(t.TempDir(), "store"))
	if err != nil {
		t.Fatal(err)
	}
	ent, _, err := st.Add(recordedTrace(t), "oltp")
	if err != nil {
		t.Fatal(err)
	}
	s := New(Config{Store: st, Workers: workers})
	hs := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		hs.Close()
		s.Close()
	})
	return s, hs, ent, st
}

// postJob submits a spec over HTTP and returns the accepted status.
// spec may be a JobSpec, an rnuca.Job, a raw JSON string (posted
// verbatim, for pinning wire shapes), or anything else that marshals.
func postJob(t *testing.T, base string, spec any) JobStatus {
	t.Helper()
	var b []byte
	if s, ok := spec.(string); ok {
		b = []byte(s)
	} else {
		var err error
		if b, err = json.Marshal(spec); err != nil {
			t.Fatal(err)
		}
	}
	resp, err := http.Post(base+"/v1/jobs", "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		var e map[string]string
		json.NewDecoder(resp.Body).Decode(&e)
		t.Fatalf("submit: %s (%s)", resp.Status, e["error"])
	}
	var st JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

// waitJob polls a job to a terminal state.
func waitJob(t *testing.T, base, id string) JobStatus {
	t.Helper()
	deadline := time.Now().Add(120 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get(base + "/v1/jobs/" + id)
		if err != nil {
			t.Fatal(err)
		}
		var st JobStatus
		err = json.NewDecoder(resp.Body).Decode(&st)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if st.State.terminal() {
			return st
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatalf("job %s never finished", id)
	return JobStatus{}
}

// metric scrapes one value from /metrics.
func metric(t *testing.T, base, name string) float64 {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if rest, ok := strings.CutPrefix(line, name+" "); ok {
			v, err := strconv.ParseFloat(rest, 64)
			if err != nil {
				t.Fatalf("metric %s = %q", name, rest)
			}
			return v
		}
	}
	t.Fatalf("metric %s not exposed", name)
	return 0
}

// A replay job submitted over the API returns a Result identical to a
// direct Job.Run over the same trace — bit for bit, through the JSON
// round trip.
func TestReplayJobMatchesDirectCall(t *testing.T) {
	_, hs, ent, store := newTestServerStore(t, 2)

	st := postJob(t, hs.URL, `{"input":{"corpus":"oltp"},"designs":["R"]}`)
	fin := waitJob(t, hs.URL, st.ID)
	if fin.State != JobDone {
		t.Fatalf("job %s: %s (%s)", st.ID, fin.State, fin.Error)
	}
	if fin.Result == nil || fin.Result.Result == nil {
		t.Fatal("done job carries no result")
	}

	direct := rnuca.Job{
		Input:   rnuca.FromTrace(store.Path(ent.Digest)),
		Designs: []rnuca.DesignID{rnuca.DesignRNUCA},
	}
	want, err := direct.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	// The server's result crossed JSON; round-trip the direct result the
	// same way so both sides saw identical encoding (float64 JSON
	// encoding round-trips exactly, so this is a bit-for-bit check).
	b, _ := json.Marshal(want)
	var wantRT rnuca.Result
	if err := json.Unmarshal(b, &wantRT); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(*fin.Result.Result, wantRT) {
		t.Fatalf("served result differs from direct call:\n  served %+v\n  direct %+v", *fin.Result.Result, wantRT)
	}
	if fin.Result.Cache["R"] != "miss" {
		t.Fatalf("first replay outcome %q, want miss", fin.Result.Cache["R"])
	}

	// A second identical job — referencing the corpus by digest
	// instead of by name — is a pure cache hit with the same payload:
	// once bound to the store, both references key identically.
	st2 := postJob(t, hs.URL, rnuca.Job{
		Input:   rnuca.FromCorpusRef(ent.Digest),
		Designs: []rnuca.DesignID{rnuca.DesignRNUCA},
	})
	fin2 := waitJob(t, hs.URL, st2.ID)
	if fin2.State != JobDone || fin2.Result.Cache["R"] != "hit" {
		t.Fatalf("second replay: %s, cache %v", fin2.State, fin2.Result.Cache)
	}
	if !reflect.DeepEqual(fin2.Result.Result, fin.Result.Result) {
		t.Fatal("cache hit returned a different result")
	}
}

// N identical in-flight jobs run the simulation once: one cache miss,
// the rest shared or hits, every result identical.
func TestConcurrentIdenticalJobsSingleflight(t *testing.T) {
	_, hs, _ := newTestServer(t, 4)

	const n = 6
	ids := make([]string, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			st := postJob(t, hs.URL, `{"input":{"corpus":"oltp"},"designs":["S"]}`)
			ids[i] = st.ID
		}(i)
	}
	wg.Wait()

	var first *rnuca.Result
	for _, id := range ids {
		fin := waitJob(t, hs.URL, id)
		if fin.State != JobDone {
			t.Fatalf("job %s: %s (%s)", id, fin.State, fin.Error)
		}
		if first == nil {
			first = fin.Result.Result
		} else if !reflect.DeepEqual(fin.Result.Result, first) {
			t.Fatalf("job %s diverged", id)
		}
	}
	if misses := metric(t, hs.URL, "rnuca_result_cache_misses_total"); misses != 1 {
		t.Fatalf("%v cache misses for %d identical jobs, want exactly 1 simulation", misses, n)
	}
	if served := metric(t, hs.URL, "rnuca_result_cache_hits_total") +
		metric(t, hs.URL, "rnuca_result_cache_shared_total"); served != n-1 {
		t.Fatalf("hits+shared = %v, want %d", served, n-1)
	}
}

// A second figure build over an unchanged corpus digest performs zero
// simulation: no new cache misses, only hits — a 100%% hit rate,
// observable via /metrics.
func TestFigureSecondBuildFullyCached(t *testing.T) {
	_, hs, _ := newTestServer(t, 2)
	spec := `{"kind":"figure","figure":{"corpora":["oltp"],"scale":{"warm":1000,"measure":2000,"trace_refs":12000}}}`

	fin := waitJob(t, hs.URL, postJob(t, hs.URL, spec).ID)
	if fin.State != JobDone {
		t.Fatalf("figure build: %s (%s)", fin.State, fin.Error)
	}
	if len(fin.Result.Tables) != 5 {
		t.Fatalf("figure build produced %d tables, want 5", len(fin.Result.Tables))
	}
	missesAfterFirst := metric(t, hs.URL, "rnuca_result_cache_misses_total")
	hitsAfterFirst := metric(t, hs.URL, "rnuca_result_cache_hits_total")
	if missesAfterFirst == 0 {
		t.Fatal("first figure build simulated nothing")
	}

	fin2 := waitJob(t, hs.URL, postJob(t, hs.URL, spec).ID)
	if fin2.State != JobDone {
		t.Fatalf("second figure build: %s (%s)", fin2.State, fin2.Error)
	}
	if fin2.Result.Cache["figure"] != "hit" {
		t.Fatalf("second build outcome %v, want whole-build hit", fin2.Result.Cache)
	}
	misses := metric(t, hs.URL, "rnuca_result_cache_misses_total")
	hits := metric(t, hs.URL, "rnuca_result_cache_hits_total")
	if misses != missesAfterFirst {
		t.Fatalf("second build missed the cache %v times, want 0 (100%% hit rate)", misses-missesAfterFirst)
	}
	if hits <= hitsAfterFirst {
		t.Fatal("second build recorded no cache hits")
	}
	if !reflect.DeepEqual(fin2.Result.Tables, fin.Result.Tables) {
		t.Fatal("cached figure build returned different tables")
	}
}

// A figure job's campaign cells take the path a sim job's designs do
// (resultcache.Cache.Run): its trace lists one cache.lookup and one
// sim.cell span per design, every lookup a miss, and the refs counter
// rises by each computed cell's measured references.
func TestFigureJobTraceListsCells(t *testing.T) {
	_, hs, _ := newTestServer(t, 2)
	before := metric(t, hs.URL, "rnuca_engine_refs_simulated_total")
	st := postJob(t, hs.URL, `{"kind":"figure","figure":{"corpora":["oltp"],"scale":{"warm":1000,"measure":2000,"trace_refs":12000}}}`)
	if fin := waitJob(t, hs.URL, st.ID); fin.State != JobDone {
		t.Fatalf("figure build: %s (%s)", fin.State, fin.Error)
	}
	resp, err := http.Get(hs.URL + "/v1/jobs/" + st.ID + "/trace")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var tr JobTrace
	if err := json.NewDecoder(resp.Body).Decode(&tr); err != nil {
		t.Fatal(err)
	}
	counts := map[string]int{}
	for _, sp := range tr.Stages {
		counts[sp.Stage] = sp.Count
	}
	if counts["sim.cell"] != 5 || counts["cache.lookup"] != 5 {
		t.Fatalf("stages %v, want five sim.cell and five cache.lookup spans", counts)
	}
	designs := map[string]bool{}
	for _, sp := range tr.Spans {
		if sp.Name == "cache.lookup" {
			if sp.Attrs["outcome"] != "miss" {
				t.Errorf("cache.lookup %v, want a miss", sp.Attrs)
			}
			designs[sp.Attrs["design"]] = true
		}
	}
	if len(designs) != 5 {
		t.Errorf("lookups name designs %v, want five", designs)
	}
	if got := metric(t, hs.URL, "rnuca_engine_refs_simulated_total") - before; got != 5*2000 {
		t.Fatalf("refs counter rose by %v, want 5 x 2000", got)
	}
}

// SSE streaming: a watcher sees status events and a final "done" event
// carrying the result.
func TestJobSSE(t *testing.T) {
	_, hs, _ := newTestServer(t, 2)
	st := postJob(t, hs.URL, `{"input":{"corpus":"oltp"},"designs":["P"]}`)

	resp, err := http.Get(hs.URL + "/v1/jobs/" + st.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("content type %q", ct)
	}
	var event string
	var final JobStatus
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if rest, ok := strings.CutPrefix(line, "event: "); ok {
			event = rest
		}
		if rest, ok := strings.CutPrefix(line, "data: "); ok && event == "done" {
			if err := json.Unmarshal([]byte(rest), &final); err != nil {
				t.Fatal(err)
			}
			break
		}
	}
	if final.State != JobDone || final.Result == nil {
		t.Fatalf("SSE terminal event: %+v", final)
	}
}

// Canceling a running job stops the simulation mid-run and never
// caches the partial result. The job is submitted in the canonical
// Job JSON shape, so this exercises the context path end to end:
// DELETE -> job ctx -> flight ctx -> Job.Run's engine progress poll.
func TestCancelRunningJob(t *testing.T) {
	_, hs, _ := newTestServer(t, 1)
	// A generated run long enough that cancellation lands mid-flight.
	st := postJob(t, hs.URL,
		`{"input":{"workload":"OLTP-DB2"},"designs":["S"],"options":{"warm":100000,"measure":20000000,"batches":1}}`)
	waitRunning(t, hs.URL, st.ID)
	req, _ := http.NewRequest(http.MethodDelete, hs.URL+"/v1/jobs/"+st.ID, nil)
	if _, err := http.DefaultClient.Do(req); err != nil {
		t.Fatal(err)
	}
	canceledAt := time.Now()
	fin := waitJob(t, hs.URL, st.ID)
	if fin.State != JobCanceled {
		t.Fatalf("state %s, want canceled", fin.State)
	}
	// Mid-simulation, not after 20M refs: the engine polls the context
	// every few thousand references, so the stop must be prompt.
	if d := time.Since(canceledAt); d > 30*time.Second {
		t.Fatalf("cancellation took %v", d)
	}
	if misses := metric(t, hs.URL, "rnuca_result_cache_misses_total"); misses != 1 {
		t.Fatalf("misses %v", misses)
	}
	if entries := metric(t, hs.URL, "rnuca_result_cache_entries"); entries != 0 {
		t.Fatal("canceled partial result entered the cache")
	}
}

// waitRunning polls until a job reports the running state with
// simulation progress, so a subsequent cancel provably lands
// mid-simulation.
func waitRunning(t *testing.T, base, id string) {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get(base + "/v1/jobs/" + id)
		if err != nil {
			t.Fatal(err)
		}
		var st JobStatus
		err = json.NewDecoder(resp.Body).Decode(&st)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if st.State.terminal() {
			t.Fatalf("job %s finished (%s) before it could be canceled", id, st.State)
		}
		if st.State == JobRunning && st.DoneRefs > 0 {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("job %s never started running", id)
}

// Canceling a running figure job aborts the campaign mid-simulation:
// DELETE returns promptly with a canceled job, not after the whole
// table suite is built.
func TestCancelRunningFigureJob(t *testing.T) {
	_, hs, _ := newTestServer(t, 1)
	// Warm+measure spans the trace, keeping each engine past the
	// progress tick.
	st := postJob(t, hs.URL, JobSpec{Kind: "figure", Figure: &FigureSpec{
		Corpora: []string{"oltp"},
		Scale: experiments.Scale{
			Warm: recWarm, Measure: recMeasure, TraceRefs: 150_000,
		},
	}})
	waitRunning(t, hs.URL, st.ID)
	req, _ := http.NewRequest(http.MethodDelete, hs.URL+"/v1/jobs/"+st.ID, nil)
	if _, err := http.DefaultClient.Do(req); err != nil {
		t.Fatal(err)
	}
	canceledAt := time.Now()
	fin := waitJob(t, hs.URL, st.ID)
	if fin.State != JobCanceled {
		t.Fatalf("state %s (%s), want canceled", fin.State, fin.Error)
	}
	if fin.Result != nil {
		t.Fatal("canceled figure job carries a result")
	}
	if d := time.Since(canceledAt); d > 30*time.Second {
		t.Fatalf("figure cancellation took %v", d)
	}
}

// A canonical Job posted to the API produces a result bit-identical
// to executing the same Job directly — the round trip Job -> JSON ->
// HTTP -> worker -> Result loses nothing.
func TestCanonicalJobRoundTrip(t *testing.T) {
	_, hs, _, store := newTestServerStore(t, 2)

	job := rnuca.Job{
		Input:   rnuca.FromCorpus(store, "oltp").Window(1000, 8000),
		Designs: []rnuca.DesignID{rnuca.DesignShared},
		Options: rnuca.RunOptions{Warm: 1500, Measure: 6000},
	}
	st := postJob(t, hs.URL, job)
	if st.Kind != "sim" {
		t.Fatalf("canonical submission reported kind %q", st.Kind)
	}
	fin := waitJob(t, hs.URL, st.ID)
	if fin.State != JobDone || fin.Result == nil || fin.Result.Result == nil {
		t.Fatalf("job: %s (%s)", fin.State, fin.Error)
	}

	want, err := job.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	// The served result crossed JSON; round-trip the direct result the
	// same way so both sides saw identical encoding (float64 JSON
	// encoding round-trips exactly, so this is a bit-for-bit check).
	b, _ := json.Marshal(want)
	var wantRT rnuca.Result
	if err := json.Unmarshal(b, &wantRT); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(*fin.Result.Result, wantRT) {
		t.Fatalf("served result differs from direct Job.Run:\n  served %+v\n  direct %+v", *fin.Result.Result, wantRT)
	}
	if fin.Result.Cache["S"] != "miss" {
		t.Fatalf("first run outcome %q, want miss", fin.Result.Cache["S"])
	}

	// The same job sharded is the same cell: a pure cache hit.
	sharded := job
	sharded.Input = rnuca.FromCorpus(store, "oltp").Window(1000, 8000).Sharded(4)
	fin2 := waitJob(t, hs.URL, postJob(t, hs.URL, sharded).ID)
	if fin2.State != JobDone || fin2.Result.Cache["S"] != "hit" {
		t.Fatalf("sharded twin: %s, cache %v", fin2.State, fin2.Result.Cache)
	}
	if !reflect.DeepEqual(fin2.Result.Result, fin.Result.Result) {
		t.Fatal("sharded twin returned a different result")
	}
}

// Corpus endpoints: upload by body, manifest fetch, verify, ref
// deletion, and GC.
func TestCorpusEndpoints(t *testing.T) {
	_, hs, ent := newTestServer(t, 1)

	b, err := os.ReadFile(recordedTrace(t))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(hs.URL+"/v1/corpora?name=upload", "application/octet-stream", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	var up corpus.Entry
	json.NewDecoder(resp.Body).Decode(&up)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || up.Digest != ent.Digest {
		// Identical bytes: the object already exists, so 200 (not 201)
		// and the same digest.
		t.Fatalf("upload: %s, digest %s vs %s", resp.Status, up.Digest, ent.Digest)
	}

	// PUT is what `curl -T` sends; it must behave exactly like POST.
	req, err := http.NewRequest(http.MethodPut, hs.URL+"/v1/corpora?name=putup", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var putUp corpus.Entry
	json.NewDecoder(resp.Body).Decode(&putUp)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || putUp.Digest != ent.Digest {
		t.Fatalf("PUT upload: %s, digest %s vs %s", resp.Status, putUp.Digest, ent.Digest)
	}

	resp, err = http.Get(hs.URL + "/v1/corpora/upload?verify=1")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("verify: %s", resp.Status)
	}

	req, _ = http.NewRequest(http.MethodDelete, hs.URL+"/v1/corpora/upload", nil)
	if resp, err = http.DefaultClient.Do(req); err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("delete ref: %v %v", err, resp.Status)
	}
	resp.Body.Close()

	// Still referenced by "oltp" (and the derived name): GC keeps it.
	resp, err = http.Post(hs.URL+"/v1/corpora/gc", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	var gc struct {
		Removed []corpus.Entry `json:"removed"`
	}
	json.NewDecoder(resp.Body).Decode(&gc)
	resp.Body.Close()
	if len(gc.Removed) != 0 {
		t.Fatalf("gc removed referenced objects: %+v", gc.Removed)
	}
	if v := metric(t, hs.URL, "rnuca_corpus_objects"); v != 1 {
		t.Fatalf("corpus objects %v", v)
	}
}

// Draining: no new jobs are accepted; queued and running work
// completes.
func TestDrainRejectsNewJobs(t *testing.T) {
	s, hs, _ := newTestServer(t, 1)
	st := postJob(t, hs.URL, `{"input":{"corpus":"oltp"},"designs":["I"]}`)

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	drained := make(chan error, 1)
	go func() { drained <- s.Drain(ctx) }()

	// Submissions during the drain are refused with 503.
	deadline := time.Now().Add(5 * time.Second)
	for {
		b := []byte(`{"input":{"corpus":"oltp"}}`)
		resp, err := http.Post(hs.URL+"/v1/jobs", "application/json", bytes.NewReader(b))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode == http.StatusServiceUnavailable {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("drain never started refusing jobs (last %s)", resp.Status)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if err := <-drained; err != nil {
		t.Fatalf("drain: %v", err)
	}
	if fin, _ := s.Job(st.ID); fin.State != JobDone {
		t.Fatalf("pre-drain job: %s (%s)", fin.State, fin.Error)
	}
}

// Convert jobs ingest foreign traces from the configured ingest
// directory into the store — and refuse paths outside it.
func TestConvertJobRootedInIngestDir(t *testing.T) {
	st, err := corpus.Open(filepath.Join(t.TempDir(), "store"))
	if err != nil {
		t.Fatal(err)
	}
	ingestDir := t.TempDir()
	din := filepath.Join(ingestDir, "tiny.din")
	if err := os.WriteFile(din, []byte("2 401000\n0 10000000\n1 10000040\n2 401004\n0 10000080\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	outside := filepath.Join(t.TempDir(), "outside.din")
	if err := os.WriteFile(outside, []byte("2 401000\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	s := New(Config{Store: st, Workers: 1, IngestDir: ingestDir})
	hs := httptest.NewServer(s.Handler())
	t.Cleanup(func() { hs.Close(); s.Close() })

	fin := waitJob(t, hs.URL, postJob(t, hs.URL, JobSpec{
		Kind:    "convert",
		Convert: &ConvertSpec{Inputs: []string{din}, Cores: 2, Interleave: "stride", Name: "tiny"},
	}).ID)
	if fin.State != JobDone || fin.Result.Corpus == nil {
		t.Fatalf("convert job: %s (%s)", fin.State, fin.Error)
	}
	if fin.Result.Corpus.Refs != 5 || fin.Result.Corpus.Cores != 2 {
		t.Fatalf("converted entry %+v", fin.Result.Corpus)
	}
	if _, err := st.Get("tiny"); err != nil {
		t.Fatalf("converted corpus not in store: %v", err)
	}

	for _, bad := range []*ConvertSpec{
		{Inputs: []string{outside}},
		{Inputs: []string{filepath.Join(ingestDir, "..", "escape.din")}},
		// A page size the classifier cannot use is refused at submit;
		// it must never reach the convert worker, where it panicked.
		{Inputs: []string{din}, PageBytes: 3},
	} {
		b, _ := json.Marshal(JobSpec{Kind: "convert", Convert: bad})
		resp, err := http.Post(hs.URL+"/v1/jobs", "application/json", bytes.NewReader(b))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("convert spec %+v accepted: %s", *bad, resp.Status)
		}
	}
}

// Terminal jobs beyond the history bound are pruned, oldest first;
// live jobs always survive.
func TestJobHistoryPruning(t *testing.T) {
	st, err := corpus.Open(filepath.Join(t.TempDir(), "store"))
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := st.Add(recordedTrace(t), "oltp"); err != nil {
		t.Fatal(err)
	}
	s := New(Config{Store: st, Workers: 1, JobHistory: 3})
	hs := httptest.NewServer(s.Handler())
	t.Cleanup(func() { hs.Close(); s.Close() })

	var ids []string
	for i := 0; i < 6; i++ {
		// Distinct windows keep the jobs from collapsing into one
		// cache entry, so each runs (and finishes) on its own.
		st := postJob(t, hs.URL, fmt.Sprintf(
			`{"input":{"corpus":{"ref":"oltp","window_start":%d,"window_refs":3000}},"designs":["S"]}`, i))
		ids = append(ids, st.ID)
		waitJob(t, hs.URL, st.ID)
	}
	jobs := s.Jobs()
	if len(jobs) != 3 {
		t.Fatalf("%d jobs retained, want 3", len(jobs))
	}
	for _, id := range ids[:3] {
		if _, ok := s.Job(id); ok {
			t.Fatalf("old job %s survived pruning", id)
		}
	}
	for _, id := range ids[3:] {
		if _, ok := s.Job(id); !ok {
			t.Fatalf("recent job %s pruned", id)
		}
	}
}

// Bad specs are rejected at submission with 400 and counted as
// rejections.
func TestSubmitValidation(t *testing.T) {
	_, hs, _ := newTestServer(t, 1)
	// A BusyPerRef beyond the cap would panic in the generator's busy
	// draw on the sim path, which has no recover.
	busy := rnuca.OLTPDB2()
	busy.BusyPerRef = math.MaxInt
	busyJob, err := json.Marshal(rnuca.Job{Input: rnuca.FromWorkload(busy), Designs: []rnuca.DesignID{"R"}})
	if err != nil {
		t.Fatal(err)
	}
	specs := []string{
		`{}`,
		`{"kind":"teleport"}`,
		`{"kind":"figure"}`,
		`{"kind":"convert"}`,
		// Negative options would panic deep in the simulator; they
		// must be a 400, not a dead worker.
		`{"input":{"workload":"OLTP-DB2"},"designs":["R"],"options":{"instr_cluster_size":-1}}`,
		`{"input":{"corpus":"oltp"},"designs":["R"],"options":{"batches":-2}}`,
		`{"input":{"workload":"OLTP-DB2"},"designs":["R"],"options":{"warm":-1}}`,
		// Batches above 2^31-1 would make the batch loop unbounded.
		`{"input":{"workload":"OLTP-DB2"},"designs":["R"],"options":{"batches":1099511627776}}`,
		`{"kind":"figure","figure":{"corpora":["oltp"],"scale":{"trace_refs":-5}}}`,
		// A replay has no seed: a second batch would repeat the first.
		`{"input":{"corpus":"oltp"},"designs":["R"],"options":{"batches":2}}`,
		`{"kind":"figure","figure":{"corpora":["oltp"],"scale":{"batches":2}}}`,
		`{"kind":"figure","figure":{"corpora":["oltp"],"shards":-1}}`,
		// Bad references, designs, and encodings.
		`{"input":{"workload":"No-Such-WL"},"designs":["R"]}`,
		`{"input":{"workload":"OLTP-DB2"},"designs":["X"]}`,
		// A repeated design would run its cells once per copy.
		`{"input":{"workload":"OLTP-DB2"},"designs":["S","R","S"]}`,
		`{"input":{"corpus":{"ref":"no-such-corpus"}},"designs":["R"]}`,
		`{"v":99,"input":{"workload":"OLTP-DB2"},"designs":["R"]}`,
		`{"input":{"workload":"OLTP-DB2","corpus":"oltp"}}`,
		string(busyJob),
	}
	for _, spec := range specs {
		resp, err := http.Post(hs.URL+"/v1/jobs", "application/json", strings.NewReader(spec))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("spec %s accepted: %s", spec, resp.Status)
		}
	}
	if v := metric(t, hs.URL, "rnuca_jobs_rejected_total"); v != float64(len(specs)) {
		t.Fatalf("rejected %v, want %d", v, len(specs))
	}
}

// A job whose chassis the run could not build is refused at submit
// with 400, before any workload state is allocated: a 10,000,000-core
// spec must not reach workload.Streams.
func TestSubmitRefusesUnbuildableChassis(t *testing.T) {
	s, hs, _ := newTestServer(t, 1)
	cores := func(n int) rnuca.Workload {
		w := rnuca.OLTPDB2()
		w.Cores = n
		return w
	}
	cfg8 := sim.Config8()
	withCfg := func(edit func(*sim.Config)) rnuca.Job {
		c := sim.Config16()
		edit(&c)
		return rnuca.Job{Input: rnuca.FromWorkload(rnuca.OLTPDB2()), Options: rnuca.RunOptions{Config: &c}}
	}
	cases := []struct {
		name string
		job  rnuca.Job
		want string
	}{
		{"65 cores", rnuca.Job{Input: rnuca.FromWorkload(cores(65))}, "65 cores outside 1..64"},
		{"10000000 cores", rnuca.Job{Input: rnuca.FromWorkload(cores(10_000_000))}, "10000000 cores outside 1..64"},
		{"16 cores on Config8", rnuca.Job{Input: rnuca.FromWorkload(rnuca.OLTPDB2()),
			Options: rnuca.RunOptions{Config: &cfg8}}, "16-core input on a 8-core config"},
		{"instr cluster 3", rnuca.Job{Input: rnuca.FromWorkload(rnuca.OLTPDB2()),
			Options: rnuca.RunOptions{InstrClusterSize: 3}}, "not a power of two"},
		{"L2Ways 3", withCfg(func(c *sim.Config) { c.L2Ways = 3 }), "not divisible by ways*block 192"},
		{"TLBEntries 0", withCfg(func(c *sim.Config) { c.TLBEntries = 0 }), "0 TLB entries outside 1..4096"},
		{"LinkBytes 2^62", withCfg(func(c *sim.Config) { c.Link.LinkBytes = 1 << 62 }), "4611686018427387904-byte links above 2048"},
		{"LinkLatency 2^62", withCfg(func(c *sim.Config) { c.Link.LinkLatency = 1 << 62 }), "link latency of 4611686018427387904 cycles above 64"},
		{"RouterLatency 129", withCfg(func(c *sim.Config) { c.Link.RouterLatency = 129 }), "router latency of 129 cycles above 128"},
		{"1 TB L1", withCfg(func(c *sim.Config) { c.L1Bytes = 1 << 40 }), "above the caps"},
		{"1 TB L2 slice", withCfg(func(c *sim.Config) { c.L2SliceBytes = 1 << 40 }), "above the caps"},
		{"TLBEntries 2^28", withCfg(func(c *sim.Config) { c.TLBEntries = 1 << 28 }), "268435456 TLB entries outside 1..4096"},
		{"PageBytes 2^40", withCfg(func(c *sim.Config) { c.PageBytes = 1 << 40 }), "page size 1099511627776 above 524288"},
		{"VictimEntries 2^40", withCfg(func(c *sim.Config) { c.VictimEntries = 1 << 40 }), "victim cache size 1099511627776 above 1024"},
		{"1 GB blocks", withCfg(func(c *sim.Config) { c.BlockBytes = 1 << 30 }), "above the caps"},
		{"16 KB block on 8 KB page", withCfg(func(c *sim.Config) { c.BlockBytes = 16 << 10 }), "above the caps"},
		{"4 KB block on 1 KB page", withCfg(func(c *sim.Config) { c.BlockBytes, c.PageBytes = 4<<10, 1<<10 }),
			"4096-byte blocks exceed 1024-byte pages"},
		{"WindowCycles 2^63", withCfg(func(c *sim.Config) { c.WindowCycles = 1 << 63 }), "window of 9223372036854775808 cycles above 3200000"},
		{"Warm above 2^31-1", rnuca.Job{Input: rnuca.FromWorkload(rnuca.OLTPDB2()),
			Options: rnuca.RunOptions{Warm: math.MaxInt, Measure: 1}}, "Warm is 9223372036854775807, above 2147483647"},
	}
	for _, tc := range cases {
		tc.job.Designs = []rnuca.DesignID{rnuca.DesignRNUCA}
		body, err := json.Marshal(tc.job)
		if err != nil {
			t.Fatal(err)
		}
		resp := postRaw(t, hs.URL, string(body))
		var msg struct {
			Error string `json:"error"`
		}
		json.NewDecoder(resp.Body).Decode(&msg)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest || !strings.Contains(msg.Error, tc.want) {
			t.Errorf("%s: %s %q, want 400 mentioning %q", tc.name, resp.Status, msg.Error, tc.want)
		}
	}
	if submitted, _, _, _, rejected, _, _ := s.Metrics(); submitted != 0 || rejected != uint64(len(cases)) {
		t.Errorf("submitted %d, rejected %d; want 0, %d", submitted, rejected, len(cases))
	}
}

func TestMain(m *testing.M) {
	code := m.Run()
	if tracePath != "" {
		os.RemoveAll(filepath.Dir(tracePath))
	}
	os.Exit(code)
}

// scrapeMetrics fetches the whole /metrics body once.
func scrapeMetrics(t *testing.T, base string) string {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var b bytes.Buffer
	if _, err := b.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

// One replay plus one figure build light up the whole metrics surface:
// per-kind duration histograms, queue-wait observations, cache
// counters, corpus gauges, and the engine's refs counter — and a
// single scrape is internally consistent with the server's own ledger
// (every series comes from one locked snapshot, so the totals add up).
func TestMetricsEndToEnd(t *testing.T) {
	s, hs, _ := newTestServer(t, 2)

	fin := waitJob(t, hs.URL, postJob(t, hs.URL, `{"input":{"corpus":"oltp"},"designs":["R"]}`).ID)
	if fin.State != JobDone {
		t.Fatalf("replay: %s (%s)", fin.State, fin.Error)
	}
	fig := waitJob(t, hs.URL, postJob(t, hs.URL,
		`{"kind":"figure","figure":{"corpora":["oltp"],"scale":{"warm":1000,"measure":2000,"trace_refs":12000}}}`).ID)
	if fig.State != JobDone {
		t.Fatalf("figure: %s (%s)", fig.State, fig.Error)
	}

	body := scrapeMetrics(t, hs.URL)
	for _, line := range []string{
		`rnuca_job_duration_seconds_count{kind="sim",outcome="done"} 1`,
		`rnuca_job_duration_seconds_count{kind="figure",outcome="done"} 1`,
		`rnuca_job_queue_wait_seconds_count{kind="sim"} 1`,
		`rnuca_job_queue_wait_seconds_count{kind="figure"} 1`,
	} {
		if !strings.Contains(body, line+"\n") {
			t.Errorf("scrape lacks %q", line)
		}
	}
	if v := metric(t, hs.URL, "rnuca_result_cache_misses_total"); v == 0 {
		t.Error("no cache misses recorded after two simulating jobs")
	}
	if v := metric(t, hs.URL, "rnuca_engine_refs_simulated_total"); v == 0 {
		t.Error("engine refs counter never moved")
	}
	if v := metric(t, hs.URL, "rnuca_corpus_objects"); v != 1 {
		t.Errorf("corpus objects %v, want 1", v)
	}
	if v := metric(t, hs.URL, "rnuca_workers"); v != 2 {
		t.Errorf("workers %v, want 2", v)
	}

	// Consistency: the server is quiescent (both jobs terminal), so one
	// scrape must agree with the ledger exactly — no transient where
	// submitted != completed + queued + running.
	submitted, completed, failed, canceled, rejected, queued, running := s.Metrics()
	if queued != 0 || running != 0 || failed != 0 || canceled != 0 || rejected != 0 {
		t.Fatalf("ledger not quiescent: %d/%d/%d/%d/%d", failed, canceled, rejected, queued, running)
	}
	if submitted != 2 || completed != 2 {
		t.Fatalf("ledger submitted/completed = %d/%d, want 2/2", submitted, completed)
	}
	for name, want := range map[string]float64{
		"rnuca_jobs_submitted_total": float64(submitted),
		"rnuca_jobs_completed_total": float64(completed),
		"rnuca_jobs_queued":          0,
		"rnuca_jobs_running":         0,
	} {
		if v := metric(t, hs.URL, name); v != want {
			t.Errorf("%s = %v, ledger says %v", name, v, want)
		}
	}
}

// The trace endpoint returns a job's stage spans: a replay covers at
// least four distinct stages, and the queue + run spans account for
// the job's whole lifetime.
func TestJobTraceEndpoint(t *testing.T) {
	_, hs, _ := newTestServer(t, 1)
	st := postJob(t, hs.URL, `{"input":{"corpus":"oltp"},"designs":["S"]}`)
	fin := waitJob(t, hs.URL, st.ID)
	if fin.State != JobDone {
		t.Fatalf("job: %s (%s)", fin.State, fin.Error)
	}

	resp, err := http.Get(hs.URL + "/v1/jobs/" + st.ID + "/trace")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("trace: %s", resp.Status)
	}
	var tr JobTrace
	if err := json.NewDecoder(resp.Body).Decode(&tr); err != nil {
		t.Fatal(err)
	}
	if tr.Job != st.ID || tr.Dropped != 0 {
		t.Fatalf("trace header %+v", tr)
	}
	stages := map[string]float64{}
	for _, sp := range tr.Stages {
		stages[sp.Stage] = sp.Seconds
	}
	if len(stages) < 4 {
		t.Fatalf("trace covers %d stages (%v), want at least 4", len(stages), tr.Stages)
	}
	for _, name := range []string{"job.queue", "job.run", "cache.lookup", "sim.cell"} {
		if _, ok := stages[name]; !ok {
			t.Errorf("stage %s missing from trace (%v)", name, tr.Stages)
		}
	}

	// job.queue and job.run partition the job's lifetime: together they
	// must account for the created -> finished wall clock (10% slack,
	// floored for very fast runs where scheduler noise dominates).
	dur := fin.Finished.Sub(fin.Created).Seconds()
	covered := stages["job.queue"] + stages["job.run"]
	slack := 0.1 * dur
	if min := 0.010; slack < min {
		slack = min
	}
	if covered < dur-slack || covered > dur+slack {
		t.Fatalf("spans cover %.4fs of a %.4fs job", covered, dur)
	}

	// An unknown job 404s.
	resp2, err := http.Get(hs.URL + "/v1/jobs/nope/trace")
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown job trace: %s", resp2.Status)
	}
}

// A compare job's designs run together on the process-wide cell pool:
// with its one slot held, both designs' cells queue for it, and the
// job's trace export lists the wait as the cell.wait stage.
func TestCompareJobTraceListsCellWait(t *testing.T) {
	prev := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(prev)
	defer cellpool.SetWidth(1)()
	_, hs, _ := newTestServer(t, 1)
	rel, err := cellpool.Acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	st := postJob(t, hs.URL, `{"input":{"corpus":"oltp"},"designs":["P","S"]}`)
	deadline := time.Now().Add(10 * time.Second)
	for cellpool.Waiting() < 2 {
		if time.Now().After(deadline) {
			rel()
			t.Fatalf("%d cells waiting for the held slot, want 2", cellpool.Waiting())
		}
		time.Sleep(time.Millisecond)
	}
	rel()
	if fin := waitJob(t, hs.URL, st.ID); fin.State != JobDone {
		t.Fatalf("job: %s (%s)", fin.State, fin.Error)
	}
	resp, err := http.Get(hs.URL + "/v1/jobs/" + st.ID + "/trace")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var tr JobTrace
	if err := json.NewDecoder(resp.Body).Decode(&tr); err != nil {
		t.Fatal(err)
	}
	counts := map[string]int{}
	for _, sp := range tr.Stages {
		counts[sp.Stage] = sp.Count
	}
	if counts["cell.wait"] < 2 || counts["sim.cell"] != 2 || counts["cache.lookup"] != 2 {
		t.Fatalf("stages %v, want two cell.wait, sim.cell and cache.lookup spans", counts)
	}
}
