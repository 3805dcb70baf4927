package serve

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"rnuca"
	"rnuca/internal/corpus"
	"rnuca/internal/experiments"
	"rnuca/internal/ingest"
	"rnuca/internal/obs"
	"rnuca/internal/obs/flight"
	"rnuca/internal/ospage"
	"rnuca/internal/report"
)

// JobState is a job's lifecycle position.
type JobState string

// Job states. Terminal states are done, failed, and canceled.
const (
	JobQueued   JobState = "queued"
	JobRunning  JobState = "running"
	JobDone     JobState = "done"
	JobFailed   JobState = "failed"
	JobCanceled JobState = "canceled"
)

// terminal reports whether a state is final.
func (s JobState) terminal() bool {
	return s == JobDone || s == JobFailed || s == JobCanceled
}

// JobSpec is the request body of POST /v1/jobs.
//
// The canonical simulation payload is an rnuca.Job encoding (see
// rnuca.Job.MarshalJSON) — either inline at the top level (any body
// carrying an "input" key; "kind":"sim" is implied) or nested under
// "job". The service defines no simulation spec of its own: what the
// library runs is exactly what crosses the wire, and the result cache
// keys by the same bytes.
//
//	{"input":{"corpus":{"ref":"oltp"}},"designs":["R"],
//	 "options":{"warm":2000,"measure":4000,"batches":1}}
//
// Convert and figure jobs — service-side pipelines, not single
// simulations — keep kind-based spec objects.
//
//rnuca:wire
type JobSpec struct {
	// Kind is "sim" for canonical simulation payloads, "convert" or
	// "figure" for the service pipelines.
	Kind string
	// Job is the simulation request (kind sim).
	Job *rnuca.Job
	// Convert configures a convert job.
	Convert *ConvertSpec
	// Figure configures a figure job.
	Figure *FigureSpec
}

// UnmarshalJSON accepts the canonical rnuca.Job encoding (inline or
// under "job") and the convert/figure spec shapes.
func (s *JobSpec) UnmarshalJSON(b []byte) error {
	var probe struct {
		Kind    string          `json:"kind"`
		Input   json.RawMessage `json:"input"`
		Job     json.RawMessage `json:"job"`
		Convert *ConvertSpec    `json:"convert"`
		Figure  *FigureSpec     `json:"figure"`
	}
	if err := json.Unmarshal(b, &probe); err != nil {
		return err
	}
	switch probe.Kind {
	case "convert":
		if probe.Convert == nil {
			return fmt.Errorf("convert job needs a convert spec")
		}
		*s = JobSpec{Kind: "convert", Convert: probe.Convert}
		return nil
	case "figure":
		if probe.Figure == nil {
			return fmt.Errorf("figure job needs a figure spec")
		}
		*s = JobSpec{Kind: "figure", Figure: probe.Figure}
		return nil
	case "", "sim":
		// A canonical job nested under "job" (the status echo shape)
		// wins over an inline body, so echoed statuses re-decode.
		var raw json.RawMessage
		switch {
		case probe.Job != nil:
			raw = probe.Job
		case probe.Input != nil:
			raw = b
		default:
			return fmt.Errorf("job spec carries neither an input nor a kind (canonical rnuca.Job JSON, or kind sim/convert/figure)")
		}
		var job rnuca.Job
		if err := json.Unmarshal(raw, &job); err != nil {
			return err
		}
		*s = JobSpec{Kind: "sim", Job: &job}
		return nil
	}
	return fmt.Errorf("unknown job kind %q (sim, convert, figure)", probe.Kind)
}

// MarshalJSON echoes the spec with the simulation job in canonical
// form under "job"; the store-bound job is echoed so callers see
// exactly what ran and what the result was keyed by.
func (s JobSpec) MarshalJSON() ([]byte, error) {
	return json.Marshal(struct {
		Kind    string       `json:"kind,omitempty"`
		Job     *rnuca.Job   `json:"job,omitempty"`
		Convert *ConvertSpec `json:"convert,omitempty"`
		Figure  *FigureSpec  `json:"figure,omitempty"`
	}{s.Kind, s.Job, s.Convert, s.Figure})
}

// FigureSpec configures a figure job: the ingested-corpus table suite
// (Figure 2–5 characterization analyses plus the Figure 12 design
// comparison) over stored corpora. Scale fields left zero take the
// Quick defaults.
//
//rnuca:wire
type FigureSpec struct {
	// Corpora are the stored corpora the suite is built over.
	Corpora []string `json:"corpora"`
	// Designs are the designs the comparison sweeps (default: all
	// five, in the paper's order).
	Designs []string `json:"designs,omitempty"`
	// Scale sizes the build (experiments.Scale).
	Scale experiments.Scale `json:"scale"`
	// Shards fans trace decoding per replay (execution hint).
	Shards int `json:"shards,omitempty"`
}

// ConvertSpec configures a convert job: ingest foreign trace files
// (which must live under the server's configured ingest directory)
// into the corpus store (see internal/ingest for the field semantics;
// zero values take the converter's defaults).
//
//rnuca:wire
type ConvertSpec struct {
	Inputs     []string `json:"inputs"`
	Format     string   `json:"format,omitempty"`
	Cores      int      `json:"cores,omitempty"`
	Interleave string   `json:"interleave,omitempty"`
	Stride     int      `json:"stride,omitempty"`
	Classify   string   `json:"classify,omitempty"`
	MaxPages   int      `json:"max_pages,omitempty"`
	PageBytes  int      `json:"page_bytes,omitempty"`
	Busy       int      `json:"busy,omitempty"`
	OffChipMLP float64  `json:"offchip_mlp,omitempty"`
	// Workload names the converted corpus; Name is the store reference
	// to bind (both default from the input).
	Workload string `json:"workload,omitempty"`
	Name     string `json:"name,omitempty"`
}

// ingestOptions converts to converter options, refusing a page size
// the converter would (zero takes its default).
func (c *ConvertSpec) ingestOptions() (ingest.Options, error) {
	opt := ingest.Options{
		Format:     c.Format,
		Cores:      c.Cores,
		Stride:     c.Stride,
		MaxPages:   c.MaxPages,
		PageBytes:  c.PageBytes,
		Busy:       c.Busy,
		OffChipMLP: c.OffChipMLP,
		Workload:   c.Workload,
	}
	if c.PageBytes != 0 {
		if err := ospage.CheckPageBytes(c.PageBytes); err != nil {
			return opt, err
		}
	}
	var err error
	if c.Interleave != "" {
		if opt.Interleave, err = ingest.ParseInterleaveMode(c.Interleave); err != nil {
			return opt, err
		}
	}
	if c.Classify != "" {
		if opt.Classify, err = ingest.ParseClassifyMode(c.Classify); err != nil {
			return opt, err
		}
	}
	return opt, nil
}

// JobResult is a finished job's payload; which fields are set depends
// on the kind.
//
//rnuca:wire
type JobResult struct {
	// Result is a single-design simulation's measured performance.
	Result *rnuca.Result `json:"result,omitempty"`
	// Results maps design IDs to results for multi-design jobs.
	Results map[string]rnuca.Result `json:"results,omitempty"`
	// Corpus is the store entry a convert job produced.
	Corpus *corpus.Entry `json:"corpus,omitempty"`
	// Tables are a figure job's rendered table set.
	Tables []*report.Table `json:"tables,omitempty"`
	// Cache reports how each simulation cell was satisfied
	// ("hit", "miss", "shared"), keyed by design (or "figure" for the
	// whole-build entry).
	Cache map[string]string `json:"cache,omitempty"`
}

// JobTrace is the GET /v1/jobs/{id}/trace payload: the job's span
// export (spans, per-stage aggregation, dropped count) beside its ID.
//
//rnuca:wire
type JobTrace struct {
	Job string `json:"job"`
	obs.TraceFile
}

// JobTimeline is the GET /v1/jobs/{id}/timeline payload: the job's
// flight-recorder timelines keyed by design ID. Empty until a
// simulation cell finishes; cells satisfied from the result cache
// carry the timeline their original execution recorded.
//
//rnuca:wire
type JobTimeline struct {
	Job       string                      `json:"job"`
	Timelines map[string]*flight.Timeline `json:"timelines,omitempty"`
}

// JobStatus is the API view of a job.
//
//rnuca:wire
type JobStatus struct {
	ID       string     `json:"id"`
	Kind     string     `json:"kind"`
	State    JobState   `json:"state"`
	Created  time.Time  `json:"created"`
	Started  *time.Time `json:"started,omitempty"`
	Finished *time.Time `json:"finished,omitempty"`
	// DoneRefs/TotalRefs report per-engine simulation progress when the
	// job is running. A job's engines (its batches and its designs) run
	// concurrently, each counting from zero, and the largest count
	// wins, so the numbers are approximate for multi-cell jobs. A job
	// that joined another job's identical in-flight computation
	// (cache outcome "shared") reports no per-ref progress — the
	// engine belongs to the flight's starter.
	DoneRefs  int64 `json:"done_refs,omitempty"`
	TotalRefs int64 `json:"total_refs,omitempty"`
	// Epochs counts the flight-recorder epochs the job's executing
	// cells have closed so far; Epoch is the most recently closed one
	// (both live on the SSE stream). Like per-ref progress, cells
	// satisfied or shared from the result cache close no epochs here —
	// the recorder belongs to the executing engine.
	Epochs int           `json:"epochs,omitempty"`
	Epoch  *flight.Epoch `json:"epoch,omitempty"`
	Error  string        `json:"error,omitempty"`
	Result *JobResult    `json:"result,omitempty"`
	Spec   JobSpec       `json:"spec"`
}

// job is the server-side job record. The spec is normalized at
// submit: simulation jobs carry their store-bound rnuca.Job, figure
// jobs their resolved corpora, so the executing worker never
// re-resolves a name that may have moved.
type job struct {
	id      string
	spec    JobSpec
	created time.Time

	corpora []resolvedCorpus // figure jobs

	//rnuca:ctx-ok the job IS the lifecycle: ctx is created at submit, canceled at Cancel/shutdown, and scopes the whole run
	ctx    context.Context
	cancel context.CancelFunc

	// trace collects the job's per-stage spans; j.ctx carries it so
	// library code (rnuca.Job, the campaign) records into it without
	// knowing about the server. queued is the job.queue span, opened at
	// submit and ended when a worker dequeues the job.
	trace  *obs.Trace
	queued *obs.Span

	gauge rnuca.ProgressGauge

	mu       sync.Mutex
	state    JobState   // guarded by mu
	started  time.Time  // guarded by mu
	finished time.Time  // guarded by mu
	err      string     // guarded by mu
	result   *JobResult // guarded by mu
	// Flight-recorder state: epochs counts closed epochs across the
	// job's executing cells, lastEpoch is the newest, and timelines
	// holds each finished cell's full timeline by design ID.
	epochs    int                         // guarded by mu
	lastEpoch *flight.Epoch               // guarded by mu
	timelines map[string]*flight.Timeline // guarded by mu
}

type resolvedCorpus struct {
	ref    string
	digest string
}

// newJobID returns a fresh random job ID.
func newJobID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		panic(fmt.Sprintf("serve: job id entropy: %v", err))
	}
	return "j" + hex.EncodeToString(b[:])
}

// status snapshots the job for the API.
func (j *job) status() JobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	done, total := j.gauge.Progress()
	st := JobStatus{
		ID:        j.id,
		Kind:      j.spec.Kind,
		State:     j.state,
		Created:   j.created,
		DoneRefs:  done,
		TotalRefs: total,
		Epochs:    j.epochs,
		Epoch:     j.lastEpoch,
		Error:     j.err,
		Result:    j.result,
		Spec:      j.spec,
	}
	if !j.started.IsZero() {
		t := j.started
		st.Started = &t
	}
	if !j.finished.IsZero() {
		t := j.finished
		st.Finished = &t
	}
	return st
}

// setRunning transitions queued -> running.
func (j *job) setRunning() {
	j.mu.Lock()
	j.state = JobRunning
	j.started = time.Now()
	j.mu.Unlock()
}

// finish records a terminal state.
func (j *job) finish(state JobState, res *JobResult, err error) {
	j.mu.Lock()
	j.state = state
	j.finished = time.Now()
	j.result = res
	if err != nil {
		j.err = err.Error()
	}
	j.mu.Unlock()
}

// observeEpoch publishes a freshly closed flight epoch on the job's
// live status; the SSE stream keys change detection off the count.
// Called synchronously from the engine goroutine, so it must stay
// cheap.
func (j *job) observeEpoch(e flight.Epoch) {
	j.mu.Lock()
	j.epochs++
	j.lastEpoch = &e
	j.mu.Unlock()
}

// setTimeline stores a finished cell's timeline under its design ID.
func (j *job) setTimeline(design string, tl *flight.Timeline) {
	if tl == nil {
		return
	}
	j.mu.Lock()
	if j.timelines == nil {
		j.timelines = map[string]*flight.Timeline{}
	}
	j.timelines[design] = tl
	j.mu.Unlock()
}

// timelineSnapshot copies the design→timeline map for the API. The
// timelines themselves are immutable once recorded, so sharing the
// pointers is safe.
func (j *job) timelineSnapshot() map[string]*flight.Timeline {
	j.mu.Lock()
	defer j.mu.Unlock()
	if len(j.timelines) == 0 {
		return nil
	}
	out := make(map[string]*flight.Timeline, len(j.timelines))
	for k, v := range j.timelines {
		out[k] = v
	}
	return out
}

// validate resolves and checks a spec against the server's catalog and
// corpus store, normalizing the job's spec in place.
func (s *Server) validate(j *job) error {
	spec := &j.spec
	switch {
	case spec.Kind == "sim":
		if spec.Job == nil {
			return fmt.Errorf("%s job carries no simulation", spec.Kind)
		}
		job := *spec.Job
		if err := job.Input.Err(); err != nil {
			return err
		}
		switch job.Input.Kind() {
		case rnuca.InputCorpus:
			if s.cfg.Store == nil {
				return fmt.Errorf("no corpus store configured (-corpus)")
			}
			var err error
			if job, err = job.Bind(s.cfg.Store); err != nil {
				return err
			}
			if len(job.Designs) == 0 {
				// A replay without an explicit design defaults to the
				// corpus's recording design.
				digest, err := job.Input.Digest()
				if err != nil {
					return err
				}
				ent, err := s.cfg.Store.Get(digest)
				if err != nil {
					return err
				}
				id := ent.Design
				if id == "" {
					id = "R"
				}
				job.Designs = []rnuca.DesignID{rnuca.DesignID(id)}
			}
		case rnuca.InputWorkload:
			if len(job.Designs) == 0 {
				job.Designs = []rnuca.DesignID{rnuca.DesignRNUCA}
			}
		case rnuca.InputTrace:
			return fmt.Errorf("path-backed trace inputs are not accepted over the API; upload the trace to the corpus store and reference it")
		}
		if err := job.Validate(); err != nil {
			return err
		}
		spec.Job = &job
	case spec.Kind == "convert":
		if s.cfg.Store == nil {
			return fmt.Errorf("convert jobs need a corpus store (-corpus)")
		}
		if s.cfg.IngestDir == "" {
			return fmt.Errorf("convert jobs are disabled: no ingest directory configured (-ingest)")
		}
		if spec.Convert == nil || len(spec.Convert.Inputs) == 0 {
			return fmt.Errorf("convert job needs convert.inputs")
		}
		for _, in := range spec.Convert.Inputs {
			if err := underDir(s.cfg.IngestDir, in); err != nil {
				return err
			}
		}
		if _, err := spec.Convert.ingestOptions(); err != nil {
			return err
		}
	case spec.Kind == "figure":
		fig := spec.Figure
		if fig == nil || len(fig.Corpora) == 0 {
			return fmt.Errorf("figure job needs corpora")
		}
		for _, ref := range fig.Corpora {
			ent, err := s.resolveCorpus(ref)
			if err != nil {
				return err
			}
			j.corpora = append(j.corpora, resolvedCorpus{ref: ref, digest: ent.Digest})
		}
		for _, f := range []struct {
			name string
			v    int
		}{
			{"warm", fig.Scale.Warm}, {"measure", fig.Scale.Measure},
			{"batches", fig.Scale.Batches}, {"trace_refs", fig.Scale.TraceRefs},
			{"shards", fig.Shards},
		} {
			if f.v < 0 {
				return fmt.Errorf("figure %s must not be negative (got %d)", f.name, f.v)
			}
		}
		if _, err := parseDesigns(fig.Designs); err != nil {
			return err
		}
	default:
		return fmt.Errorf("unknown job kind %q (sim, convert, figure)", spec.Kind)
	}
	return nil
}

// underDir rejects a convert input that escapes the configured ingest
// directory — the API is unauthenticated, so a job must never make
// the server open an arbitrary path.
func underDir(root, path string) error {
	absRoot, err := filepath.Abs(root)
	if err != nil {
		return fmt.Errorf("resolving ingest dir: %w", err)
	}
	abs, err := filepath.Abs(path)
	if err != nil {
		return fmt.Errorf("resolving input %q: %w", path, err)
	}
	rel, err := filepath.Rel(absRoot, abs)
	if err != nil || rel == ".." || strings.HasPrefix(rel, ".."+string(filepath.Separator)) {
		return fmt.Errorf("input %q is outside the ingest directory %s", path, root)
	}
	return nil
}

// resolveCorpus fetches a store entry by reference.
func (s *Server) resolveCorpus(ref string) (corpus.Entry, error) {
	if s.cfg.Store == nil {
		return corpus.Entry{}, fmt.Errorf("no corpus store configured (-corpus)")
	}
	if ref == "" {
		return corpus.Entry{}, fmt.Errorf("missing corpus reference")
	}
	return s.cfg.Store.Get(ref)
}

// parseDesigns parses a design list, defaulting to all five.
func parseDesigns(ss []string) ([]rnuca.DesignID, error) {
	if len(ss) == 0 {
		return rnuca.AllDesigns(), nil
	}
	out := make([]rnuca.DesignID, 0, len(ss))
	for _, s := range ss {
		id := rnuca.DesignID(s)
		ok := false
		for _, d := range rnuca.AllDesigns() {
			if id == d {
				ok = true
			}
		}
		if !ok {
			return nil, fmt.Errorf("unknown design %q (P, A, S, R, I)", s)
		}
		out = append(out, id)
	}
	return out, nil
}
