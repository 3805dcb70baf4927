package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strings"
	"time"

	"rnuca/internal/corpus"
)

// maxBodyBytes bounds JSON request bodies; corpus uploads stream and
// are bounded by maxUploadBytes.
const (
	maxBodyBytes   = 1 << 20
	maxUploadBytes = 4 << 30
	// ssePeriod is how often an SSE watcher re-snapshots a job.
	ssePeriod = 100 * time.Millisecond
)

// Handler returns the service's HTTP mux:
//
//	POST   /v1/jobs              submit a job (JobSpec body)
//	GET    /v1/jobs              list jobs
//	GET    /v1/jobs/{id}         job status (SSE stream with
//	                             Accept: text/event-stream)
//	GET    /v1/jobs/{id}/events  SSE stream of status snapshots
//	GET    /v1/jobs/{id}/trace   per-stage span trace (JSON)
//	GET    /v1/jobs/{id}/timeline  flight-recorder timelines (JSON)
//	DELETE /v1/jobs/{id}         cancel
//	GET    /v1/corpora           list stored corpora
//	POST   /v1/corpora[?name=N]  upload a corpus (raw trace bytes)
//	POST   /v1/corpora/gc        collect unreferenced objects
//	GET    /v1/corpora/{ref}     manifest (?verify=1 re-checks content)
//	DELETE /v1/corpora/{ref}     drop a name (objects die via gc)
//	GET    /v1/stats             latency quantiles, saturation, SLO (JSON)
//	GET    /metrics              counters, Prometheus text format
//	GET    /healthz              liveness
//	GET    /readyz               readiness (503 once draining)
//
// Every route is wrapped in the latency middleware: per-route request
// counters, duration histograms, and windowed quantiles.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/jobs", s.handleJobs)
	mux.HandleFunc("/v1/jobs/", s.handleJob)
	mux.HandleFunc("/v1/corpora", s.handleCorpora)
	mux.HandleFunc("/v1/corpora/", s.handleCorpus)
	mux.HandleFunc("/v1/stats", s.handleStats)
	mux.HandleFunc("/metrics", s.handleMetrics)
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	})
	mux.HandleFunc("/readyz", func(w http.ResponseWriter, r *http.Request) {
		if !s.Ready() {
			writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "draining"})
			return
		}
		writeJSON(w, http.StatusOK, map[string]string{"status": "ready"})
	})
	return s.instrument(mux)
}

// writeJSON writes a JSON response.
func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

// writeError writes a JSON error envelope.
func writeError(w http.ResponseWriter, code int, err error) {
	writeJSON(w, code, map[string]string{"error": err.Error()})
}

func (s *Server) handleJobs(w http.ResponseWriter, r *http.Request) {
	switch r.Method {
	case http.MethodGet:
		writeJSON(w, http.StatusOK, map[string]any{"jobs": s.Jobs()})
	case http.MethodPost:
		var spec JobSpec
		body := http.MaxBytesReader(w, r.Body, maxBodyBytes)
		if err := json.NewDecoder(body).Decode(&spec); err != nil {
			// Decode failures (malformed JSON, unknown kinds) are
			// rejections too.
			s.reject()
			writeError(w, http.StatusBadRequest, fmt.Errorf("decoding job spec: %w", err))
			return
		}
		st, err := s.Submit(spec)
		switch {
		case errors.Is(err, ErrDraining):
			// Draining is terminal for this instance — no Retry-After;
			// the client should go elsewhere.
			writeError(w, http.StatusServiceUnavailable, err)
		case errors.Is(err, ErrBusy):
			// Queue pressure is transient: tell the client when to retry.
			w.Header().Set("Retry-After", "1")
			writeError(w, http.StatusTooManyRequests, err)
		case err != nil:
			writeError(w, http.StatusBadRequest, err)
		default:
			w.Header().Set("Location", "/v1/jobs/"+st.ID)
			writeJSON(w, http.StatusAccepted, st)
		}
	default:
		w.Header().Set("Allow", "GET, POST")
		writeError(w, http.StatusMethodNotAllowed, errors.New("use GET or POST"))
	}
}

func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	rest := strings.TrimPrefix(r.URL.Path, "/v1/jobs/")
	id, sub, _ := strings.Cut(rest, "/")
	if id == "" || (sub != "" && sub != "events" && sub != "trace" && sub != "timeline") {
		writeError(w, http.StatusNotFound, errors.New("not found"))
		return
	}
	if sub == "trace" {
		s.handleTrace(w, r, id)
		return
	}
	if sub == "timeline" {
		s.handleTimeline(w, r, id)
		return
	}
	switch r.Method {
	case http.MethodGet:
		if sub == "events" || strings.Contains(r.Header.Get("Accept"), "text/event-stream") {
			s.serveSSE(w, r, id)
			return
		}
		st, ok := s.Job(id)
		if !ok {
			writeError(w, http.StatusNotFound, fmt.Errorf("no job %q", id))
			return
		}
		writeJSON(w, http.StatusOK, st)
	case http.MethodDelete:
		st, ok := s.Cancel(id)
		if !ok {
			writeError(w, http.StatusNotFound, fmt.Errorf("no job %q", id))
			return
		}
		writeJSON(w, http.StatusOK, st)
	default:
		w.Header().Set("Allow", "GET, DELETE")
		writeError(w, http.StatusMethodNotAllowed, errors.New("use GET or DELETE"))
	}
}

// serveSSE streams a job's status as server-sent events: one "status"
// event per state change or progress step, a final "done" event
// carrying the terminal status (result included), then EOF. Watchers
// of already-finished jobs get the terminal event immediately.
func (s *Server) serveSSE(w http.ResponseWriter, r *http.Request, id string) {
	j, ok := s.jobByID(id)
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("no job %q", id))
		return
	}
	fl, ok := w.(http.Flusher)
	if !ok {
		writeError(w, http.StatusNotAcceptable, errors.New("streaming unsupported"))
		return
	}
	h := w.Header()
	h.Set("Content-Type", "text/event-stream")
	h.Set("Cache-Control", "no-cache")
	h.Set("Connection", "keep-alive")
	w.WriteHeader(http.StatusOK)

	send := func(event string, st JobStatus) {
		b, err := json.Marshal(st)
		if err != nil {
			return
		}
		fmt.Fprintf(w, "event: %s\ndata: %s\n\n", event, b)
		fl.Flush()
	}

	var last JobStatus
	first := true
	ticker := time.NewTicker(ssePeriod)
	defer ticker.Stop()
	// cancelDone wakes the loop once when the job's context ends (it is
	// then disarmed — a canceled-but-not-yet-terminal job must fall
	// back to the ticker, not spin on the closed channel).
	cancelDone := j.ctx.Done()
	for {
		st := j.status()
		if st.State.terminal() {
			send("done", st)
			return
		}
		if first || st.State != last.State || st.DoneRefs != last.DoneRefs ||
			st.Epochs != last.Epochs {
			send("status", st)
			last, first = st, false
		}
		select {
		case <-r.Context().Done():
			return
		case <-cancelDone:
			cancelDone = nil
		case <-ticker.C:
		}
	}
}

func (s *Server) handleCorpora(w http.ResponseWriter, r *http.Request) {
	if s.cfg.Store == nil {
		writeError(w, http.StatusNotImplemented, errors.New("no corpus store configured"))
		return
	}
	switch r.Method {
	case http.MethodGet:
		ents, err := s.cfg.Store.List()
		if err != nil {
			writeError(w, http.StatusInternalServerError, err)
			return
		}
		writeJSON(w, http.StatusOK, map[string]any{"corpora": ents})
	case http.MethodPost, http.MethodPut:
		// PUT is what `curl -T trace.rnt .../v1/corpora?name=x` sends;
		// uploads are content-addressed so both verbs mean the same.
		body := http.MaxBytesReader(w, r.Body, maxUploadBytes)
		ent, added, err := s.cfg.Store.AddReader(body, r.URL.Query().Get("name"))
		if err != nil {
			writeError(w, http.StatusBadRequest, err)
			return
		}
		code := http.StatusOK
		if added {
			code = http.StatusCreated
		}
		w.Header().Set("Location", "/v1/corpora/"+ent.Digest)
		writeJSON(w, code, ent)
	default:
		w.Header().Set("Allow", "GET, POST, PUT")
		writeError(w, http.StatusMethodNotAllowed, errors.New("use GET, POST, or PUT"))
	}
}

func (s *Server) handleCorpus(w http.ResponseWriter, r *http.Request) {
	if s.cfg.Store == nil {
		writeError(w, http.StatusNotImplemented, errors.New("no corpus store configured"))
		return
	}
	ref := strings.TrimPrefix(r.URL.Path, "/v1/corpora/")
	if ref == "" || strings.Contains(ref, "/") {
		writeError(w, http.StatusNotFound, errors.New("not found"))
		return
	}
	if ref == "gc" && r.Method == http.MethodPost {
		removed, err := s.cfg.Store.GC()
		if err != nil {
			writeError(w, http.StatusInternalServerError, err)
			return
		}
		writeJSON(w, http.StatusOK, map[string]any{"removed": removed})
		return
	}
	switch r.Method {
	case http.MethodGet:
		var ent corpus.Entry
		var err error
		if r.URL.Query().Get("verify") != "" {
			ent, err = s.cfg.Store.Verify(ref)
		} else {
			ent, err = s.cfg.Store.Get(ref)
		}
		switch {
		case errors.Is(err, corpus.ErrNotFound):
			writeError(w, http.StatusNotFound, err)
		case errors.Is(err, corpus.ErrCorrupt):
			writeJSON(w, http.StatusConflict, map[string]any{"error": err.Error(), "corpus": ent})
		case err != nil:
			writeError(w, http.StatusInternalServerError, err)
		default:
			writeJSON(w, http.StatusOK, ent)
		}
	case http.MethodDelete:
		if err := s.cfg.Store.DeleteRef(ref); err != nil {
			code := http.StatusBadRequest
			if errors.Is(err, corpus.ErrNotFound) {
				code = http.StatusNotFound
			}
			writeError(w, code, err)
			return
		}
		writeJSON(w, http.StatusOK, map[string]string{"deleted": ref})
	default:
		w.Header().Set("Allow", "GET, DELETE, POST")
		writeError(w, http.StatusMethodNotAllowed, errors.New("use GET, DELETE, or POST /v1/corpora/gc"))
	}
}

// handleMetrics renders the registry in the Prometheus text format.
// Every sample in one scrape comes from a single collection pass (the
// registry runs its OnCollect hooks under the render lock), so the
// lifecycle gauges and counters are mutually consistent.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, errors.New("use GET"))
		return
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	s.reg.WriteText(w)
}

// handleTrace serves GET /v1/jobs/{id}/trace: the job's buffered spans
// in completion order plus the per-stage aggregation.
func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request, id string) {
	if r.Method != http.MethodGet {
		w.Header().Set("Allow", "GET")
		writeError(w, http.StatusMethodNotAllowed, errors.New("use GET"))
		return
	}
	j, ok := s.jobByID(id)
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("no job %q", id))
		return
	}
	writeJSON(w, http.StatusOK, JobTrace{Job: id, TraceFile: j.trace.Export()})
}

// handleTimeline serves GET /v1/jobs/{id}/timeline: the job's
// flight-recorder timelines by design, empty until a simulation cell
// finishes (convert and figure jobs record none).
func (s *Server) handleTimeline(w http.ResponseWriter, r *http.Request, id string) {
	if r.Method != http.MethodGet {
		w.Header().Set("Allow", "GET")
		writeError(w, http.StatusMethodNotAllowed, errors.New("use GET"))
		return
	}
	j, ok := s.jobByID(id)
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("no job %q", id))
		return
	}
	writeJSON(w, http.StatusOK, JobTimeline{Job: id, Timelines: j.timelineSnapshot()})
}
