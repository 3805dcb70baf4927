package obs

import (
	"context"
	"sort"
	"sync"
	"time"
)

// DefaultTraceSpans bounds a Trace's span ring when NewTrace is given
// no capacity.
const DefaultTraceSpans = 1024

// SpanData is one finished span as exported over JSON.
//
//rnuca:wire
type SpanData struct {
	// Name is the stage name ("sim.cell", "job.queue", ...).
	Name string `json:"name"`
	// Start is the span's wall-clock start.
	Start time.Time `json:"start"`
	// Seconds is the span's duration.
	Seconds float64 `json:"seconds"`
	// Attrs are the span's attributes, if any.
	Attrs map[string]string `json:"attrs,omitempty"`
}

// StageTiming aggregates every span of one name: one row of the
// per-stage wall-clock breakdown in a TraceFile. Seconds sums the
// spans' durations; WallSeconds is the length of the union of their
// intervals, less than Seconds when spans of the stage overlap (cells
// running concurrently).
//
//rnuca:wire
type StageTiming struct {
	Stage       string  `json:"stage"`
	Seconds     float64 `json:"seconds"`
	WallSeconds float64 `json:"wall_seconds"`
	Count       int     `json:"count"`
}

// Trace is a bounded, concurrency-safe buffer of finished spans.
// Once capacity is reached the oldest spans are dropped (and counted),
// so a long-lived process cannot grow a trace without bound.
type Trace struct {
	mu      sync.Mutex
	cap     int        // set at construction, immutable after
	spans   []SpanData // guarded by mu
	dropped uint64     // guarded by mu
}

// NewTrace returns a trace holding up to capacity spans
// (DefaultTraceSpans when capacity <= 0).
func NewTrace(capacity int) *Trace {
	if capacity <= 0 {
		capacity = DefaultTraceSpans
	}
	return &Trace{cap: capacity}
}

func (t *Trace) add(s SpanData) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.spans) >= t.cap {
		drop := len(t.spans) - t.cap + 1
		t.spans = append(t.spans[:0], t.spans[drop:]...)
		t.dropped += uint64(drop)
	}
	t.spans = append(t.spans, s)
}

// Spans returns a copy of the buffered spans in completion order.
func (t *Trace) Spans() []SpanData {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]SpanData(nil), t.spans...)
}

// TraceFile is a trace's span export: the buffered spans in completion
// order, their per-stage aggregation, and how many early spans the
// bounded ring discarded. -trace-out files hold it, and serve's
// /v1/jobs/{id}/trace payload embeds it.
//
//rnuca:wire
type TraceFile struct {
	Spans   []SpanData    `json:"spans"`
	Stages  []StageTiming `json:"stages"`
	Dropped uint64        `json:"dropped,omitempty"`
}

// Export snapshots the trace. Stages aggregate the spans by name,
// ordered by each stage's first completion.
func (t *Trace) Export() TraceFile {
	t.mu.Lock()
	defer t.mu.Unlock()
	index := map[string]int{}
	var stages []StageTiming
	for _, s := range t.spans {
		i, ok := index[s.Name]
		if !ok {
			i = len(stages)
			index[s.Name] = i
			stages = append(stages, StageTiming{Stage: s.Name})
		}
		stages[i].Seconds += s.Seconds
		stages[i].Count++
	}
	// Walk the spans by start, extending each stage's union of
	// intervals; ends[i] is where stage i's union reaches so far.
	spans := append([]SpanData(nil), t.spans...)
	sort.SliceStable(spans, func(a, b int) bool { return spans[a].Start.Before(spans[b].Start) })
	ends := make([]time.Time, len(stages))
	for _, s := range spans {
		i, end := index[s.Name], s.Start.Add(time.Duration(s.Seconds*float64(time.Second)))
		if !end.After(ends[i]) {
			continue
		}
		if s.Start.Before(ends[i]) {
			stages[i].WallSeconds += end.Sub(ends[i]).Seconds()
		} else {
			stages[i].WallSeconds += s.Seconds
		}
		ends[i] = end
	}
	return TraceFile{Spans: append([]SpanData(nil), t.spans...), Stages: stages, Dropped: t.dropped}
}

type traceKey struct{}

// ContextWithTrace attaches a trace to a context; spans started under
// the returned context accumulate in it.
func ContextWithTrace(ctx context.Context, t *Trace) context.Context {
	if ctx == nil {
		//rnuca:ctx-ok nil-ctx convenience guard; the root exists only to carry the trace value
		ctx = context.Background()
	}
	return context.WithValue(ctx, traceKey{}, t)
}

// TraceFrom returns the context's trace, or nil.
func TraceFrom(ctx context.Context) *Trace {
	if ctx == nil {
		return nil
	}
	t, _ := ctx.Value(traceKey{}).(*Trace)
	return t
}

// Span is one in-flight stage measurement. A nil *Span (StartSpan
// without a trace in the context) is valid: every method no-ops, so
// instrumentation sites need no guards.
type Span struct {
	t     *Trace
	name  string
	start time.Time

	mu    sync.Mutex
	attrs map[string]string // guarded by mu
	done  bool              // guarded by mu
}

// StartSpan starts a span on the context's trace. Without a trace it
// returns nil, which is safe to use.
func StartSpan(ctx context.Context, name string) *Span {
	t := TraceFrom(ctx)
	if t == nil {
		return nil
	}
	return t.StartSpan(name)
}

// StartSpan starts a span directly on a trace.
func (t *Trace) StartSpan(name string) *Span {
	return &Span{t: t, name: name, start: time.Now()}
}

// SetAttr attaches a key/value attribute to the span.
func (s *Span) SetAttr(k, v string) {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.attrs == nil {
		s.attrs = map[string]string{}
	}
	s.attrs[k] = v
}

// End finishes the span and appends it to its trace. Multiple Ends
// record once.
func (s *Span) End() {
	if s == nil {
		return
	}
	s.mu.Lock()
	if s.done {
		s.mu.Unlock()
		return
	}
	s.done = true
	attrs := s.attrs
	s.mu.Unlock()
	s.t.add(SpanData{
		Name:    s.name,
		Start:   s.start,
		Seconds: time.Since(s.start).Seconds(),
		Attrs:   attrs,
	})
}
