package tracefile

import "rnuca/internal/trace"

// RecordStreams wraps per-core streams so every ref any of them produces
// is teed to w in consumption order. Feeding the wrapped streams to the
// engine captures exactly the refs a run consumed, per core, in order —
// which is what makes a same-design replay bit-identical.
func RecordStreams(w *Writer, streams []trace.Stream) []trace.Stream {
	out := make([]trace.Stream, len(streams))
	for i, s := range streams {
		out[i] = &recordingStream{s: s, w: w}
	}
	return out
}

type recordingStream struct {
	s trace.Stream
	w *Writer
}

// Next implements trace.Stream.
func (r *recordingStream) Next() trace.Ref {
	ref := r.s.Next()
	_ = r.w.Write(ref)
	return ref
}
