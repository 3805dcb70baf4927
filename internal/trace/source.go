package trace

import "fmt"

// RefSource is a finite or infinite multiplexed reference stream: the
// refs of all cores interleaved in one sequence, each tagged with its
// Core. It is the pluggable input of the simulation pipeline — the
// statistical workload generators, the tracefile reader, and any future
// external ingester all present this interface, so the engine and the
// top-level Run/Record/Replay APIs are agnostic to where references come
// from.
type RefSource interface {
	// Next returns the next reference and true, or a zero Ref and false
	// once the source is exhausted (infinite sources never return false).
	Next() (Ref, bool)
}

// Rewinder is optionally implemented by finite RefSources that can
// restart from their first ref. Demux uses it to loop a source whose
// consumers need more refs than the source holds: implementing it is the
// source's consent that looping is legitimate, and a Rewind that fails —
// notably after a read error — keeps looping from silently recycling the
// readable prefix of a damaged source.
type Rewinder interface {
	// Rewind repositions the source at its first ref. It fails when the
	// source cannot restart.
	Rewind() error
}

// SliceSource adapts a finite []Ref into a rewindable RefSource.
type SliceSource struct {
	refs []Ref
	pos  int
}

// NewSliceSource wraps refs without copying.
func NewSliceSource(refs []Ref) *SliceSource { return &SliceSource{refs: refs} }

// Next implements RefSource.
func (s *SliceSource) Next() (Ref, bool) {
	if s.pos >= len(s.refs) {
		return Ref{}, false
	}
	r := s.refs[s.pos]
	s.pos++
	return r, true
}

// Rewind implements Rewinder.
func (s *SliceSource) Rewind() error {
	s.pos = 0
	return nil
}

// Demux splits a multiplexed RefSource into one Stream per core, routing
// each ref by its Core field. Streams pull from the shared source on
// demand, buffering refs destined for other cores, so consumption order
// across cores is free — the engine's min-clock scheduling works
// unchanged. When a replay consumes cores in the same order the source
// was recorded in, no buffering happens at all; while the source is
// live, memory is bounded by the consumption imbalance, never by the
// source length.
//
// Streams are infinite, as the engine requires: when a finite source is
// exhausted and it implements Rewinder, the demux rewinds it, re-scans
// it once to record each core's own sequence, and thereafter serves
// every stream from its private loop. Loop positions are tracked per
// core, so however imbalanced the consumption, each core's stream loops
// over exactly its own recorded sequence — no rewound pass ever appends
// refs a core was already dealt — and memory is bounded by one copy of
// the source. A source that cannot rewind, fails to rewind or re-read
// (e.g. a truncated trace refusing to recycle its prefix), or holds no
// refs at all for a core that asks, panics with a "trace:"-prefixed
// message — Job.Run and Job.Compare convert those into errors for every
// input kind.
func Demux(src RefSource, cores int) []Stream {
	d := &demux{
		src:     src,
		pending: make([][]Ref, cores),
		head:    make([]int, cores),
	}
	out := make([]Stream, cores)
	for c := range out {
		out[c] = &demuxStream{d: d, core: c}
	}
	return out
}

type demux struct {
	src RefSource
	// pending[c][head[c]:] are refs read from src but not yet consumed by
	// core c.
	pending [][]Ref
	head    []int
	// loop[c] is core c's full recorded sequence and loopPos[c] the
	// stream's position in it; both exist only once beginLoop has run
	// (looping true), after the source first ran dry.
	looping bool
	loop    [][]Ref
	loopPos []int
}

type demuxStream struct {
	d    *demux
	core int
}

// Next implements Stream.
func (s *demuxStream) Next() Ref {
	d, c := s.d, s.core
	if d.head[c] < len(d.pending[c]) {
		r := d.pending[c][d.head[c]]
		d.head[c]++
		if d.head[c] == len(d.pending[c]) {
			d.pending[c] = d.pending[c][:0]
			d.head[c] = 0
		}
		return r
	}
	if d.looping {
		return d.nextLoop(c)
	}
	for {
		r, ok := d.src.Next()
		if !ok {
			d.beginLoop(c)
			return d.nextLoop(c)
		}
		if r.Core < 0 || r.Core >= len(d.pending) {
			panic(fmt.Sprintf("trace: demux ref for core %d outside 0..%d", r.Core, len(d.pending)-1))
		}
		if r.Core == c {
			return r
		}
		d.pending[r.Core] = append(d.pending[r.Core], r)
	}
}

// nextLoop serves core c's next ref from its recorded sequence.
func (d *demux) nextLoop(c int) Ref {
	seq := d.loop[c]
	if len(seq) == 0 {
		panic(fmt.Sprintf("trace: source has no refs for core %d", c))
	}
	r := seq[d.loopPos[c]]
	d.loopPos[c] = (d.loopPos[c] + 1) % len(seq)
	return r
}

// beginLoop transitions the demux to looping once the source runs dry:
// the source is rewound and re-scanned once, recording each core's own
// sequence. At the moment of exhaustion every ref of the single live
// pass has been routed — consumed by its core or still in its pending
// buffer — so every core sits exactly at the end of the recorded
// sequence and each loop starts at position zero after pending drains.
// c is the core whose demand hit the exhaustion, for error context.
func (d *demux) beginLoop(c int) {
	rw, canRewind := d.src.(Rewinder)
	if !canRewind {
		panic(fmt.Sprintf("trace: source exhausted under core %d with no way to rewind", c))
	}
	if err := rw.Rewind(); err != nil {
		panic(fmt.Sprintf("trace: rewinding exhausted source: %v", err))
	}
	d.loop = make([][]Ref, len(d.pending))
	d.loopPos = make([]int, len(d.pending))
	for {
		r, ok := d.src.Next()
		if !ok {
			break
		}
		if r.Core < 0 || r.Core >= len(d.loop) {
			panic(fmt.Sprintf("trace: demux ref for core %d outside 0..%d", r.Core, len(d.loop)-1))
		}
		d.loop[r.Core] = append(d.loop[r.Core], r)
	}
	// A source that can report read errors must not let the re-scan pass
	// off a readable prefix as the full sequence.
	if es, ok := d.src.(interface{ Err() error }); ok {
		if err := es.Err(); err != nil {
			panic(fmt.Sprintf("trace: re-reading source for looping: %v", err))
		}
	}
	d.looping = true
}
