package workload

import (
	"fmt"
	"sync"

	"rnuca/internal/cache"
	"rnuca/internal/trace"
)

// Packed reference layout (see the package doc). The last private
// region of a MaxTapeCores-core spec ends at privateBase +
// 64*privateStep = 2^32 + 2^34, below the 2^35 the address field holds.
const (
	tapeAddrBits   = 29
	tapeThreadBits = 6
	tapeBusyBits   = 12
	tapeKindBits   = 2

	tapeThreadShift = tapeAddrBits
	tapeBusyShift   = tapeThreadShift + tapeThreadBits
	tapeKindShift   = tapeBusyShift + tapeBusyBits
	tapeClassShift  = tapeKindShift + tapeKindBits

	// MaxTapeCores is the largest spec a Tape holds: its threads fill
	// the packed thread field.
	MaxTapeCores = 1 << tapeThreadBits

	// tapeChunkRefs is the number of references a core's generator adds
	// to its tape at a time: 32 KB per chunk.
	tapeChunkRefs = 4096
)

// pack encodes a generated reference into one tape word.
func pack(r trace.Ref) uint64 {
	return r.Addr>>6 |
		uint64(r.Thread)<<tapeThreadShift |
		uint64(r.Busy)<<tapeBusyShift |
		uint64(r.Kind)<<tapeKindShift |
		uint64(r.Class)<<tapeClassShift
}

// unpack decodes a tape word of core's stream.
func unpack(w uint64, core int) trace.Ref {
	return trace.Ref{
		Core:   core,
		Thread: int(w >> tapeThreadShift & (1<<tapeThreadBits - 1)),
		Kind:   trace.Kind(w >> tapeKindShift & (1<<tapeKindBits - 1)),
		Addr:   (w & (1<<tapeAddrBits - 1)) << 6,
		Class:  cache.Class(w >> tapeClassShift),
		Busy:   int(w >> tapeBusyShift & (1<<tapeBusyBits - 1)),
	}
}

// Tape holds a spec's per-core reference streams, generated once and
// read by any number of cursors (Streams). Each core's stream is a
// list of immutable chunks of packed references that the core's own
// Generator appends, one chunk at a time, when a cursor first reads
// past the end. So each cursor sees exactly the sequence NewGenerator
// produces for its core, whatever order and pace the cursors read in,
// and the tape holds 8 bytes per reference the furthest cursor has
// reached on each core.
type Tape struct {
	cores []tapeCore
}

// tapeCore is one core's stream on a tape.
type tapeCore struct {
	mu     sync.Mutex
	gen    *Generator
	chunks []*[tapeChunkRefs]uint64 // guarded by mu; a chunk never changes once appended
}

// NewTape returns an empty tape of spec's per-core streams; references
// are generated as cursors first read them. Like NewGenerator it panics
// on an invalid spec, and on one with more than MaxTapeCores cores.
func NewTape(spec Spec) *Tape {
	if spec.Cores > MaxTapeCores {
		panic(fmt.Sprintf("workload: a tape holds at most %d cores, not %d", MaxTapeCores, spec.Cores))
	}
	t := &Tape{cores: make([]tapeCore, spec.Cores)}
	for c := range t.cores {
		t.cores[c].gen = NewGenerator(spec, c)
	}
	return t
}

// Streams returns a new set of per-core cursors, each at the start of
// its core's stream. Cursors of one set, or of different sets, may be
// read from different goroutines; one cursor is not safe for
// concurrent use.
func (t *Tape) Streams() []trace.Stream {
	out := make([]trace.Stream, len(t.cores))
	for c := range t.cores {
		out[c] = &tapeCursor{core: &t.cores[c], id: c, pos: tapeChunkRefs}
	}
	return out
}

// chunk returns chunk k of the core's stream, generating the chunks up
// to it first.
func (tc *tapeCore) chunk(k int) *[tapeChunkRefs]uint64 {
	tc.mu.Lock()
	defer tc.mu.Unlock()
	for len(tc.chunks) <= k {
		ch := new([tapeChunkRefs]uint64)
		for i := range ch {
			ch[i] = pack(tc.gen.Next())
		}
		tc.chunks = append(tc.chunks, ch)
	}
	return tc.chunks[k]
}

// tapeCursor reads one core's stream from a tape.
type tapeCursor struct {
	core  *tapeCore
	id    int
	chunk *[tapeChunkRefs]uint64
	next  int // index of the chunk after chunk
	pos   int // next word of chunk; tapeChunkRefs before the first read
}

// Next implements trace.Stream.
func (c *tapeCursor) Next() trace.Ref {
	if c.pos == tapeChunkRefs {
		c.chunk = c.core.chunk(c.next)
		c.next++
		c.pos = 0
	}
	w := c.chunk[c.pos]
	c.pos++
	return unpack(w, c.id)
}
