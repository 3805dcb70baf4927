package rnuca

import (
	"encoding/json"
	"fmt"
	"sync"

	"rnuca/internal/digest"
	"rnuca/internal/workload"
)

// InputKind names where an Input's reference stream comes from.
type InputKind string

// Input kinds.
const (
	// InputWorkload generates references from a statistical workload
	// spec (FromWorkload).
	InputWorkload InputKind = "workload"
	// InputTrace replays a recorded trace file by path (FromTrace).
	InputTrace InputKind = "trace"
	// InputCorpus replays a content-addressed corpus object
	// (FromCorpus, FromCorpusRef).
	InputCorpus InputKind = "corpus"
)

// CorpusStore is the slice of a content-addressed corpus store an
// Input needs to resolve references: internal/corpus.Store implements
// it, and so can any client-side store a caller wants to plug in.
type CorpusStore interface {
	// Resolve maps a digest, unique digest prefix, or name to the
	// content digest of a stored trace.
	Resolve(ref string) (digest string, err error)
	// Path returns the on-disk path of the object with that digest.
	Path(digest string) string
}

// lazyDigest memoizes the content hash of a trace file so repeated
// canonicalizations of the same Input (cache keys, wire encodings) pay
// for one read. Copies of an Input share the cell.
type lazyDigest struct {
	once sync.Once
	d    string
	err  error
}

func (l *lazyDigest) digest(path string) (string, error) {
	l.once.Do(func() { l.d, l.err = digest.File(path) })
	return l.d, l.err
}

// Input is the reference-stream half of a Job: where the simulated
// references come from, together with the knobs that are legal for
// that source and nothing else (a window or decode sharding only mean
// something on a seekable trace, so only trace- and corpus-backed
// inputs carry them — illegal combinations are unrepresentable rather
// than silently ignored).
//
// Inputs are immutable values built by the From* constructors and
// refined by the knob methods, which return a new Input. A knob
// applied to an input kind it does not fit poisons the value: the
// error is carried inside and surfaced by Job.Validate / Job.Run, so
// construction chains never panic.
type Input struct {
	kind InputKind
	err  error

	// workload carries the statistical spec (InputWorkload).
	workload Workload

	// path is the trace file to replay (InputTrace, or InputCorpus
	// after binding to a store).
	path string
	// digest is the content SHA-256: resolved eagerly for corpus
	// inputs, lazily (hashing path) for trace inputs.
	digest string
	lazy   *lazyDigest
	// ref is the corpus reference as given (digest, prefix, or name).
	ref string

	windowStart, windowRefs uint64
	shards                  int
}

// FromWorkload builds an input that generates references from a
// statistical workload spec (the catalog constructors, or any custom
// Workload).
func FromWorkload(w Workload) Input {
	return Input{kind: InputWorkload, workload: w}
}

// FromTrace builds an input that replays a recorded trace file. The
// trace header supplies the workload's timing parameters; Window and
// Sharded refine it. Canonically the input is identified by the
// file's content digest, so a trace input and a corpus input holding
// the same bytes encode — and cache — identically.
func FromTrace(path string) Input {
	in := Input{kind: InputTrace, path: path, lazy: &lazyDigest{}}
	if path == "" {
		in.err = fmt.Errorf("rnuca: FromTrace with an empty path")
	}
	return in
}

// FromCorpus builds an input that replays a stored corpus object,
// resolving ref (a digest, unique digest prefix, or name) against the
// store immediately so a dangling reference fails fast at
// Job.Validate rather than mid-run.
func FromCorpus(st CorpusStore, ref string) Input {
	in := Input{kind: InputCorpus, ref: ref}
	if st == nil {
		in.err = fmt.Errorf("rnuca: FromCorpus with a nil store")
		return in
	}
	bound, err := in.Bind(st)
	if err != nil {
		in.err = err
		return in
	}
	return bound
}

// FromCorpusRef builds an unbound corpus input from a reference alone
// — what a client talking to a remote rnuca-serve holds. A full
// 64-hex digest is canonical as-is; a name or prefix must be resolved
// by whoever owns the store (Input.Bind, or the server at submit).
func FromCorpusRef(ref string) Input {
	in := Input{kind: InputCorpus, ref: ref}
	if ref == "" {
		in.err = fmt.Errorf("rnuca: FromCorpusRef with an empty reference")
		return in
	}
	if isHexDigest(ref) {
		in.digest = ref
	}
	return in
}

// Window restricts a trace- or corpus-backed input to the records
// [start, start+refs); refs 0 means "to the end of the trace". It
// requires a v2 indexed trace. On any other input kind the result is
// poisoned: windows sample a seekable recording, a generator has
// nothing to seek.
func (in Input) Window(start, refs uint64) Input {
	if in.err != nil {
		return in
	}
	if !in.Replays() {
		in.err = fmt.Errorf("rnuca: Window on a %s input (windows need a trace or corpus)", in.kind)
		return in
	}
	in.windowStart, in.windowRefs = start, refs
	return in
}

// Sharded fans the input's chunk decoding across n parallel workers
// (v2 indexed traces only). Sharding overlaps decompression with the
// simulation without changing results — it is an execution hint, not
// part of the input's identity, so it does not appear in the
// canonical encoding and sharded and sequential runs share one cache
// entry. On non-replay inputs the result is poisoned.
func (in Input) Sharded(n int) Input {
	if in.err != nil {
		return in
	}
	if !in.Replays() {
		in.err = fmt.Errorf("rnuca: Sharded on a %s input (sharding needs a trace or corpus)", in.kind)
		return in
	}
	if n < 0 {
		in.err = fmt.Errorf("rnuca: Sharded(%d)", n)
		return in
	}
	in.shards = n
	return in
}

// Kind reports where the input's references come from ("" for the
// zero Input).
func (in Input) Kind() InputKind { return in.kind }

// Replays reports whether the input replays a recorded trace (trace-
// or corpus-backed), i.e. whether Window and Sharded apply.
func (in Input) Replays() bool { return in.kind == InputTrace || in.kind == InputCorpus }

// windowed reports whether a replay input is restricted to a record
// window.
func (in Input) windowed() bool { return in.windowStart > 0 || in.windowRefs > 0 }

// Err returns the deferred construction error, if any knob or
// constructor was misused.
func (in Input) Err() error { return in.err }

// Bind resolves a corpus input against a store: the reference becomes
// a content digest and an on-disk path. Bound inputs are returned
// unchanged, as are non-corpus kinds (binding is a no-op for them).
func (in Input) Bind(st CorpusStore) (Input, error) {
	if in.err != nil {
		return in, in.err
	}
	if in.kind != InputCorpus || in.path != "" {
		return in, nil
	}
	if st == nil {
		return in, fmt.Errorf("rnuca: binding corpus input %q: nil store", in.ref)
	}
	ref := in.ref
	if ref == "" {
		ref = in.digest
	}
	digest, err := st.Resolve(ref)
	if err != nil {
		return in, fmt.Errorf("rnuca: resolving corpus %q: %w", ref, err)
	}
	in.digest = digest
	in.path = st.Path(digest)
	return in, nil
}

// Workload resolves the workload the input describes: the spec itself
// for workload inputs, the trace header's catalog entry or minimal
// reconstruction for trace- and corpus-backed inputs.
func (in Input) Workload() (Workload, error) {
	if in.err != nil {
		return Workload{}, in.err
	}
	switch in.kind {
	case InputWorkload:
		return in.workload, nil
	case InputTrace, InputCorpus:
		if in.path == "" {
			return Workload{}, fmt.Errorf("rnuca: corpus input %q is unbound (Bind a store)", in.ref)
		}
		return TraceWorkload(in.path)
	}
	return Workload{}, fmt.Errorf("rnuca: empty Input has no workload")
}

// Digest returns the content SHA-256 identifying a replay input (the
// resolved digest of a corpus input, the lazily-computed file hash of
// a trace input). Non-replay and unbound inputs error.
func (in Input) Digest() (string, error) { return in.contentDigest() }

// TracePath returns the on-disk trace a replay input reads ("" for
// generated inputs and for unbound corpus references).
func (in Input) TracePath() string { return in.path }

// WindowRange returns the record window a replay input is restricted
// to (0, 0 when unwindowed).
func (in Input) WindowRange() (start, refs uint64) { return in.windowStart, in.windowRefs }

// contentDigest returns the input's content identity, hashing the
// trace file on first use for path-backed inputs.
func (in Input) contentDigest() (string, error) {
	switch in.kind {
	case InputCorpus:
		if in.digest == "" {
			return "", fmt.Errorf("rnuca: corpus input %q is unbound (no digest; Bind a store)", in.ref)
		}
		return in.digest, nil
	case InputTrace:
		if in.digest != "" {
			return in.digest, nil
		}
		d, err := in.lazy.digest(in.path)
		if err != nil {
			return "", fmt.Errorf("rnuca: hashing trace %s: %w", in.path, err)
		}
		return d, nil
	}
	return "", fmt.Errorf("rnuca: %s input has no content digest", in.kind)
}

// isHexDigest reports whether s is a full lowercase-hex SHA-256.
func isHexDigest(s string) bool {
	if len(s) != 64 {
		return false
	}
	for _, c := range s {
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

// inputJSON is the wire/canonical encoding of an Input: exactly one
// of Workload or Corpus is set. Workload inputs carry the full spec
// (every field that shapes generation distinguishes the encoding);
// trace and corpus inputs collapse to the content digest plus the
// window, so a sharded and a sequential replay of the same bytes — or
// a path-backed and a store-backed one — encode identically.
//
//rnuca:wire
type inputJSON struct {
	Workload *Workload      `json:"workload,omitempty"`
	Corpus   *corpusRefJSON `json:"corpus,omitempty"`
}

//rnuca:wire
type corpusRefJSON struct {
	Digest string `json:"digest,omitempty"`
	// Ref is a non-canonical convenience for wire clients: a name or
	// digest prefix the receiving server resolves at submit. Canonical
	// encodings always carry the digest instead.
	Ref         string `json:"ref,omitempty"`
	WindowStart uint64 `json:"window_start,omitempty"`
	WindowRefs  uint64 `json:"window_refs,omitempty"`
}

// MarshalJSON emits the input's canonical encoding. Poisoned inputs
// have none and error; an unbound corpus name is emitted as a
// non-canonical {"ref": ...} for wire use.
func (in Input) MarshalJSON() ([]byte, error) {
	if in.err != nil {
		return nil, in.err
	}
	switch in.kind {
	case InputWorkload:
		w := in.workload
		return json.Marshal(inputJSON{Workload: &w})
	case InputTrace, InputCorpus:
		c := corpusRefJSON{WindowStart: in.windowStart, WindowRefs: in.windowRefs}
		d, err := in.contentDigest()
		switch {
		case err == nil:
			c.Digest = d
		case in.kind == InputCorpus && in.ref != "":
			c.Ref = in.ref
		default:
			return nil, err
		}
		return json.Marshal(inputJSON{Corpus: &c})
	}
	return nil, fmt.Errorf("rnuca: encoding an empty Input")
}

// UnmarshalJSON decodes the canonical encoding, plus two wire
// shorthands: {"workload":"OLTP-DB2"} names a catalog workload, and
// {"corpus":"oltp"} is a bare store reference.
func (in *Input) UnmarshalJSON(b []byte) error {
	var raw struct {
		Workload json.RawMessage `json:"workload"`
		Corpus   json.RawMessage `json:"corpus"`
	}
	if err := json.Unmarshal(b, &raw); err != nil {
		return fmt.Errorf("rnuca: decoding input: %w", err)
	}
	switch {
	case raw.Workload != nil && raw.Corpus != nil:
		return fmt.Errorf("rnuca: input names both a workload and a corpus")
	case raw.Workload != nil:
		var name string
		if err := json.Unmarshal(raw.Workload, &name); err == nil {
			w, ok := workload.ByName(name)
			if !ok {
				return fmt.Errorf("rnuca: unknown workload %q", name)
			}
			*in = FromWorkload(w)
			return nil
		}
		var w Workload
		if err := json.Unmarshal(raw.Workload, &w); err != nil {
			return fmt.Errorf("rnuca: decoding workload input: %w", err)
		}
		// A name-only spec is a catalog lookup too, so thin wire specs
		// need not replicate the full calibration.
		if w.Cores == 0 && w.Name != "" {
			cat, ok := workload.ByName(w.Name)
			if !ok {
				return fmt.Errorf("rnuca: unknown workload %q", w.Name)
			}
			w = cat
		}
		*in = FromWorkload(w)
		return nil
	case raw.Corpus != nil:
		var ref string
		if err := json.Unmarshal(raw.Corpus, &ref); err == nil {
			*in = FromCorpusRef(ref)
			return nil
		}
		var c corpusRefJSON
		if err := json.Unmarshal(raw.Corpus, &c); err != nil {
			return fmt.Errorf("rnuca: decoding corpus input: %w", err)
		}
		// When both are present the content digest wins — a name is
		// mutable and must not silently override pinned content.
		ref = c.Digest
		if ref == "" {
			ref = c.Ref
		}
		out := FromCorpusRef(ref)
		if c.WindowStart > 0 || c.WindowRefs > 0 {
			out = out.Window(c.WindowStart, c.WindowRefs)
		}
		if out.err != nil {
			return out.err
		}
		*in = out
		return nil
	}
	return fmt.Errorf("rnuca: input names neither a workload nor a corpus")
}
