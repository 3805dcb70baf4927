// Package analysis implements rnuca-vet: a suite of repo-specific
// static analyzers enforcing the invariants the compiler cannot see —
// replay determinism, lock discipline on mutex-guarded state, the
// frozen canonical wire encoding, context plumbing rules, metric
// naming, hot-path allocation discipline, goroutine lifecycle
// ownership, and the frozen exported API surface.
//
// The framework mirrors the golang.org/x/tools/go/analysis API shape
// (Analyzer, Pass, Reportf) but is built on the standard library alone
// (go/parser + go/types), so the module stays dependency-free. If the
// repo ever takes on x/tools, each analyzer's Run function ports
// mechanically.
//
// Load type-checks each listed package once from source. Its imports
// resolve from the export data `go list -deps -export` builds into the
// build cache, through one gc importer for the whole load, so no
// dependency, the standard library included, is type-checked from
// source. LoadDir loads a fixture package, which imports only the
// standard library, the same way.
//
// rnuca-vet runs eight analyzers. Each diagnostic carries a stable
// code (stable codes make findings greppable and CI-diffable); the
// meta-test in this package asserts every code below has at least one
// firing fixture under testdata/src, so no check can silently rot.
//
// # determinism
//
//	det-maprange  range over a map feeding accumulation or output in a
//	              result-affecting package (map order is randomized per
//	              run; replay must be bit-identical)
//	det-time      time.Now in a result-affecting package
//	det-rand      unseeded global math/rand source in a
//	              result-affecting package
//
// Result-affecting packages: the module root (the fold path) and
// internal/{sim,design,cache,coherence,noc,mem,ospage,stats}.
//
// # lockguard
//
//	lock-unheld         access to a "// guarded by <mu>" field or
//	                    package variable without the mutex held
//	lock-unknown-mutex  a guarded-by annotation naming a mutex that
//	                    does not exist in the struct / package scope
//
// The held-set analysis is an intra-package heuristic: defer-aware
// (a deferred Unlock holds to function end), branch-aware (an
// early-return branch that unlocks does not poison the fallthrough
// path), alias-resolving one level (st := &s.stats), and
// convention-aware (functions named *Locked assume the caller holds
// the lock; goroutine bodies start with no locks held).
//
// # wirefrozen
//
//	wire-notag      exported field of a //rnuca:wire struct without an
//	                explicit json tag (an implicit field-name encoding
//	                silently forks cache keys on rename)
//	wire-unmarked   a //rnuca:wire struct reaches a same-package struct
//	                that is not itself marked
//
// Structs with their own MarshalJSON are exempt — they control their
// encoding, and the golden tests freeze those bytes.
//
// # ctxrules
//
//	ctx-notfirst    context.Context parameter not in first position
//	ctx-background  context.Background()/TODO() in a library package
//	ctx-field       context.Context stored in a struct field
//
// Main packages and _test.go files are exempt: roots belong there.
//
// # obsnames
//
//	obs-name-literal  metric name is not a compile-time constant string
//	obs-name-format   name does not match
//	                  ^rnuca_[a-z0-9_]+(_total|_seconds|_bytes)?$, or
//	                  the suffix disagrees with the metric type
//	                  (counter→_total, histogram→_seconds|_bytes,
//	                  gauge→never _total)
//	obs-buckets       inline []float64 bucket literal instead of the
//	                  shared ExpBuckets/DefSecondsBuckets helpers
//
// # hotpath
//
// Regions opted in with a //rnuca:hotpath marker (on a function's doc
// comment or directly above a for/range statement) are the
// per-reference loops the simulator spends its time in; inside them,
// anything that heap-allocates per iteration or defeats inlining is a
// finding:
//
//	hot-alloc    a composite literal, &literal, new(T), or make whose
//	             value escapes the function (escape-checked: a value
//	             literal or an address that never leaves the frame is
//	             fine; make always fires — its backing array is heap)
//	hot-append   append (reallocates on growth; preallocate capacity
//	             outside the region or prove it with a waiver)
//	hot-closure  a func literal that escapes (each miss would mint a
//	             fresh heap closure; hoist it to construction time)
//	hot-iface    method dispatch through an interface value (defeats
//	             inlining on the hottest call edge; devirtualize)
//	hot-map      map indexing, read or write (hashing plus a possible
//	             grow; hot state belongs in slices indexed by ID)
//	hot-defer    defer inside a loop body (runs at function exit, so
//	             the deferred calls pile up across iterations)
//	hot-convert  a string<->[]byte conversion (copies the bytes)
//
// The escape analysis is a local heuristic, deliberately conservative
// in the compiler's direction: an allocation is "escaping" if its
// value is returned, stored through a pointer, captured by an escaping
// closure, or passed to another function. Waive a finding the numbers
// justify with //rnuca:alloc-ok <reason> — the per-epoch flush that
// allocates once per million references, the buffer that grows to a
// high-water mark and is then recycled.
//
// # goroutines
//
// Every go statement must have a visible lifecycle owner — some
// syntactic evidence, in the spawning function or the spawned body, of
// who waits for or stops the goroutine:
//
//	go-leak        the spawned body loops forever with no exit path
//	               (no return, break, channel op, or select in the
//	               loop) — nothing can ever stop it
//	go-nojoin      no join discipline found: not a WaitGroup Add/Done
//	               pairing, not a channel send the spawner receives,
//	               not a range over a closable channel, not a
//	               done-channel select with a return
//	go-unbuffered  the spawned body sends on an unbuffered channel
//	               made in the spawning function with no visible
//	               receiver — the classic abandoned-sender leak when
//	               the consumer errors out early
//
// Test files are exempt (t.Cleanup and test scope bound lifetimes).
// Genuinely detached goroutines — a singleflight whose completion is
// published by closing a done channel, a reaper for a canceled
// conversion — carry //rnuca:go-ok <reason>.
//
// # apifreeze
//
// A package opts in by owning a testdata/api-frozen.txt snapshot of
// its exported surface (one "kind name descriptor" line per exported
// const, var, func, type, field, and method). The pass re-derives the
// surface from the type checker and diffs:
//
//	api-removed  an exported symbol present in the snapshot is gone
//	api-changed  an exported symbol's type or signature differs from
//	             the snapshot
//
// Additions are allowed silently (the next -update records them);
// removals and signature changes are findings until the snapshot is
// deliberately regenerated with rnuca-vet -update, which makes API
// breaks a reviewed diff of a checked-in file rather than an
// accident. The module root package rnuca (the public Job/Result API)
// is frozen; internal packages are not.
//
// # Annotations
//
// Source annotations are line comments of the form
//
//	//rnuca:<kind> <reason>
//
// placed on the flagged line or on the line directly above it. The
// reason is mandatory: a bare annotation does not suppress anything
// and is itself reported:
//
//	ann-noreason  a //rnuca: annotation without a justification
//
// Kinds:
//
//	//rnuca:nondet-ok <reason>  waive a determinism finding (e.g. an
//	                            integer sum, order-independent)
//	//rnuca:lock-ok <reason>    waive a lockguard finding (e.g. a value
//	                            read before the struct is shared)
//	//rnuca:ctx-ok <reason>     waive a ctxrules finding (e.g. a
//	                            server's lifecycle root context)
//	//rnuca:alloc-ok <reason>   waive a hotpath finding (e.g. a buffer
//	                            that grows to a high-water mark once,
//	                            an append into preallocated capacity)
//	//rnuca:go-ok <reason>      waive a goroutines finding (e.g. a
//	                            deliberately detached singleflight)
//	//rnuca:wire                mark a struct as part of a frozen wire
//	                            shape (a declaration, not a waiver — no
//	                            reason needed)
//	//rnuca:hotpath             mark the following function or loop as
//	                            a hot region (a declaration, not a
//	                            waiver — no reason needed)
//
// Guarded state is declared with a plain comment on the field or
// package variable:
//
//	mu    sync.Mutex
//	jobs  map[string]*job // guarded by mu
package analysis
