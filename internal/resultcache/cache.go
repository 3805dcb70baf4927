// Package resultcache memoizes simulation results behind a
// singleflight-deduplicated LRU, so a serving layer (internal/serve) and
// the figure harness (internal/experiments) can answer repeated requests
// for the same (design, reference source, options) cell without
// re-simulating it — and N concurrent requests for a cell that is still
// computing share one computation instead of racing N.
//
// A cell's key is built by JobKey: "job|" followed by the canonical
// JSON encoding of the single-design rnuca.Job (rnuca.Job.MarshalJSON).
// Knobs that provably cannot change results (decode sharding, progress
// callbacks) are not in that encoding, so a sharded replay hits the
// entry a sequential one populated. See key.go for the exact
// canonicalization rules.
//
// Values are opaque (any): the cache stores rnuca.Result for simulation
// cells and whole rendered table sets for figure builds. Errors are
// never cached — a failed computation leaves the key empty so the next
// caller retries.
//
// Run is the one path from a cell (a single-design rnuca.Job) to its
// Result, for serve's sim jobs and the figure campaign alike. A flight
// runs detached from its callers' contexts but carries the obs trace
// of the caller that started it, so its spans land in that trace.
package resultcache

import (
	"container/list"
	"context"
	"fmt"
	"sync"
	"sync/atomic"

	"rnuca"
	"rnuca/internal/obs"
)

// DefaultEntries is the default LRU capacity.
const DefaultEntries = 512

// Outcome reports how Do satisfied a request.
type Outcome int

// Do outcomes.
const (
	// Miss: this call computed the value and populated the cache.
	Miss Outcome = iota
	// Hit: the value was already cached.
	Hit
	// Shared: an identical computation was in flight; this call waited
	// for it instead of starting its own.
	Shared
)

// String implements fmt.Stringer.
func (o Outcome) String() string {
	switch o {
	case Hit:
		return "hit"
	case Shared:
		return "shared"
	default:
		return "miss"
	}
}

// Metrics is a point-in-time snapshot of the cache counters.
type Metrics struct {
	// Hits/Misses/Shared count Do outcomes; Errors counts computations
	// that returned an error (never cached); Evictions counts LRU
	// evictions; Entries is the current cached-entry count.
	Hits, Misses, Shared, Errors, Evictions uint64
	Entries                                 int
}

// flight is one in-progress computation. Waiters (the starter included)
// are refcounted: when the last interested caller cancels, the flight's
// context is canceled so a cooperative computation can stop early. A
// flight that finishes after losing all its waiters still populates the
// cache on success (the work is done; keep it).
type flight struct {
	done     chan struct{} // closed when the computation returns
	val      any
	err      error
	waiters  int
	canceled bool
	cancel   context.CancelFunc
}

// Cache is a concurrency-safe memoized result store: an entry-capped
// LRU fronted by singleflight deduplication.
type Cache struct {
	mu      sync.Mutex
	cap     int                      // set at construction, immutable after
	ll      *list.List               // guarded by mu; front = most recently used; values are *entry
	entries map[string]*list.Element // guarded by mu
	flights map[string]*flight       // guarded by mu

	hits, misses, shared, errs, evictions atomic.Uint64

	// Registry mirrors of the counters above, attached by Instrument;
	// nil until then. They are incremented at the same sites, so a
	// scrape and a Metrics() snapshot always agree.
	obsHits, obsMisses, obsShared, obsErrs, obsEvictions *obs.Counter
	// obsRefs counts the references of every Result Run computes.
	obsRefs *obs.Counter
}

// Instrument registers the cache's counters and entry gauge on a
// metrics registry under the rnuca_result_cache_* names the serve
// layer exposes, and Run's rnuca_engine_refs_simulated_total. Call
// once, before the cache sees traffic.
func (c *Cache) Instrument(reg *obs.Registry) {
	c.obsHits = reg.Counter("rnuca_result_cache_hits_total",
		"Result-cache lookups answered from a cached entry.")
	c.obsMisses = reg.Counter("rnuca_result_cache_misses_total",
		"Result-cache lookups that started a computation.")
	c.obsShared = reg.Counter("rnuca_result_cache_shared_total",
		"Result-cache lookups that joined an in-flight computation.")
	c.obsErrs = reg.Counter("rnuca_result_cache_errors_total",
		"Result-cache computations that failed (never cached).")
	c.obsEvictions = reg.Counter("rnuca_result_cache_evictions_total",
		"Entries evicted from the result-cache LRU.")
	c.obsRefs = reg.Counter("rnuca_engine_refs_simulated_total",
		"Cache references simulated by locally executed cells (cache hits add nothing).")
	entries := reg.Gauge("rnuca_result_cache_entries",
		"Entries currently held by the result cache.")
	reg.OnCollect(func() { entries.Set(int64(c.Len())) })
}

// bump increments a registry mirror when one is attached.
func bump(m *obs.Counter) {
	if m != nil {
		m.Inc()
	}
}

type entry struct {
	key string
	val any
}

// New builds a cache holding up to capEntries values (0 means
// DefaultEntries).
func New(capEntries int) *Cache {
	if capEntries <= 0 {
		capEntries = DefaultEntries
	}
	return &Cache{
		cap:     capEntries,
		ll:      list.New(),
		entries: map[string]*list.Element{},
		flights: map[string]*flight{},
	}
}

// putLocked stores a value under key, evicting from the LRU tail as needed.
// Callers hold c.mu.
func (c *Cache) putLocked(key string, val any) {
	if el, ok := c.entries[key]; ok {
		el.Value.(*entry).val = val
		c.ll.MoveToFront(el)
		return
	}
	c.entries[key] = c.ll.PushFront(&entry{key: key, val: val})
	for c.ll.Len() > c.cap {
		tail := c.ll.Back()
		c.ll.Remove(tail)
		delete(c.entries, tail.Value.(*entry).key)
		c.evictions.Add(1)
		bump(c.obsEvictions)
	}
}

// Do returns the value for key, computing it with fn on a miss. An
// identical in-flight computation is joined rather than duplicated
// (Shared). fn runs on its own goroutine with a context that is
// canceled only when every caller interested in the key has canceled —
// one impatient caller cannot kill a computation others still want; a
// caller whose ctx ends while waiting returns ctx.Err() immediately.
// That context carries the starting caller's obs trace, so spans fn
// opens land in it. Errors are returned to every waiter and never
// cached.
func (c *Cache) Do(ctx context.Context, key string, fn func(ctx context.Context) (any, error)) (any, Outcome, error) {
	for {
		c.mu.Lock()
		if el, ok := c.entries[key]; ok {
			c.ll.MoveToFront(el)
			v := el.Value.(*entry).val
			c.mu.Unlock()
			c.hits.Add(1)
			bump(c.obsHits)
			return v, Hit, nil
		}
		if f, ok := c.flights[key]; ok {
			if f.canceled {
				// The flight lost its last waiter and is winding down;
				// wait for it to clear, then retry fresh.
				c.mu.Unlock()
				select {
				case <-f.done:
					continue
				case <-ctx.Done():
					return nil, Shared, ctx.Err()
				}
			}
			f.waiters++
			c.mu.Unlock()
			c.shared.Add(1)
			bump(c.obsShared)
			return c.wait(ctx, key, f, Shared)
		}
		// Start the flight. Its context is independent of any single
		// caller's: cancellation is driven by the waiter refcount.
		//rnuca:ctx-ok flights are detached from callers by design; the refcount cancels this root when the last waiter leaves
		fctx, cancel := context.WithCancel(obs.ContextWithTrace(context.Background(), obs.TraceFrom(ctx)))
		f := &flight{done: make(chan struct{}), waiters: 1, cancel: cancel}
		c.flights[key] = f
		c.mu.Unlock()
		c.misses.Add(1)
		bump(c.obsMisses)
		//rnuca:go-ok flights are detached by design: completion is published by closing f.done, and the waiter-refcount cancel bounds the lifetime
		go func() {
			v, err := runProtected(fctx, fn)
			cancel()
			c.mu.Lock()
			f.val, f.err = v, err
			if err == nil {
				c.putLocked(key, v)
			} else {
				c.errs.Add(1)
				bump(c.obsErrs)
			}
			delete(c.flights, key)
			c.mu.Unlock()
			close(f.done)
		}()
		return c.wait(ctx, key, f, Miss)
	}
}

// Run returns the Result of one cell, a single-design job. key is the
// job the cell is cached under (JobKey) and job the one that runs;
// they differ only where a Maker realizes the keyed methodology. When
// key has no canonical encoding, job runs directly on ctx. Otherwise
// Run joins or starts the key's flight through Do, and a flight whose
// context ended stores nothing, since its Result may be partial. Run
// records the lookup as a cache.lookup span on ctx's trace, with the
// cell's design and the outcome, and adds the refs of every Result it
// computes to rnuca_engine_refs_simulated_total; hits and shared joins
// add none.
func (c *Cache) Run(ctx context.Context, key, job rnuca.Job) (rnuca.Result, Outcome, error) {
	sp := obs.StartSpan(ctx, "cache.lookup")
	defer sp.End()
	if len(key.Designs) > 0 {
		sp.SetAttr("design", string(key.Designs[0]))
	}
	compute := func(ctx context.Context) (any, error) {
		r, err := job.Run(ctx)
		if err == nil && ctx.Err() != nil {
			// Canceled after the engine's last poll: the Result may
			// be partial, so it must never enter the cache.
			err = ctx.Err()
		}
		if err == nil && c.obsRefs != nil {
			c.obsRefs.Add(r.Refs)
		}
		return r, err
	}
	var v any
	var err error
	outcome := Miss
	if k, ok := JobKey(key); ok {
		v, outcome, err = c.Do(ctx, k, compute)
	} else {
		v, err = compute(ctx)
	}
	sp.SetAttr("outcome", outcome.String())
	r, _ := v.(rnuca.Result)
	return r, outcome, err
}

// runProtected invokes fn, converting a panic into an error: the
// computation runs on a cache-owned goroutine, where an escaped panic
// would kill the whole process rather than one request (the simulation
// and campaign layers report some failures by panicking).
func runProtected(ctx context.Context, fn func(ctx context.Context) (any, error)) (v any, err error) {
	defer func() {
		if p := recover(); p != nil {
			v, err = nil, fmt.Errorf("resultcache: computation panicked: %v", p)
		}
	}()
	return fn(ctx)
}

// wait blocks until the flight resolves or ctx ends, maintaining the
// waiter refcount.
func (c *Cache) wait(ctx context.Context, key string, f *flight, o Outcome) (any, Outcome, error) {
	select {
	case <-f.done:
		return f.val, o, f.err
	case <-ctx.Done():
		c.mu.Lock()
		f.waiters--
		if f.waiters == 0 {
			f.canceled = true
			f.cancel()
		}
		c.mu.Unlock()
		return nil, o, ctx.Err()
	}
}

// Metrics returns a snapshot of the counters.
func (c *Cache) Metrics() Metrics {
	c.mu.Lock()
	n := c.ll.Len()
	c.mu.Unlock()
	return Metrics{
		Hits:      c.hits.Load(),
		Misses:    c.misses.Load(),
		Shared:    c.shared.Load(),
		Errors:    c.errs.Load(),
		Evictions: c.evictions.Load(),
		Entries:   n,
	}
}

// Len returns the current cached-entry count.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}
