// Command rnuca-serve runs the rnuca simulation service: an HTTP JSON
// API (internal/serve) over a content-addressed corpus store
// (internal/corpus), with a bounded worker pool and a memoized result
// cache, so repeated replay/compare/figure requests over unchanged
// corpora are answered without simulating.
//
// Usage:
//
//	rnuca-serve [-addr :8091] [-corpus DIR] [-ingest DIR] [-workers N]
//	            [-queue N] [-cache N] [-history N] [-drain 30s]
//	            [-epoch N] [-slo 0] [-log-level info] [-pprof]
//
// On SIGTERM or SIGINT the server stops accepting jobs, finishes what
// is queued and running (up to -drain), and exits; a second signal
// cancels running jobs and exits immediately. /readyz turns 503 the
// moment the drain begins (while /healthz stays 200), so a load
// balancer stops routing to the terminating instance.
//
// Job-lifecycle events are logged as one key=value line each, every
// line carrying the job's job_id, so `grep job_id=<id>` reconstructs
// one job's story from a busy server's stream. -log-level gates
// verbosity (debug, info, warn, error).
//
// -epoch sets the flight recorder's epoch length in measured
// references (default 64Ki); every simulation cell records a
// per-epoch timeline served at /v1/jobs/{id}/timeline.
//
// -slo sets the submit-to-terminal job-latency target (for example
// -slo 2s). GET /v1/stats then reports per-kind attainment — windowed
// over the last minute and cumulative since start — and the
// rnuca_jobs_slo_breached_total{kind} counter burns on every done or
// failed job that exceeded the target. 0 (the default) disables SLO
// accounting; latency quantiles are tracked regardless and served on
// /v1/stats and as rnuca_*_quantile_seconds gauges on /metrics. They
// cover the trailing minute, per job kind and per route: each is
// interpolated over log-spaced buckets (adjacent bounds 9.05% apart)
// merged from six 10-second sub-windows, and clamped to the exact min
// and max.
// Submissions refused for queue pressure return 429 with Retry-After
// (and count in rnuca_jobs_throttled_total); a draining server
// returns 503 without Retry-After.
//
// -pprof mounts net/http/pprof under /debug/pprof/ on the same
// listener. It is off by default and should stay off on any address
// reachable by untrusted clients: the profile endpoints expose heap
// contents and let anyone drive CPU-costly collections.
//
// A minimal session against a running server — the job body is the
// canonical rnuca.Job JSON:
//
//	curl -sT oltp.rnt 'localhost:8091/v1/corpora?name=oltp'
//	curl -s localhost:8091/v1/jobs -d '{"input":{"corpus":"oltp"},"designs":["R"]}'
//	curl -s localhost:8091/v1/jobs/<id>
//	curl -s localhost:8091/v1/jobs/<id>/trace
//	curl -s localhost:8091/metrics | grep result_cache
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	"rnuca/internal/corpus"
	"rnuca/internal/obs/log"
	"rnuca/internal/report"
	"rnuca/internal/serve"
)

func main() {
	addr := flag.String("addr", ":8091", "listen address")
	corpusDir := flag.String("corpus", "", "corpus store directory (empty = no store; replay/convert/figure jobs disabled)")
	ingestDir := flag.String("ingest", "", "directory convert jobs may read foreign traces from (empty = convert jobs disabled)")
	workers := flag.Int("workers", 0, "concurrent simulation jobs (0 = one per CPU)")
	queue := flag.Int("queue", 0, "queued-job bound (0 = default 64)")
	cache := flag.Int("cache", 0, "result-cache entries (0 = default)")
	history := flag.Int("history", 0, "finished jobs retained for /v1/jobs (0 = default 512)")
	drain := flag.Duration("drain", 30*time.Second, "graceful-drain budget after SIGTERM")
	epoch := report.EpochFlag(flag.CommandLine)
	slo := flag.Duration("slo", 0, "submit-to-terminal job-latency SLO target (0 = SLO accounting off)")
	logLevel := flag.String("log-level", "info", "log verbosity: debug, info, warn, or error")
	withPprof := flag.Bool("pprof", false, "mount net/http/pprof under /debug/pprof/ (do not enable on publicly reachable addresses)")
	flag.Parse()

	level, err := log.ParseLevel(*logLevel)
	if err != nil {
		fatalf("%v", err)
	}
	lg := log.New(os.Stderr, level)

	var store *corpus.Store
	if *corpusDir != "" {
		var err error
		if store, err = corpus.Open(*corpusDir); err != nil {
			fatalf("opening corpus store: %v", err)
		}
	}
	s := serve.New(serve.Config{
		Store:        store,
		Workers:      *workers,
		QueueDepth:   *queue,
		CacheEntries: *cache,
		IngestDir:    *ingestDir,
		JobHistory:   *history,
		EpochRefs:    *epoch,
		Logger:       lg,
		SLO:          *slo,
	})
	lg.Instrument(s.Registry())
	handler := s.Handler()
	if *withPprof {
		mux := http.NewServeMux()
		mux.Handle("/", handler)
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		handler = mux
	}
	hs := &http.Server{Addr: *addr, Handler: handler}

	sigs := make(chan os.Signal, 2)
	signal.Notify(sigs, syscall.SIGTERM, syscall.SIGINT)
	serveErr := make(chan error, 1)
	go func() { serveErr <- hs.ListenAndServe() }()

	w := *workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	kv := []any{"addr", *addr, "workers", w}
	if store != nil {
		kv = append(kv, "corpus", store.Root())
	}
	lg.Info("rnuca-serve listening", kv...)

	select {
	case err := <-serveErr:
		fatalf("serve: %v", err)
	case sig := <-sigs:
		lg.Info("draining", "signal", sig.String(), "budget", *drain)
	}

	// Drain: stop accepting (both at the listener and the job queue),
	// let in-flight work finish, force-cancel on a second signal or an
	// exhausted budget.
	ctx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	go func() {
		select {
		case <-sigs:
			lg.Warn("forcing shutdown")
			cancel()
		case <-ctx.Done():
		}
	}()
	if err := hs.Shutdown(ctx); err != nil && !errors.Is(err, context.Canceled) && !errors.Is(err, context.DeadlineExceeded) {
		lg.Error("http shutdown", "err", err)
	}
	if err := s.Drain(ctx); err != nil {
		lg.Error("drain budget exhausted, canceling running jobs")
		s.Close()
		os.Exit(1)
	}
	s.Close()
	lg.Info("drained cleanly")
}

func fatalf(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, "rnuca-serve: "+format+"\n", args...)
	os.Exit(1)
}
