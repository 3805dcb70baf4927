// Package obs is the repo's dependency-free observability layer: a
// metrics registry with a Prometheus text encoder, latency quantiles
// over fixed buckets and sliding windows, and a lightweight span API
// for per-stage job timing.
//
// # Metrics
//
// A Registry holds counters, gauges, and fixed-bucket histograms,
// optionally labeled. Metrics register once (by name) and are safe
// for concurrent use; WriteText renders the whole registry in
// Prometheus text exposition format:
//
//	reg := obs.NewRegistry()
//	jobs := reg.Counter("rnuca_jobs_submitted_total", "Jobs accepted.")
//	dur := reg.HistogramVec("rnuca_job_duration_seconds",
//	    "Job wall-clock by kind and outcome.",
//	    obs.DefSecondsBuckets(), "kind", "outcome")
//	jobs.Inc()
//	dur.With("sim", "completed").Observe(1.23)
//	reg.WriteText(w)
//
// Collection hooks (Registry.OnCollect) run under the render lock
// immediately before encoding, so a hook that snapshots several
// related values under one application mutex produces a mutually
// consistent scrape: gauges updated together are rendered together.
// internal/serve uses this to keep its queued/running/submitted
// family free of mid-flight skew.
//
// # Latency quantiles and windows
//
// Every latency quantile the repo reports comes from one routine:
// linear interpolation inside the bucket where a histogram's
// cumulative count crosses the target rank (Histogram.Quantile).
// Snapshot adds the exact count, mean, min and max, and clamps each
// quantile to [Min, Max], so P50 <= P90 <= P95 <= P99 <= Max.
//
// Latencies share one bucket layout: 255 log-spaced bounds from 1µs to
// about an hour, adjacent bounds 2^(1/8) apart. A reported quantile and
// the exact order statistic it estimates lie in the same bucket, so
// they differ by less than 9.05% of the larger one, or by at most 1µs
// in the first bucket. NewLatencyHistogram is a cumulative histogram
// over that layout (rnuca-load's client-side view).
//
// Window is a sliding view over the same layout: a ring of six
// sub-histograms of 10s each, so it summarizes the trailing minute
// (WindowSpan), and old observations age out 10s at a time; a window
// idle for a whole minute empties. A query adds the live sub-windows'
// bucket counts, which merges them exactly, with no sampling, seeds or
// weights, and then interpolates. FractionBelow reads the same counts
// for SLO attainment. Every Window method takes the current time, so
// a window is a pure function of its inputs and tests need no clock.
// A Window does no locking: internal/serve keeps one per job kind and
// route under the mutex of its latency tracker.
//
// # Spans
//
// A Trace is a bounded, concurrency-safe span buffer. StartSpan
// reads the Trace from a context and is a no-op (returning a nil
// span whose methods are safe) when none is attached, so library
// code can instrument unconditionally:
//
//	ctx := obs.ContextWithTrace(ctx, obs.NewTrace(0))
//	sp := obs.StartSpan(ctx, "sim.cell")
//	sp.SetAttr("design", "R")
//	defer sp.End()
//
// Ended spans accumulate in the Trace's ring (oldest dropped past
// capacity); Trace.Spans returns them for JSON export and
// Trace.Stages aggregates them into a per-stage wall-clock
// breakdown (rnuca.Result.Timing). The span names used across the
// pipeline are: job.queue, job.run, cache.lookup, replay.setup,
// workload.setup, sim.cell, result.fold, classify.pass,
// convert.ingest, and figure.build.
package obs
