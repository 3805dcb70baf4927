// Package obs is the repo's dependency-free observability layer: a
// metrics registry with a Prometheus text encoder, and a lightweight
// span API for per-stage job timing.
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
