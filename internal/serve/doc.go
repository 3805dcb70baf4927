// Package serve is the rnuca simulation service: a long-running HTTP
// JSON API that owns a content-addressed corpus store
// (internal/corpus), executes simulation jobs on a bounded worker
// pool, and memoizes results behind a singleflight LRU
// (internal/resultcache) — the layer that turns the record/replay/
// ingest pipeline of the earlier subsystems into a system that takes
// traffic. cmd/rnuca-serve is the binary.
//
// # Job API
//
// POST /v1/jobs submits a job and returns 202 with its status;
// GET /v1/jobs/{id} polls it; DELETE cancels. The canonical
// simulation payload is an rnuca.Job encoding — the service defines
// no parallel spec structs, so what the library runs is exactly what
// crosses the wire, and the result cache keys by the same bytes:
//
//	sim      a canonical rnuca.Job, inline (kind "sim" implied) or
//	         nested under "job"
//	         {"input":{"corpus":{"ref":"oltp"}},"designs":["R"],
//	          "options":{"warm":200000,"measure":400000,"batches":1}}
//	         {"input":{"workload":"OLTP-DB2"},"designs":["P","R"]}
//	convert  ingest foreign traces (Dinero/ChampSim/CSV) into the
//	         corpus store; inputs must live under the configured
//	         ingest directory (-ingest) — the API is unauthenticated,
//	         so jobs may not point the server at arbitrary paths
//	         {"kind":"convert","convert":{"inputs":["/ingest/a.din"]}}
//	figure   the ingested-corpus table suite (Figure 2–5 analyses +
//	         Figure 12 comparison) over stored corpora
//	         {"kind":"figure","figure":{"corpora":["oltp"],
//	          "scale":{"trace_refs":150000}}}
//
// Workload inputs accept a catalog name or a full spec; corpus inputs
// accept a digest, unique digest prefix, or store name, resolved (and
// pinned to the content digest) at submission. Multi-design sim jobs
// are the Figure 12 sweep. Specs are validated at submission: unknown
// workloads, designs, corpus references, and negative options are
// rejected with 400 before anything queues.
//
// # Progress and cancellation
//
// Every job carries a context.Context, which is the library's own
// cancellation path (rnuca.Job.Run): queued jobs cancel instantly;
// running simulations stop at the engine's next progress observation
// (a few thousand simulated references); figure jobs thread the
// context through experiments.Campaign.SetContext and cancel
// mid-simulation, not just between stages; convert jobs check between
// pipeline stages. GET /v1/jobs/{id}/events (or Accept:
// text/event-stream on the job URL) streams SSE "status" events —
// with live done_refs/total_refs from the pure-observation
// RunOptions.Progress hook — and one final "done" event carrying the
// terminal status and result.
//
// # Result cache
//
// Every simulation cell is keyed by the canonical JSON encoding of
// its single-design rnuca.Job (see internal/resultcache): knobs that
// provably cannot change results (decode sharding, progress
// observation) are excluded from the encoding by construction, so a
// sharded replay hits the entry a sequential one populated. Identical
// in-flight requests share one computation (singleflight); finished
// cells serve from an LRU. Figure builds additionally memoize the
// whole rendered table set under the digest list + scale, and the
// campaign inside shares the same cell cache, so a repeated figure
// build over an unchanged corpus performs zero simulation. A canceled
// computation is never cached.
//
// # Corpus endpoints
//
// GET /v1/corpora lists manifests; POST uploads a trace (raw bytes,
// ?name= binds a reference); GET /v1/corpora/{ref} returns a manifest
// (?verify=1 re-hashes and re-decodes the object first); DELETE drops
// a name; POST /v1/corpora/gc removes unreferenced objects.
//
// # Observability and drain
//
// GET /metrics renders an internal/obs registry in the Prometheus
// text format. The job ledger (rnuca_jobs_submitted_total,
// _completed_total, _failed_total, _canceled_total, _rejected_total,
// rnuca_jobs_queued, rnuca_jobs_running) is copied from one mutex-
// guarded snapshot per scrape, so the series are mutually consistent
// — submitted always equals completed+failed+canceled+queued+running
// within a single response. Durations land in per-kind histograms:
// rnuca_job_duration_seconds{kind,outcome} and
// rnuca_job_queue_wait_seconds{kind}. The result cache exports
// rnuca_result_cache_{hits,misses,shared,errors,evictions}_total and
// _entries; the store exports rnuca_corpus_{objects,bytes}; the
// references of every cell the server simulates, sim and figure jobs
// alike, accumulate in rnuca_engine_refs_simulated_total.
//
// Every job also buffers per-stage spans (internal/obs.Trace) —
// job.queue, job.run, cache.lookup, replay.setup, cell.wait,
// workload.setup, sim.cell, result.fold, classify.pass,
// convert.ingest, figure.build — which GET /v1/jobs/{id}/trace returns
// with a per-stage aggregation (summed seconds, and the wall seconds
// their union covers). A compare job's designs run together, and its
// cells share the process-wide cell slots (internal/cellpool) with
// every other job's; cell.wait is a cell's wait for one.
// A sim job's designs and a figure job's campaign cells take one path,
// resultcache.Cache.Run, so both record a cache.lookup span per cell
// and the spans of the cells they compute; a job that joined another
// job's identical flight (outcome "shared") records only its lookup.
//
// On SIGTERM, cmd/rnuca-serve stops accepting jobs (503), finishes
// what is queued and running (Server.Drain), then exits; a second
// signal force-cancels via Server.Close.
package serve
