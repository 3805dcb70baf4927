package resultcache

import (
	"encoding/json"

	"rnuca"
)

// Cache-key canonicalization. A key names one simulation cell, and it
// is nothing more than the canonical JSON encoding of a single-design
// rnuca.Job (see rnuca.Job.MarshalJSON):
//
//	"job|" + canonical-job-JSON
//
// Two calls with equal keys are guaranteed to produce bit-identical
// Results because the canonical encoding is key-stable by
// construction — everything that can change a Result is inside it,
// and everything that provably cannot is excluded at the source
// rather than by a hand-maintained exclusion list here:
//
//   - Input.Sharded is not serialized: sharded replay is bit-identical
//     to sequential (only chunk decompression is parallelized,
//     consumption order is preserved), so both populate and hit the
//     same entry.
//   - RunOptions.Progress is not serialized: the callback observes the
//     run, it cannot perturb the deterministic timing model.
//   - Trace- and corpus-backed inputs both encode as the content
//     digest, so a path-backed replay hits the entry a store-backed
//     one populated (and vice versa).
//   - Warm/Measure are encoded as given, zeros unresolved: 0 means
//     "the default split", itself a deterministic function of the
//     source, so "0" and the spelled-out default are distinct keys for
//     identical results — a missed dedup, never a wrong hit.
//   - Maker jobs and unresolved corpus names have no canonical
//     encoding; JobKey reports ok=false and the caller must skip the
//     cache.
//
// Methodology variants that share a DesignID but differ in results
// (the campaign's single-variant ASR versus the paper's best-of-six)
// key under a distinct design label ("A/adaptive") in the job's
// Designs list — the label never executes, it only names the cell.

// JobKey builds the canonical cache key for one simulation cell. ok
// is false when the job has no canonical encoding and its result must
// not be cached.
func JobKey(j rnuca.Job) (key string, ok bool) {
	if in := j.Input; in.Replays() {
		// The wire encoding tolerates an unresolved {"ref": name} for
		// clients posting to a server that owns the store; a cache key
		// must not — a name is mutable, only content digests are.
		if _, err := in.Digest(); err != nil {
			return "", false
		}
	}
	b, err := json.Marshal(j)
	if err != nil {
		return "", false
	}
	return "job|" + string(b), true
}
