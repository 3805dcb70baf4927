package design

import (
	"fmt"

	"rnuca/internal/cache"
	"rnuca/internal/coherence"
	"rnuca/internal/sim"
	"rnuca/internal/stats"
	"rnuca/internal/trace"
)

// ASR is Adaptive Selective Replication (Beckmann et al., MICRO 2006) as
// the paper evaluates it (§5.1): the private design plus a mechanism that
// probabilistically declines to allocate clean shared blocks in the local
// L2 slice, trading replica proximity for effective capacity. The paper
// implements six versions — an adaptive one and five with static
// allocation probabilities {0, 0.25, 0.5, 0.75, 1} — and reports the best
// per workload; NewASRVariants builds the same six.
//
// Mechanism here: when a clean shared-class block (shared data read or
// instruction fetch) is serviced by a remote on-chip copy, ASR allocates
// it locally with probability p; declining leaves the remote copy as the
// block's only on-chip location, preserving capacity. Blocks fetched from
// memory always allocate (there is no other on-chip copy to rely on), as
// do private data and all written blocks.
type ASR struct {
	*Private
	prob     float64
	adaptive bool
	rng      *stats.RNG

	// Window counters driving the adaptive policy.
	winRemoteShared uint64 // remote fetches of clean shared blocks (cost of under-replication)
	winOffChip      uint64 // off-chip misses (cost of over-replication)
	winRefs         uint64
	prevMissRate    float64
	haveBaseline    bool
}

// NewASR builds an ASR design with a static allocation probability.
func NewASR(ch *sim.Chassis, p float64, seed uint64) *ASR {
	return &ASR{Private: NewPrivate(ch), prob: p, rng: stats.NewRNG(seed)}
}

// NewAdaptiveASR builds the adaptive variant, starting at p = 0.5.
func NewAdaptiveASR(ch *sim.Chassis, seed uint64) *ASR {
	a := NewASR(ch, 0.5, seed)
	a.adaptive = true
	return a
}

// asrProbs are the static allocation probabilities of the paper's ASR
// variants (§5.1).
var asrProbs = [...]float64{0, 0.25, 0.5, 0.75, 1}

// NumASRVariants is the number of ASR configurations the paper sweeps:
// the static probabilities plus the adaptive controller.
const NumASRVariants = len(asrProbs) + 1

// NewASRVariant builds ASR configuration v of NumASRVariants: the
// static probabilities 0, 0.25, 0.5, 0.75 and 1 in order, then the
// adaptive variant.
func NewASRVariant(ch *sim.Chassis, v int, seed uint64) *ASR {
	if v < len(asrProbs) {
		return NewASR(ch, asrProbs[v], seed)
	}
	return NewAdaptiveASR(ch, seed)
}

// NewASRVariants returns the paper's six ASR configurations on fresh
// chassis built by mkChassis (each variant needs its own hardware state).
func NewASRVariants(mk func() *sim.Chassis, seed uint64) []*ASR {
	out := make([]*ASR, NumASRVariants)
	for v := range out {
		out[v] = NewASRVariant(mk(), v, seed)
	}
	return out
}

// Name implements sim.Design.
func (d *ASR) Name() string {
	if d.adaptive {
		return "A"
	}
	return fmt.Sprintf("A%.2f", d.prob)
}

// Prob returns the current allocation probability.
func (d *ASR) Prob() float64 { return d.prob }

// Access implements sim.Design.
//
//rnuca:hotpath
func (d *ASR) Access(r trace.Ref) sim.Cost {
	cost, src := d.Private.access(r)
	d.winRefs++
	if cost.OffChipMiss {
		d.winOffChip++
	}

	// Selective allocation applies to clean shared-class blocks serviced
	// by a remote on-chip copy.
	cleanShared := !r.IsWrite() && (r.Class == cache.ClassShared || r.Class == cache.ClassInstruction)
	remote := src == coherence.SourceOwner || src == coherence.SourceSharer
	if cleanShared && remote {
		d.winRemoteShared++
		if !d.rng.Bool(d.prob) {
			// Decline the local replica: drop the just-installed copy,
			// keeping the remote one as the on-chip home.
			d.dropLocal(r.Core, r.BlockAddr())
		}
	}
	return cost
}

// Advance implements sim.Design: the adaptive variant compares this
// window's miss rate against the previous one and nudges the replication
// probability in the direction that helped, following the cost/benefit
// spirit of the original ASR controller.
func (d *ASR) Advance(c uint64) {
	d.Private.Advance(c)
	if !d.adaptive || d.winRefs == 0 {
		d.winRemoteShared, d.winOffChip, d.winRefs = 0, 0, 0
		return
	}
	missRate := float64(d.winOffChip) / float64(d.winRefs)
	remoteRate := float64(d.winRemoteShared) / float64(d.winRefs)
	switch {
	case !d.haveBaseline:
		// First window only establishes the baseline: cold misses say
		// nothing about replication pressure.
		d.haveBaseline = true
	case missRate > d.prevMissRate*1.05 && d.prob > 0:
		// Misses rising: replication is eating capacity; back off.
		d.prob -= 0.25
	case remoteRate > 0.02 && d.prob < 1:
		// Paying a noticeable remote-fetch rate while misses are stable:
		// replicate more aggressively.
		d.prob += 0.25
	}
	if d.prob < 0 {
		d.prob = 0
	}
	if d.prob > 1 {
		d.prob = 1
	}
	d.prevMissRate = missRate
	d.winRemoteShared, d.winOffChip, d.winRefs = 0, 0, 0
}

// Reset implements sim.Design.
func (d *ASR) Reset() {
	d.Private.Reset()
	d.winRemoteShared, d.winOffChip, d.winRefs = 0, 0, 0
	d.prevMissRate = 0
	d.haveBaseline = false
	if d.adaptive {
		d.prob = 0.5
	}
}
