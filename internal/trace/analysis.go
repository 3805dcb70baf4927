package trace

import (
	"sort"

	"rnuca/internal/cache"
	"rnuca/internal/stats"
)

// blockInfo accumulates per-block facts used by every analysis.
type blockInfo struct {
	sharers  uint64 // bitmask of cores that touched the block
	accesses uint64
	written  bool
	isInstr  bool

	// Reuse tracking (Figure 5).
	lastCore   int
	runLen     int // consecutive accesses by lastCore
	runHist    [5]uint64
	sharedRuns [5]uint64
	// perCore[c] counts core c's accesses since the last write to this
	// block by a different core (lazily sized).
	perCore []uint32
}

// Analyzer consumes a reference stream and regenerates the paper's
// characterization figures. Feed it the L2 access stream (post-L1 misses).
type Analyzer struct {
	blocks map[cache.Addr]*blockInfo
	total  uint64
	cores  int
}

// NewAnalyzer builds an analyzer for a machine with the given core count.
func NewAnalyzer(cores int) *Analyzer {
	return &Analyzer{blocks: make(map[cache.Addr]*blockInfo), cores: cores}
}

// Observe records one reference.
func (a *Analyzer) Observe(r Ref) {
	a.total++
	b := a.blocks[r.BlockAddr()]
	if b == nil {
		b = &blockInfo{lastCore: -1}
		a.blocks[r.BlockAddr()] = b
	}
	b.accesses++
	b.sharers |= 1 << uint(r.Core%64)
	if r.IsWrite() {
		b.written = true
	}
	if r.Kind == IFetch {
		b.isInstr = true
	}

	// Reuse runs (Figure 5 left: 1st, 2nd, 3rd-4th, 5th-8th, 9+ access by
	// the same core without an intervening access by another core).
	if r.Core == b.lastCore {
		b.runLen++
	} else {
		b.lastCore = r.Core
		b.runLen = 1
	}
	b.runHist[runBucket(b.runLen)]++

	// Shared-data reuse between writes (Figure 5 right): per core, count
	// accesses since the last write by a *different* core. Reads by other
	// cores do not reset a core's run; a foreign write resets everyone
	// else's.
	if b.perCore == nil {
		b.perCore = make([]uint32, a.cores)
	}
	if r.Core < a.cores {
		b.perCore[r.Core]++
		b.sharedRuns[runBucket(int(b.perCore[r.Core]))]++
		if r.IsWrite() {
			for c := range b.perCore {
				if c != r.Core {
					b.perCore[c] = 0
				}
			}
		}
	}
}

// runBucket maps an access ordinal to the Figure 5 bucket.
func runBucket(n int) int {
	switch {
	case n <= 1:
		return 0
	case n == 2:
		return 1
	case n <= 4:
		return 2
	case n <= 8:
		return 3
	default:
		return 4
	}
}

// RunBucketLabels matches the Figure 5 legend.
func RunBucketLabels() [5]string {
	return [5]string{"1st access", "2nd access", "3rd-4th access", "5th-8th access", "9+ access"}
}

// Total returns the number of observed references.
func (a *Analyzer) Total() uint64 { return a.total }

// Bubble is one point of Figure 2: all blocks with the same sharer count
// and instruction/data classification, aggregated.
type Bubble struct {
	Sharers     int
	Instruction bool
	Private     bool // data blocks with exactly one sharer
	// RWFraction is the fraction of blocks in this bubble written at
	// least once (the Y axis of Figure 2).
	RWFraction float64
	// AccessShare is the bubble's share of all L2 accesses (diameter).
	AccessShare float64
	// Blocks is the number of distinct blocks aggregated.
	Blocks int
}

// ReferenceClustering computes Figure 2: one bubble per (sharer count,
// instruction/data) pair, ordered by sharer count with instruction bubbles
// first at each count.
func (a *Analyzer) ReferenceClustering() []Bubble {
	type key struct {
		sharers int
		instr   bool
	}
	agg := map[key]*Bubble{}
	for _, b := range a.blocks {
		k := key{popcount(b.sharers), b.isInstr}
		bb := agg[k]
		if bb == nil {
			bb = &Bubble{Sharers: k.sharers, Instruction: k.instr, Private: !k.instr && k.sharers == 1}
			agg[k] = bb
		}
		bb.Blocks++
		if b.written {
			bb.RWFraction++ // counts; normalized below
		}
		bb.AccessShare += float64(b.accesses)
	}
	var out []Bubble
	for _, bb := range agg {
		if bb.Blocks > 0 {
			bb.RWFraction /= float64(bb.Blocks)
		}
		if a.total > 0 {
			bb.AccessShare /= float64(a.total)
		}
		out = append(out, *bb)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Sharers != out[j].Sharers {
			return out[i].Sharers < out[j].Sharers
		}
		return out[i].Instruction && !out[j].Instruction
	})
	return out
}

// Breakdown is Figure 3: the L2 references to each of the four access
// classes, counted, beside the total.
type Breakdown struct {
	Instructions  uint64
	DataPrivate   uint64
	DataSharedRW  uint64
	DataSharedRO  uint64
	TotalAccesses uint64
}

// ReferenceBreakdown computes Figure 3 from block-level classification:
// instruction blocks, data blocks with one sharer (private), and data
// blocks with multiple sharers split by read-write behavior. The counts
// are exact, so the shares printed from them do not depend on the
// block map's iteration order.
func (a *Analyzer) ReferenceBreakdown() Breakdown {
	out := Breakdown{TotalAccesses: a.total}
	for _, b := range a.blocks {
		switch {
		case b.isInstr:
			out.Instructions += b.accesses
		case popcount(b.sharers) == 1:
			out.DataPrivate += b.accesses
		case b.written:
			out.DataSharedRW += b.accesses
		default:
			out.DataSharedRO += b.accesses
		}
	}
	return out
}

// WorkingSetCDF computes one curve of Figure 4 for the given class: the
// cumulative fraction of L2 references captured as the footprint grows,
// with blocks ordered hottest-first (the paper plots footprint KB on a log
// axis against cumulative references). class selects instruction, private
// (single-sharer data) or shared (multi-sharer data) blocks.
func (a *Analyzer) WorkingSetCDF(class cache.Class) *stats.CDF {
	type hot struct {
		accesses uint64
	}
	var sel []hot
	for _, b := range a.blocks {
		var c cache.Class
		switch {
		case b.isInstr:
			c = cache.ClassInstruction
		case popcount(b.sharers) == 1:
			c = cache.ClassPrivate
		default:
			c = cache.ClassShared
		}
		if c == class {
			sel = append(sel, hot{b.accesses})
		}
	}
	sort.Slice(sel, func(i, j int) bool { return sel[i].accesses > sel[j].accesses })
	cdf := stats.NewCDF()
	const blockKB = 64.0 / 1024.0
	for i, h := range sel {
		// x: cumulative footprint in KB when this block is included.
		cdf.Add(float64(i+1)*blockKB, float64(h.accesses))
	}
	return cdf
}

// ReuseHistogram returns the Figure 5 histograms. instr selects the
// instruction-reuse variant (same-core runs); otherwise the shared-data
// variant (same-core accesses between other cores' writes) over data
// blocks with more than one sharer.
func (a *Analyzer) ReuseHistogram(instr bool) [5]float64 {
	var counts [5]uint64
	var total uint64
	for _, b := range a.blocks {
		if instr != b.isInstr {
			continue
		}
		if !instr && popcount(b.sharers) <= 1 {
			continue
		}
		src := b.runHist
		if !instr {
			src = b.sharedRuns
		}
		for i, c := range src {
			counts[i] += c
			total += c
		}
	}
	var out [5]float64
	if total == 0 {
		return out
	}
	for i, c := range counts {
		out[i] = float64(c) / float64(total)
	}
	return out
}

// SharerHistogram returns, for data (or instruction) blocks, the fraction
// of L2 accesses going to blocks with each sharer count — the marginal of
// Figure 2 along its X axis.
func (a *Analyzer) SharerHistogram(instr bool) *stats.Histogram {
	h := stats.NewHistogram()
	for _, b := range a.blocks {
		if b.isInstr == instr {
			h.AddN(int64(popcount(b.sharers)), b.accesses)
		}
	}
	return h
}

func popcount(x uint64) int {
	n := 0
	for x != 0 {
		x &= x - 1
		n++
	}
	return n
}
