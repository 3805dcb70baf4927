package workload

import (
	"rnuca/internal/cache"
	"rnuca/internal/stats"
	"rnuca/internal/trace"
)

// Address-space layout. Regions are disjoint and page-aligned; private
// regions are spaced far enough apart for the largest footprints.
const (
	instrBase    = 0x1000_0000
	sharedBase   = 0x4000_0000
	sharedROBase = 0xC000_0000
	privateBase  = 0x1_0000_0000
	privateStep  = 0x1000_0000 // 256 MB per core

	blockBytes = 64
	pageBytes  = 8192
	pageBlocks = pageBytes / blockBytes

	// Mixed pages devote their last mixedBlocksPerPage blocks to one
	// core's private lines (§5.2's multi-class pages).
	mixedBlocksPerPage = 8
)

// Generator produces one core's reference stream for a Spec.
type Generator struct {
	spec Spec
	core int
	rng  *stats.RNG

	// refs counts generated references; with MigrationPeriod set, the
	// running thread is (core + refs/period) mod Cores. All cores rotate
	// in lockstep so the thread-to-core map stays a permutation.
	refs int64

	instr    *stats.Zipf
	private  *stats.Zipf
	shared   *stats.Zipf
	sharedRO *stats.Zipf

	scanPtr int64 // sequential scan cursor over the private region

	// recentInstr is a small ring of recently fetched instruction blocks
	// feeding the temporal-burst model.
	recentInstr [256]int
	recentLen   int
	recentPos   int

	// Mixed-page bookkeeping: the first mixedPages pages of the shared
	// region (its hottest, under the Zipf ranking) also hold private
	// lines; page p belongs to core p % Cores.
	mixedPages  int64
	myMixPages  []int64
	sharedPages int64
}

// NewGenerator builds the stream for one core. Streams with the same spec
// and core are identical across runs (seeded by spec.Seed and core).
func NewGenerator(spec Spec, core int) *Generator {
	if err := spec.Validate(); err != nil {
		panic(err)
	}
	if core < 0 || core >= spec.Cores {
		panic("workload: core out of range")
	}
	rng := stats.NewRNG(spec.Seed*1_000_003 + uint64(core)*7919)
	g := &Generator{spec: spec, core: core, rng: rng}

	instrBlocks, privBlocks, sharedBlocks, roBlocks := spec.ranks(core)
	g.instr = stats.NewZipf(rng.Split(), instrBlocks, spec.InstrSkew)
	g.private = stats.NewZipf(rng.Split(), privBlocks, spec.PrivateSkew)
	g.shared = stats.NewZipf(rng.Split(), sharedBlocks, spec.SharedSkew)
	g.sharedRO = stats.NewZipf(rng.Split(), roBlocks, spec.SharedSkew)

	g.sharedPages = int64(sharedBlocks) / pageBlocks
	g.mixedPages = int64(spec.MixedHotPages)
	if g.mixedPages > g.sharedPages {
		g.mixedPages = g.sharedPages
	}
	for p := int64(0); p < g.mixedPages; p++ {
		if int(p)%spec.Cores == g.core {
			g.myMixPages = append(g.myMixPages, p)
		}
	}
	// Start scans at a per-core offset so cores stream different parts of
	// the table, as partitioned scans do.
	if privBlocks > 0 {
		g.scanPtr = int64(core) * int64(privBlocks) / int64(spec.Cores)
	}
	return g
}

// ranks returns the rank counts of a core's four Zipf tables: its
// instruction, private, shared read-write and shared read-only blocks.
func (spec Spec) ranks(core int) (instr, private, shared, sharedRO int) {
	privBytes := spec.PrivatePerCore
	if spec.PrivateFootprints != nil {
		privBytes = spec.PrivateFootprints[core]
	}
	sharedRO = int(spec.SharedROFootprint / blockBytes)
	if sharedRO < 1 {
		sharedRO = 1
	}
	return int(spec.InstrFootprint / blockBytes), int(privBytes / blockBytes),
		int(spec.SharedFootprint / blockBytes), sharedRO
}

// Next implements trace.Stream.
func (g *Generator) Next() trace.Ref {
	s := &g.spec
	r := trace.Ref{
		Core:   g.core,
		Thread: g.thread(),
		Busy:   g.busy(),
	}
	g.refs++
	x := g.rng.Float64()
	switch {
	case x < s.FracInstr:
		g.genInstr(&r)
	case x < s.FracInstr+s.FracPrivate:
		g.genPrivate(&r)
	case x < s.FracInstr+s.FracPrivate+s.FracSharedRW:
		g.genSharedRW(&r)
	default:
		g.genSharedRO(&r)
	}
	return r
}

// thread returns the software thread currently scheduled on this core.
func (g *Generator) thread() int {
	if g.spec.MigrationPeriod <= 0 {
		return g.core
	}
	rot := int(g.refs / int64(g.spec.MigrationPeriod))
	return (g.core + rot) % g.spec.Cores
}

func (g *Generator) busy() int {
	b := g.spec.BusyPerRef
	// Uniform in [b/2, 3b/2] keeps determinism and the mean at b.
	return b/2 + g.rng.Intn(b+1)
}

func (g *Generator) genInstr(r *trace.Ref) {
	r.Kind = trace.IFetch
	r.Class = cache.ClassInstruction
	var block int
	if g.recentLen > 0 && g.rng.Bool(g.spec.InstrBurst) {
		block = g.recentInstr[g.rng.Intn(g.recentLen)]
	} else {
		block = g.instr.Draw()
		g.recentInstr[g.recentPos] = block
		g.recentPos = (g.recentPos + 1) % len(g.recentInstr)
		if g.recentLen < len(g.recentInstr) {
			g.recentLen++
		}
	}
	r.Addr = instrBase + uint64(block)*blockBytes
}

func (g *Generator) genPrivate(r *trace.Ref) {
	r.Class = cache.ClassPrivate
	r.Kind = trace.Load
	if g.rng.Bool(g.spec.PrivateWriteFrac) {
		r.Kind = trace.Store
	}
	// A small fraction of private accesses live on mixed shared pages
	// (§5.2): lines this core alone touches, on pages dominated by
	// shared data.
	if len(g.myMixPages) > 0 && g.rng.Bool(g.spec.MixedPrivFrac) {
		page := g.myMixPages[g.rng.Intn(len(g.myMixPages))]
		off := int64(pageBlocks - mixedBlocksPerPage + g.rng.Intn(mixedBlocksPerPage))
		r.Addr = sharedBase + uint64(page*pageBytes+off*blockBytes)
		return
	}
	var block int64
	if g.rng.Bool(g.spec.PrivateSeqFrac) {
		// Streaming scan: sequential blocks, wrapping over the footprint.
		block = g.scanPtr
		g.scanPtr++
		if g.scanPtr >= int64(g.private.N()) {
			g.scanPtr = 0
		}
	} else {
		block = int64(g.private.Draw())
	}
	// Private data belongs to the software thread, not the core: after a
	// migration the thread keeps accessing its own region from its new
	// core, which is exactly what drives the OS re-own path.
	r.Addr = uint64(privateBase) + uint64(r.Thread)*uint64(privateStep) + uint64(block)*blockBytes
}

func (g *Generator) genSharedRW(r *trace.Ref) {
	r.Class = cache.ClassShared
	r.Kind = trace.Load
	if g.rng.Bool(g.spec.SharedWriteFrac) {
		r.Kind = trace.Store
	}
	block := int64(g.shared.Draw())
	if g.spec.NeighborSharing {
		// Producer-consumer: the shared region is partitioned into
		// per-ring-segment slices; core c touches segments c and c-1, so
		// each segment is shared by exactly two neighbors.
		n := int64(g.spec.Cores)
		segLen := int64(g.shared.N()) / n
		if segLen > 0 {
			seg := int64(g.core)
			if g.rng.Bool(0.5) {
				seg = (seg - 1 + n) % n
			}
			block = seg*segLen + block%segLen
		}
	}
	// Steer mixed-page draws away from the private tail blocks.
	page := block / pageBlocks
	off := block % pageBlocks
	if page < g.mixedPages && off >= pageBlocks-mixedBlocksPerPage {
		off -= mixedBlocksPerPage
	}
	r.Addr = sharedBase + uint64(page*pageBytes+off*blockBytes)
}

func (g *Generator) genSharedRO(r *trace.Ref) {
	r.Class = cache.ClassShared
	r.Kind = trace.Load
	r.Addr = sharedROBase + uint64(g.sharedRO.Draw())*blockBytes
}

// Streams builds the per-core streams for a spec.
func Streams(spec Spec) []trace.Stream {
	out := make([]trace.Stream, spec.Cores)
	for c := 0; c < spec.Cores; c++ {
		out[c] = NewGenerator(spec, c)
	}
	return out
}
