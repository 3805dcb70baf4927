package sim

import (
	"fmt"

	"rnuca/internal/cache"
	"rnuca/internal/obs/flight"
	"rnuca/internal/ospage"
	"rnuca/internal/trace"
)

// Design is one L2 organization (private, ASR, shared, R-NUCA, ideal).
// Implementations live in internal/design; the engine drives them through
// this interface.
type Design interface {
	// Name returns the design's short name ("P", "A", "S", "R", "I").
	Name() string
	// Access services one L2 reference, updating all cache/coherence
	// state and returning the latency decomposition.
	Access(r trace.Ref) Cost
	// Advance closes a contention/adaptation window.
	Advance(cycles uint64)
	// Reset clears design state for a fresh run.
	Reset()
}

// Classifier is implemented by designs that classify accesses (R-NUCA).
// The engine uses it to measure classification accuracy (§5.2).
type Classifier interface {
	// LastPlacementClass returns the class used to place the most recent
	// access.
	LastPlacementClass() cache.Class
}

// BankMeter is implemented by designs that expose cumulative per-slice
// (bank) L2 access counts, tile order. The flight recorder snapshots it
// at epoch boundaries; all five designs implement it.
type BankMeter interface {
	BankAccesses() []uint64
}

// TransitionMeter is implemented by designs backed by the OS page
// classifier (R-NUCA), exposing its cumulative transition counters for
// the flight recorder.
type TransitionMeter interface {
	OSTransitions() ospage.Transitions
}

// Result carries everything a simulation run measured.
//
//rnuca:wire
type Result struct {
	Design       string `json:"Design"`
	Workload     string `json:"Workload"`
	Instructions uint64 `json:"Instructions"`
	Refs         uint64 `json:"Refs"`
	// Cycles is the summed per-core cycle count over the measurement.
	Cycles float64 `json:"Cycles"`
	// CPIStack[b] is cycles-per-instruction charged to bucket b.
	CPIStack [NumBuckets]float64 `json:"CPIStack"`
	// ClassCycles[class][bucket] restricts bucket cycles to loads and
	// instruction fetches of each ground-truth class (Figures 8-10).
	ClassCycles [4][NumBuckets]float64 `json:"ClassCycles"`
	// OffChipMisses counts memory accesses.
	OffChipMisses uint64 `json:"OffChipMisses"`
	// Classification accuracy (§5.2), filled when the design classifies.
	MixedPageAccesses     uint64 `json:"MixedPageAccesses"`
	MisclassifiedAccesses uint64 `json:"MisclassifiedAccesses"`
	ClassifiedAccesses    uint64 `json:"ClassifiedAccesses"`
	// Interconnect traffic during the measurement.
	NetMessages uint64 `json:"NetMessages"`
	NetFlitHops uint64 `json:"NetFlitHops"`
	// NetWaitCycles is the total time messages spent queued on busy links
	// (only non-zero under the link-queue contention model).
	NetWaitCycles float64 `json:"NetWaitCycles"`
}

// CPI returns the total cycles per instruction.
func (r Result) CPI() float64 {
	if r.Instructions == 0 {
		return 0
	}
	return r.Cycles / float64(r.Instructions)
}

// Speedup returns the throughput improvement of this result over a
// baseline: CPI_base / CPI_this - 1.
func (r Result) Speedup(base Result) float64 {
	if r.CPI() == 0 {
		return 0
	}
	return base.CPI()/r.CPI() - 1
}

// Engine drives one design with per-core reference streams.
type Engine struct {
	ch      *Chassis
	design  Design
	streams []trace.Stream

	// OffChipMLP divides off-chip data-miss latency to model the
	// memory-level parallelism of the out-of-order cores: the 96-entry
	// ROB and the 32 MSHRs of Table 1 overlap independent misses, and
	// this analytic engine folds their effect into the divisor.
	// Workloads set it from their specs; 1 means fully serialized misses.
	OffChipMLP float64

	clocks []float64

	// Progress, when non-nil, is observed every progressEvery consumed
	// references (warmup included) with the count consumed so far; a
	// false return stops the run early, leaving partial accounting in
	// the Result. The callback only reads the loop counter, so its
	// presence cannot perturb the deterministic timing model — a run
	// that completes under observation is bit-identical to an
	// unobserved one. The serving layer (internal/serve) uses it for
	// job cancellation and live progress.
	Progress func(consumed int) bool

	// Flight, when non-nil, receives a cumulative counter snapshot every
	// Flight.Every() *measured* references (plus a final partial flush).
	// Like Progress, it only observes state the engine accumulates
	// anyway and feeds nothing back into timing, so an instrumented run
	// is bit-identical to a bare one.
	Flight *flight.Recorder

	// Page-class tracking for the §5.2 experiment: ground-truth classes
	// observed per page, and measured accesses per page.
	pageMask  map[uint64]uint8
	pageCount map[uint64]uint64
}

// progressEvery is the Progress observation period, in consumed
// references: frequent enough that cancellation lands within
// milliseconds, rare enough to stay invisible in profiles. It is a
// power of two, so the per-reference modulo needs no division.
const progressEvery = 8192

// NewEngineSource builds an engine fed by a multiplexed RefSource (a
// trace reader, a workload source, or any other implementation) instead
// of per-core streams: the source is demultiplexed by each ref's Core
// field, so the engine's min-clock scheduling is unchanged.
func NewEngineSource(ch *Chassis, d Design, src trace.RefSource) *Engine {
	return NewEngine(ch, d, trace.Demux(src, ch.Cfg.Cores))
}

// NewEngine builds an engine. streams must provide one stream per core.
func NewEngine(ch *Chassis, d Design, streams []trace.Stream) *Engine {
	if len(streams) != ch.Cfg.Cores {
		panic(fmt.Sprintf("sim: %d streams for %d cores", len(streams), ch.Cfg.Cores))
	}
	return &Engine{
		ch: ch, design: d, streams: streams,
		OffChipMLP: 1,
		clocks:     make([]float64, ch.Cfg.Cores),
		pageMask:   make(map[uint64]uint8),
		pageCount:  make(map[uint64]uint64),
	}
}

// Run executes warm references without accounting, then measure references
// with accounting, and returns the result. The reference counts are
// chip-wide totals.
func (e *Engine) Run(warm, measure int) Result {
	res := Result{Design: e.design.Name()}
	classifier, hasClassifier := e.design.(Classifier)

	lastWindow := 0.0
	window := float64(e.ch.Cfg.WindowCycles)
	var netStart struct{ msgs, flits uint64 }

	var fl *flightState
	if e.Flight != nil {
		fl = newFlightState(e)
	}

	// The per-ref loop is the reproduction's critical path: everything
	// per-iteration must stay allocation-free, and every waiver below
	// marks a deliberate exception (a designed interface seam or
	// measurement-only map accounting).
	//rnuca:hotpath
	for i := 0; i < warm+measure; i++ {
		if e.Progress != nil && i > 0 && i%progressEvery == 0 && !e.Progress(i) {
			break
		}
		measuring := i >= warm
		if i == warm {
			st := e.ch.Net.TotalStats()
			netStart.msgs, netStart.flits = st.Messages, st.FlitHops
			if fl != nil {
				// Baseline the recorder so warmup activity (bank
				// accesses, link flits, OS transitions) is excluded
				// from the first epoch's delta.
				fl.rec.Baseline(fl.sample(e))
			}
		}
		core := e.nextCore()
		// The link-queue contention model resolves each message against
		// per-link occupancy at the requestor's current simulated time.
		e.ch.Net.SetNow(e.clocks[core])
		//rnuca:alloc-ok trace.Stream is the per-core feed abstraction; concrete streams are devirtualized in profiles that matter (synthetic + mmap replay)
		r := e.streams[core].Next()
		if r.Core != core {
			// Streams are per-core; enforce agreement so accounting can
			// trust the record.
			r.Core = core
		}

		//rnuca:alloc-ok the engine/design boundary is the one deliberate dynamic dispatch per reference
		cost := e.design.Access(r)
		// Memory-level parallelism overlaps independent *data* misses
		// (ROB + MSHRs); instruction-fetch misses stall the front end
		// and serialize, so they are charged in full.
		offchip := cost.OffChip
		if r.Kind != trace.IFetch {
			offchip /= e.OffChipMLP
		}
		total := cost.L1toL1 + cost.L2 + cost.L2Coh + offchip + cost.Reclass
		busy := float64(r.Busy)
		e.clocks[core] += busy + total

		if measuring {
			res.Refs++
			res.Instructions += uint64(r.Busy)
			res.Cycles += busy + total
			res.CPIStack[BucketBusy] += busy
			res.CPIStack[BucketReclass] += cost.Reclass
			if cost.OffChipMiss {
				res.OffChipMisses++
			}
			if r.IsWrite() {
				// Store latency is charged to Other (§5.3: the paper
				// accounts store latency in "other" citing store-wait-free
				// proposals).
				res.CPIStack[BucketOther] += total - cost.Reclass
			} else {
				res.CPIStack[BucketL1toL1] += cost.L1toL1
				res.CPIStack[BucketL2] += cost.L2
				res.CPIStack[BucketL2Coh] += cost.L2Coh
				res.CPIStack[BucketOffChip] += offchip
				cc := &res.ClassCycles[r.Class]
				cc[BucketL1toL1] += cost.L1toL1
				cc[BucketL2] += cost.L2
				cc[BucketL2Coh] += cost.L2Coh
				cc[BucketOffChip] += offchip
			}

			// Classification accuracy bookkeeping (§5.2). Mixed-page
			// accesses are tallied after the run, once each page's full
			// class set is known.
			page := r.Addr / uint64(e.ch.Cfg.PageBytes)
			//rnuca:alloc-ok §5.2 accuracy accounting needs per-page ground truth; pages are sparse in the address space so a map is the honest structure
			e.pageMask[page] |= 1 << uint(r.Class)
			//rnuca:alloc-ok same sparse per-page accounting as the mask above
			e.pageCount[page]++
			if hasClassifier {
				res.ClassifiedAccesses++
				//rnuca:alloc-ok Classifier is an optional capability interface; only R-NUCA implements it and the call is one predicted branch
				if classifier.LastPlacementClass() != r.Class {
					res.MisclassifiedAccesses++
				}
			}

			if fl != nil {
				fl.coreCycles[core] += busy + total
				fl.coreInstrs[core] += uint64(r.Busy)
				fl.classAcc[r.Class]++
				if cost.OffChipMiss {
					fl.classMiss[r.Class]++
				}
				fl.measured++
				if fl.measured%uint64(fl.every) == 0 {
					fl.rec.Observe(fl.sample(e))
				}
			}
		}

		// Close contention windows when every core has passed the mark.
		if min := e.minClock(); min-lastWindow >= window {
			e.ch.Advance(uint64(window))
			//rnuca:alloc-ok window close: one dispatch amortized over WindowCycles references
			e.design.Advance(uint64(window))
			lastWindow = min
		}
	}

	st := e.ch.Net.TotalStats()
	res.NetMessages = st.Messages - netStart.msgs
	res.NetFlitHops = st.FlitHops - netStart.flits
	res.NetWaitCycles = e.ch.Net.WaitCycles()

	if fl != nil {
		// Flush the final partial epoch (a no-op if the run ended
		// exactly on a boundary) and record the link-lane labels now
		// that the first-traversal order is final.
		fl.rec.Observe(fl.sample(e))
		links, _ := e.ch.Net.LinkTraffic()
		labels := make([]string, len(links))
		for i, l := range links {
			labels[i] = l.String()
		}
		fl.rec.SetLinks(labels)
	}

	// Accesses to pages holding more than one class, over the whole
	// measurement (the paper reports 6-26% for its workloads).
	for page, mask := range e.pageMask {
		if mask&(mask-1) != 0 {
			res.MixedPageAccesses += e.pageCount[page]
		}
	}

	// Normalize bucket cycles into CPI.
	if res.Instructions > 0 {
		inv := 1 / float64(res.Instructions)
		for b := range res.CPIStack {
			res.CPIStack[b] *= inv
		}
		for c := range res.ClassCycles {
			for b := range res.ClassCycles[c] {
				res.ClassCycles[c][b] *= inv
			}
		}
	}
	return res
}

// nextCore picks the core with the smallest local clock, modelling cores
// that advance independently and interact only through shared hardware.
func (e *Engine) nextCore() int {
	best := 0
	for c := 1; c < len(e.clocks); c++ {
		if e.clocks[c] < e.clocks[best] {
			best = c
		}
	}
	return best
}

// flightState holds the per-run counters the flight recorder samples.
// They live beside — never inside — the Result accounting, so removing
// the recorder removes every byte of its state.
type flightState struct {
	rec   *flight.Recorder
	every int

	measured   uint64
	coreCycles []float64
	coreInstrs []uint64
	classAcc   [flight.NumClasses]uint64
	classMiss  [flight.NumClasses]uint64

	banks BankMeter       // nil when the design has no bank meter
	trans TransitionMeter // nil for designs without an OS classifier
}

func newFlightState(e *Engine) *flightState {
	fl := &flightState{
		rec:        e.Flight,
		every:      e.Flight.Every(),
		coreCycles: make([]float64, e.ch.Cfg.Cores),
		coreInstrs: make([]uint64, e.ch.Cfg.Cores),
	}
	fl.banks, _ = e.design.(BankMeter)
	fl.trans, _ = e.design.(TransitionMeter)
	// Per-link flit accounting is only paid for when a recorder is
	// attached; it reads routes but never charges latency.
	e.ch.Net.EnableLinkAccounting()
	return fl
}

// sample snapshots the cumulative counters for the recorder.
func (f *flightState) sample(e *Engine) flight.Sample {
	s := flight.Sample{
		Refs:          f.measured,
		CoreCycles:    append([]float64(nil), f.coreCycles...),
		CoreInstrs:    append([]uint64(nil), f.coreInstrs...),
		ClassAccesses: f.classAcc,
		ClassMisses:   f.classMiss,
	}
	if f.banks != nil {
		s.BankAccesses = f.banks.BankAccesses()
	}
	if f.trans != nil {
		s.Transitions = flight.Transitions(f.trans.OSTransitions())
	}
	_, s.LinkFlits = e.ch.Net.LinkTraffic()
	return s
}

func (e *Engine) minClock() float64 {
	m := e.clocks[0]
	for _, c := range e.clocks[1:] {
		if c < m {
			m = c
		}
	}
	return m
}
