package main

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"sort"
	"time"

	"rnuca"
	"rnuca/internal/cache"
	"rnuca/internal/noc"
	"rnuca/internal/obs"
	"rnuca/internal/obs/flight"
	"rnuca/internal/ospage"
	"rnuca/internal/sim"
	"rnuca/internal/trace"
)

// monoBase anchors mono: time.Since on a monotonic reading costs one
// clock read, where a time.Now/time.Since pair costs three.
var monoBase = time.Now()

// mono returns monotonic nanoseconds.
func mono() int64 { return int64(time.Since(monoBase)) }

// timerCalls is how many empty measurements calibrate the timer.
const timerCalls = 1 << 20

// calibrateTimer returns what one measured interval adds by itself: the
// mean reading of an interval with nothing inside it. The tracing
// wrappers subtract it from every call they time.
func calibrateTimer() float64 {
	var runs []float64
	for k := 0; k < 5; k++ {
		var sum int64
		for i := 0; i < timerCalls; i++ {
			t := mono()
			sum += mono() - t
		}
		runs = append(runs, float64(sum)/timerCalls)
	}
	return median(runs)
}

// tracedStream times a reference source from outside: every Next the
// engine makes on one core's stream adds its duration to a total shared
// by all cores (the engine is single-threaded).
type tracedStream struct {
	trace.Stream
	ns *int64
}

func (s tracedStream) Next() trace.Ref {
	t := mono()
	r := s.Stream.Next()
	*s.ns += mono() - t
	return r
}

// tracedDesign times every Access from outside and records the
// reference sequence the engine fed the design, for the sub-layer
// replays.
type tracedDesign struct {
	sim.Design
	ns   int64
	refs []trace.Ref
}

func (d *tracedDesign) Access(r trace.Ref) sim.Cost {
	t := mono()
	c := d.Design.Access(r)
	d.ns += mono() - t
	d.refs = append(d.refs, r)
	return c
}

// wrapDesign returns t as a sim.Design that also implements exactly the
// optional engine interfaces its inner design implements. The engine
// discovers them by type assertion, so a wrapper hiding Classifier
// would silently change R-NUCA's classification accounting.
func wrapDesign(t *tracedDesign) sim.Design {
	c, isC := t.Design.(sim.Classifier)
	b, isB := t.Design.(sim.BankMeter)
	m, isM := t.Design.(sim.TransitionMeter)
	switch {
	case isC && isB && isM:
		return struct {
			*tracedDesign
			sim.Classifier
			sim.BankMeter
			sim.TransitionMeter
		}{t, c, b, m}
	case isC && isB:
		return struct {
			*tracedDesign
			sim.Classifier
			sim.BankMeter
		}{t, c, b}
	case isC && isM:
		return struct {
			*tracedDesign
			sim.Classifier
			sim.TransitionMeter
		}{t, c, m}
	case isB && isM:
		return struct {
			*tracedDesign
			sim.BankMeter
			sim.TransitionMeter
		}{t, b, m}
	case isC:
		return struct {
			*tracedDesign
			sim.Classifier
		}{t, c}
	case isB:
		return struct {
			*tracedDesign
			sim.BankMeter
		}{t, b}
	case isM:
		return struct {
			*tracedDesign
			sim.TransitionMeter
		}{t, m}
	}
	return t
}

// cellGroup is the cells behind one job-level Result (the six ASR
// variants behind "A", one cell for any other design) and the untraced
// Result they must reproduce.
type cellGroup struct {
	ref   sim.Result
	cells []cell
}

// best applies the paper's ASR methodology to a group's results: the
// lowest CPI wins, reported under the group's label.
func best(label string, rs []sim.Result) sim.Result {
	if len(rs) == 1 {
		return rs[0]
	}
	b := rs[0]
	for _, r := range rs[1:] {
		if r.CPI() < b.CPI() {
			b = r
		}
	}
	b.Design = label
	return b
}

// layerTotals accumulates one traced run's per-layer measurements over
// all of its cells.
type layerTotals struct {
	cells                       int
	refs                        float64 // warm+measure references
	plainNs, flightNs, tracedNs float64 // engine.Run wall time
	sourceNs, accessNs          float64 // wrapper self time, timer cost removed
	expectNs                    float64 // sub-layer cost implied by the designs' calls

	// Sub-layer replay times; every replay covers every reference (the
	// NoC replay makes two calls per reference).
	translateNs, l1Ns, probeNs, nocNs float64

	tlbHits, tlbLookups, pages, reclass, shootdowns float64
	l1Hits, l1Lookups, invals                       float64
	l2Hits, l2Lookups                               float64

	measured, msgs, flitHops, offchip float64

	// byDesign is Access self time and calls per design label.
	byDesign map[string]*[2]float64
}

// timingPasses is how many times each cell runs in each of its three
// modes; the fastest pass of each mode is kept, which filters out
// interference from the rest of the machine.
const timingPasses = 2

// traceCells runs every cell in three modes — untraced, with the flight
// recorder, and traced through the wrappers — checks each group's
// Result against the untraced job's, replays the traced cell's
// reference sequence into the sub-layers, and reports the per-layer
// metrics.
func (r *run) traceCells(groups []cellGroup) error {
	bias := calibrateTimer()
	tot := layerTotals{byDesign: map[string]*[2]float64{}}
	for _, g := range groups {
		var plain, flown, traced []sim.Result
		for _, c := range g.cells {
			plainNs, flightNs, tracedNs := math.Inf(1), math.Inf(1), math.Inf(1)
			for pass := 0; pass < timingPasses; pass++ {
				res, ns, err := runCell(c, nil)
				if err != nil {
					return err
				}
				plainNs = math.Min(plainNs, ns)
				if pass == 0 {
					plain = append(plain, res)
				}

				rec := flight.NewRecorder(flight.Config{})
				res, ns, err = runCell(c, func(b built) { b.eng.Flight = rec })
				if err != nil {
					return err
				}
				flightNs = math.Min(flightNs, ns)
				if pass == 0 {
					flown = append(flown, res)
				}

				// Only the first traced pass feeds the layer totals and
				// the sub-layer replays; later passes only time the run.
				into := &tot
				if pass > 0 {
					into = nil
				}
				res, ns, err = r.traceCell(c, bias, into)
				if err != nil {
					return err
				}
				tracedNs = math.Min(tracedNs, ns)
				if pass == 0 {
					traced = append(traced, res)
				}
			}
			tot.plainNs += plainNs
			tot.flightNs += flightNs
			tot.tracedNs += tracedNs
		}
		label := g.cells[0].label
		for _, v := range []struct {
			what string
			res  sim.Result
		}{{"untraced", best(label, plain)}, {"flight-recorded", best(label, flown)}, {"traced", best(label, traced)}} {
			if sameResult(v.res, g.ref) {
				r.ok()
			} else {
				r.fail("%s %s cell of %s differs from the job's Result", v.what, label, g.ref.Workload)
			}
		}
	}
	r.setLayers(tot, bias)
	return nil
}

// runCell builds a cell and times its engine.Run. prepare, when set,
// adjusts the built cell first.
func runCell(c cell, prepare func(built)) (sim.Result, float64, error) {
	b, _, err := c.build(nil, nil)
	if err != nil {
		return sim.Result{}, 0, err
	}
	defer b.release()
	if prepare != nil {
		prepare(b)
	}
	runtime.GC()
	t := mono()
	res, err := c.run(b)
	return res, float64(mono() - t), err
}

// traceCell runs one cell through the tracing wrappers, returning its
// Result and engine.Run time. With tot set it also accounts the
// wrappers' self times into tot and replays the captured reference
// sequence into each sub-layer in isolation.
func (r *run) traceCell(c cell, bias float64, tot *layerTotals) (sim.Result, float64, error) {
	var sourceNs int64
	td := &tracedDesign{refs: make([]trace.Ref, 0, c.warm+c.measure)}
	b, _, err := c.build(func(ss []trace.Stream) []trace.Stream {
		out := make([]trace.Stream, len(ss))
		for i, s := range ss {
			out[i] = tracedStream{Stream: s, ns: &sourceNs}
		}
		return out
	}, func(d sim.Design) sim.Design {
		td.Design = d
		return wrapDesign(td)
	})
	if err != nil {
		return sim.Result{}, 0, err
	}
	defer b.release()
	runtime.GC()
	t := mono()
	res, err := c.run(b)
	ns := float64(mono() - t)
	if err != nil || tot == nil {
		return res, ns, err
	}

	calls := float64(len(td.refs))
	tot.cells++
	tot.refs += calls
	tot.sourceNs += float64(sourceNs) - calls*bias
	access := float64(td.ns) - calls*bias
	tot.accessNs += access
	d := tot.byDesign[c.label]
	if d == nil {
		d = &[2]float64{}
		tot.byDesign[c.label] = d
	}
	d[0] += access
	d[1] += calls

	tot.measured += float64(res.Refs)
	tot.msgs += float64(res.NetMessages)
	tot.flitHops += float64(res.NetFlitHops)
	tot.offchip += float64(res.OffChipMisses)
	for i := range b.ch.L1D {
		for _, l1 := range []*cache.Cache{b.ch.L1I[i], b.ch.L1D[i]} {
			st := l1.Stats()
			tot.l1Hits += float64(st.Hits)
			tot.l1Lookups += float64(st.Hits + st.Misses)
		}
	}
	tot.invals += float64(b.ch.L1Dir.Stats().Invalidations)
	hits, lookups := sliceStats(td.Design, b.ch.Cfg.Cores)
	tot.l2Hits += hits
	tot.l2Lookups += lookups

	// What the design's calls into each sub-layer should cost, at the
	// per-call prices the replays below measure.
	probes := calls
	if bm, ok := td.Design.(sim.BankMeter); ok {
		probes = 0
		for _, n := range bm.BankAccesses() {
			probes += float64(n)
		}
	}
	messages := float64(b.ch.Net.TotalStats().Messages)
	osl, usesOS := td.Design.(interface{ OS() *ospage.System })

	sub, err := replaySubLayers(b.ch.Cfg, td.refs)
	if err != nil {
		return res, ns, err
	}
	if usesOS {
		if err := sameOSState(sub.sys, osl.OS()); err != nil {
			r.fail("%s: %v", c.label, err)
		} else {
			r.ok()
		}
	}
	tot.translateNs += sub.translateNs
	tot.l1Ns += sub.l1Ns
	tot.probeNs += sub.probeNs
	tot.nocNs += sub.nocNs
	expect := sub.l1Ns + sub.probeNs/calls*probes + sub.nocNs/(2*calls)*messages
	if usesOS {
		expect += sub.translateNs
	}
	tot.expectNs += expect

	for _, tlb := range sub.sys.TLBs {
		tot.tlbHits += float64(tlb.Hits())
		tot.tlbLookups += float64(tlb.Hits() + tlb.Misses())
	}
	tr := sub.sys.Table.Transitions()
	tot.pages += float64(sub.sys.Table.Pages())
	tot.reclass += float64(tr.PrivateToShared + tr.Migrations + tr.InstrToShared + tr.PrivateToInstr)
	tot.shootdowns += float64(tr.TLBShootdowns)
	return res, ns, nil
}

// sliceStats sums the design's per-slice L2 statistics.
func sliceStats(d sim.Design, tiles int) (hits, lookups float64) {
	var stat func(int) cache.Stats
	switch s := d.(type) {
	case interface{ SliceStats(noc.TileID) cache.Stats }:
		stat = func(t int) cache.Stats { return s.SliceStats(noc.TileID(t)) }
	case interface{ SliceStats(int) cache.Stats }:
		stat = s.SliceStats
	default:
		return 0, 0
	}
	for t := 0; t < tiles; t++ {
		st := stat(t)
		hits += float64(st.Hits)
		lookups += float64(st.Hits + st.Misses)
	}
	return hits, lookups
}

// subLayers is one cell's isolated sub-layer replay.
type subLayers struct {
	translateNs, l1Ns, probeNs, nocNs float64
	sys                               *ospage.System
}

// replaySubLayers feeds a captured reference sequence to each layer
// under Design.Access on its own, on fresh Table 1 state: the OS page
// layer (ospage.System.Translate), the L1s with their coherence
// directory (Chassis.L1Service), an address-interleaved set of L2
// slices (cache Lookup, plus Insert on a miss), and the NoC
// (Network.Latency, one request and one data reply per reference).
// Each loop is timed as a whole, so no per-call timer cost enters.
func replaySubLayers(cfg sim.Config, refs []trace.Ref) (subLayers, error) {
	var out subLayers
	if len(refs) == 0 {
		return out, fmt.Errorf("no references captured")
	}
	sys := ospage.NewSystem(cfg.PageBytes, cfg.TLBEntries, cfg.Cores)
	runtime.GC()
	t := mono()
	for _, r := range refs {
		sys.Translate(r.Addr, r.Core, r.Thread, r.IsWrite(), r.Kind == trace.IFetch)
	}
	out.translateNs = float64(mono() - t)
	out.sys = sys

	ch := sim.NewChassis(cfg)
	runtime.GC()
	t = mono()
	for _, r := range refs {
		ch.L1Service(r.Core, r)
	}
	out.l1Ns = float64(mono() - t)

	slices := make([]*cache.Cache, cfg.Cores)
	for i := range slices {
		slices[i] = cache.New(cache.Geometry{SizeBytes: cfg.L2SliceBytes, Ways: cfg.L2Ways, BlockBytes: cfg.BlockBytes})
	}
	type hop struct{ tile, home noc.TileID }
	hops := make([]hop, len(refs))
	k := cfg.InterleaveOffset()
	for i, r := range refs {
		hops[i] = hop{noc.TileID(r.Core), noc.TileID((uint64(r.BlockAddr()) >> k) % uint64(cfg.Cores))}
	}
	runtime.GC()
	t = mono()
	for i, r := range refs {
		s := slices[hops[i].home]
		if _, hit := s.Lookup(r.BlockAddr()); !hit {
			s.Insert(r.BlockAddr(), cache.Shared, r.Class)
		}
	}
	out.probeNs = float64(mono() - t)

	net := sim.NewChassis(cfg).Net
	runtime.GC()
	t = mono()
	for _, h := range hops {
		net.Latency(h.tile, h.home, noc.CtrlBytes)
		net.Latency(h.home, h.tile, noc.DataBytes)
	}
	out.nocNs = float64(mono() - t)
	return out, nil
}

// sameOSState checks that the isolated ospage replay reached the state
// R-NUCA's own OS layer reached: the design translates every access
// exactly once, in order, so any difference means the capture missed
// or reordered references.
func sameOSState(replayed, design *ospage.System) error {
	if replayed.Table.Transitions() != design.Table.Transitions() || replayed.Table.Pages() != design.Table.Pages() {
		return fmt.Errorf("ospage replay diverges from the design's OS layer")
	}
	for i, tlb := range replayed.TLBs {
		if tlb.Hits() != design.TLBs[i].Hits() || tlb.Misses() != design.TLBs[i].Misses() {
			return fmt.Errorf("ospage replay diverges from the design's TLB %d", i)
		}
	}
	return nil
}

// setLayers reports the per-layer metrics of a traced run.
func (r *run) setLayers(t layerTotals, bias float64) {
	refs, n := t.refs, int(t.refs)
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	simNs := t.plainNs / refs
	source := t.sourceNs / refs
	access := t.accessNs / refs
	r.set("source.next_ns", source, n)
	r.set("engine.sim_ns_per_ref", simNs, n)
	r.set("engine.self_ns_per_ref", simNs-source-access, n)
	r.set("design.access_ns", access, n)
	r.set("design.unexplained_ns", (t.accessNs-t.expectNs)/refs, n)
	r.set("ospage.translate_ns", t.translateNs/refs, n)
	r.set("ospage.tlb_hit_ratio", ratio(t.tlbHits, t.tlbLookups), int(t.tlbLookups))
	cells := float64(t.cells)
	r.set("ospage.pages", t.pages/cells, t.cells)
	r.set("ospage.reclassifications", t.reclass/cells, t.cells)
	r.set("ospage.tlb_shootdowns", t.shootdowns/cells, t.cells)
	r.set("l1.service_ns", t.l1Ns/refs, n)
	r.set("l1.hit_ratio", ratio(t.l1Hits, t.l1Lookups), int(t.l1Lookups))
	r.set("coherence.invalidations_per_ref", t.invals/refs, n)
	r.set("cache.l2_probe_ns", t.probeNs/refs, n)
	r.set("cache.l2_hit_ratio", ratio(t.l2Hits, t.l2Lookups), int(t.l2Lookups))
	r.set("noc.latency_ns", t.nocNs/(2*refs), 2*n)
	measured := int(t.measured)
	r.set("noc.messages_per_ref", t.msgs/t.measured, measured)
	r.set("noc.flit_hops_per_ref", t.flitHops/t.measured, measured)
	r.set("mem.offchip_per_ref", t.offchip/t.measured, measured)
	r.set("flight.overhead_ns_per_ref", (t.flightNs-t.plainNs)/refs, t.cells)
	r.set("trace.timer_ns", bias, timerCalls)
	r.set("trace.overhead_ratio", t.tracedNs/t.plainNs, t.cells)
	if len(t.byDesign) > 1 {
		var labels []string
		for l := range t.byDesign {
			labels = append(labels, l)
		}
		sort.Strings(labels)
		for _, l := range labels {
			d := t.byDesign[l]
			r.extra(metric{Name: "design.access_ns." + l, Unit: "ns", Value: d[0] / d[1], N: int(d[1])})
		}
	}
}

// tracedLibrary is the traced run of a library workload: k jobs run
// with an obs trace on their context for the job-stage metrics, then
// the cells of job 0 are traced and checked against its Results.
func (r *run) tracedLibrary(k int, job func(ctx context.Context, i int) (map[string]rnuca.Result, error), cells func() []cell) error {
	var jobs []jobSpans
	var refs map[string]rnuca.Result
	for i := 0; i < k; i++ {
		tr := obs.NewTrace(0)
		start := time.Now()
		res, err := job(obs.ContextWithTrace(r.ctx, tr), i)
		end := time.Now()
		if err != nil {
			r.fail("job %d: %v", i, err)
			continue
		}
		r.ok()
		if refs == nil {
			refs = res
		}
		jobs = append(jobs, jobSpans{start: start, end: end, spans: tr.Spans()})
	}
	if refs == nil {
		return fmt.Errorf("no traced job succeeded")
	}
	r.setJobSpans(jobs)

	var groups []cellGroup
	index := map[string]int{}
	for _, c := range cells() {
		i, ok := index[c.label]
		if !ok {
			i = len(groups)
			index[c.label] = i
			groups = append(groups, cellGroup{ref: refs[c.label].Result})
		}
		groups[i].cells = append(groups[i].cells, c)
	}
	return r.traceCells(groups)
}
