package experiments

import (
	"fmt"

	"rnuca"
	"rnuca/internal/design"
	"rnuca/internal/report"
	"rnuca/internal/sim"
	"rnuca/internal/workload"
)

// The extension experiments go beyond the paper's published figures:
//
//   - PrivateClusterAblation exercises the §4.4 private-data spilling
//     clusters on a heterogeneous multi-programmed mix;
//   - TechnologyScaling quantifies the §5.5 discussion (R-NUCA's advantage
//     over the shared design grows with core count);
//   - MeshVsTorus quantifies the §5.1 topology discussion;
//   - MigrationStress drives the §4.3 thread-migration machinery under
//     load and shows the re-classification overhead stays negligible.

// PrivateClusterAblation sweeps R-NUCA's private-data cluster size on the
// heterogeneous mix. Size-1 (the paper's configuration) strands idle
// capacity next to overloaded slices; uniform spilling helps the big
// threads but taxes the small ones; per-thread sizing ("a fixed-center
// cluster of appropriate size", §4.4) spills only the threads that need
// it.
func (c *Campaign) PrivateClusterAblation() *report.Table {
	t := report.NewTable("Extension (§4.4): private-data cluster size on a heterogeneous mix",
		"Private cluster", "CPI", "Off-chip CPI", "L2 CPI", "Off-chip misses")
	w := workload.MIXHetero()
	opt := c.opts()
	// Capacity effects need the big threads' 4MB footprints revisited
	// many times; scale the run with the footprint rather than the
	// campaign's default (which is sized for the 3MB-resident suite).
	if opt.Measure < 1_600_000 {
		opt.Warm, opt.Measure = 1_200_000, 1_600_000
	}
	var cells []cell
	var names []string
	for _, size := range []int{1, 2, 4} {
		opt.PrivateClusterSize = size
		cells = append(cells, vary(fmt.Sprintf("private%d", size), c.genCell(w, rnuca.DesignRNUCA, opt))...)
		names = append(names, fmt.Sprintf("size-%d", size))
	}
	// Per-thread sizing: the big threads (even cores) spill over size-2
	// clusters, the compact threads keep local placement.
	opt.PrivateClusterSize = 0
	sizes := make([]int, w.Cores)
	for i := range sizes {
		if i%2 == 0 {
			sizes[i] = 2
		} else {
			sizes[i] = 1
		}
	}
	cells = append(cells, makerCell(c.genCell(w, "R/per-thread", opt), func(ch *sim.Chassis) sim.Design {
		return design.NewReactiveWithPrivateClusters(ch, sizes)
	}))
	names = append(names, "per-thread {2,1,...}")
	for i, r := range c.runAll(cells) {
		t.AddRow(names[i],
			fmt.Sprintf("%.3f", r.CPI()),
			fmt.Sprintf("%.3f", r.CPIStack[sim.BucketOffChip]),
			fmt.Sprintf("%.3f", r.CPIStack[sim.BucketL2]+r.CPIStack[sim.BucketL2Coh]),
			fmt.Sprint(r.OffChipMisses))
	}
	return t
}

// TechnologyScaling reruns OLTP-DB2 on growing chips. The shared design's
// average hit distance grows with the die while R-NUCA keeps private data
// local and instructions within one hop, so the R-over-S gap widens — the
// §5.5 claim ("R-NUCA will continue to provide an ever-increasing
// performance benefit over the shared design").
func (c *Campaign) TechnologyScaling() *report.Table {
	t := report.NewTable("Extension (§5.5): scaling with core count (OLTP-DB2)",
		"Cores", "Grid", "S CPI", "R CPI", "R vs S")
	opt := c.opts()
	coreCounts := []int{16, 32, 64}
	var cells []cell
	var cfgs []sim.Config
	for _, cores := range coreCounts {
		w := rnuca.OLTPDB2()
		w.Cores = cores
		cfg := rnuca.ConfigFor(w)
		opt.Config = &cfg
		cells = append(cells, vary(fmt.Sprintf("cores%d", cores),
			c.genCell(w, rnuca.DesignShared, opt), c.genCell(w, rnuca.DesignRNUCA, opt))...)
		cfgs = append(cfgs, cfg)
	}
	rs := c.runAll(cells)
	for i, cfg := range cfgs {
		s, r := rs[2*i], rs[2*i+1]
		t.AddRow(fmt.Sprint(coreCounts[i]), fmt.Sprintf("%dx%d", cfg.GridW, cfg.GridH),
			fmt.Sprintf("%.3f", s.CPI()), fmt.Sprintf("%.3f", r.CPI()),
			fmt.Sprintf("%+.1f%%", 100*r.Speedup(s.Result)))
	}
	return t
}

// MeshVsTorus quantifies the §5.1 interconnect discussion by running the
// shared and R-NUCA designs on both topologies.
func (c *Campaign) MeshVsTorus() *report.Table {
	t := report.NewTable("Extension (§5.1): 2-D folded torus vs mesh (OLTP-DB2)",
		"Topology", "S CPI", "R CPI")
	opt := c.opts()
	w := rnuca.OLTPDB2()
	topos := []string{"torus", "mesh"}
	var cells []cell
	for _, name := range topos {
		cfg := rnuca.ConfigFor(w)
		cfg.Mesh = name == "mesh"
		opt.Config = &cfg
		cells = append(cells, vary(name, c.genCell(w, rnuca.DesignShared, opt), c.genCell(w, rnuca.DesignRNUCA, opt))...)
	}
	rs := c.runAll(cells)
	for i, name := range topos {
		s, r := rs[2*i], rs[2*i+1]
		t.AddRow(name, fmt.Sprintf("%.3f", s.CPI()), fmt.Sprintf("%.3f", r.CPI()))
	}
	return t
}

// MemLatencySweep reruns the design comparison with slower memory,
// reproducing the §5.1 observation that the paper's relatively fast
// 90-cycle memory (vs 500 cycles in the original ASR study) leaves
// replication-based designs little room: as memory slows, off-chip misses
// dominate and capacity-preserving designs (shared, R-NUCA) gain ground
// on the replicating private design.
func (c *Campaign) MemLatencySweep() *report.Table {
	t := report.NewTable("Extension (§5.1): sensitivity to memory latency (OLTP-DB2)",
		"Memory cycles", "P CPI", "S CPI", "R CPI", "R vs P", "S vs P")
	opt := c.opts()
	w := rnuca.OLTPDB2()
	lats := []int{90, 200, 500}
	var cells []cell
	for _, lat := range lats {
		cfg := rnuca.ConfigFor(w)
		cfg.MemAccessCycles = lat
		opt.Config = &cfg
		for _, id := range []rnuca.DesignID{rnuca.DesignPrivate, rnuca.DesignShared, rnuca.DesignRNUCA} {
			cells = append(cells, vary(fmt.Sprintf("mem%d", lat), c.genCell(w, id, opt))...)
		}
	}
	rs := c.runAll(cells)
	for i, lat := range lats {
		p, s, r := rs[3*i], rs[3*i+1], rs[3*i+2]
		t.AddRow(fmt.Sprint(lat),
			fmt.Sprintf("%.3f", p.CPI()), fmt.Sprintf("%.3f", s.CPI()), fmt.Sprintf("%.3f", r.CPI()),
			fmt.Sprintf("%+.1f%%", 100*r.Speedup(p.Result)),
			fmt.Sprintf("%+.1f%%", 100*s.Speedup(p.Result)))
	}
	return t
}

// TrafficComparison reports interconnect load per design: R-NUCA's
// placement cuts both message count and flit-hops relative to the private
// design's three-traversal coherence and the broadcast variant's
// probe-everyone storms (§2.2's bandwidth argument).
func (c *Campaign) TrafficComparison() *report.Table {
	t := report.NewTable("Extension (§2.2): interconnect traffic per design (OLTP-DB2)",
		"Design", "CPI", "NoC messages/ref", "flit-hops/ref")
	opt := c.opts()
	w := rnuca.OLTPDB2()
	ids := []rnuca.DesignID{rnuca.DesignPrivate, "Pb", rnuca.DesignShared, rnuca.DesignRNUCA}
	cells := make([]cell, len(ids))
	for i, id := range ids {
		cells[i] = c.genCell(w, id, opt)
		if id == "Pb" {
			cells[i] = makerCell(cells[i], func(ch *sim.Chassis) sim.Design {
				return design.NewPrivateBroadcast(ch)
			})
		}
	}
	for i, r := range c.runAll(cells) {
		t.AddRow(string(ids[i]), fmt.Sprintf("%.3f", r.CPI()),
			fmt.Sprintf("%.2f", float64(r.NetMessages)/float64(r.Refs)),
			fmt.Sprintf("%.2f", float64(r.NetFlitHops)/float64(r.Refs)))
	}
	return t
}

// ContentionModelAblation compares the two NoC contention models — the
// windowed analytic M/D/1 approximation used for the headline results and
// the per-link FCFS queue model — on the same workload and designs. Close
// agreement validates the cheaper model at the evaluated loads (the
// paper's premise that a torus stays uncongested); the queue model also
// reports how many cycles messages actually spent waiting on busy links.
func (c *Campaign) ContentionModelAblation() *report.Table {
	t := report.NewTable("Ablation: analytic vs link-queue NoC contention (OLTP-DB2)",
		"Model", "S CPI", "R CPI", "R link-wait cycles/ref")
	opt := c.opts()
	w := rnuca.OLTPDB2()
	var cells []cell
	for _, model := range []string{"analytic", "linkqueue"} {
		cfg := rnuca.ConfigFor(w)
		cfg.LinkQueues = model == "linkqueue"
		opt.Config = &cfg
		cells = append(cells, vary(model, c.genCell(w, rnuca.DesignShared, opt), c.genCell(w, rnuca.DesignRNUCA, opt))...)
	}
	rs := c.runAll(cells)
	for i, queued := range []bool{false, true} {
		name := "analytic (M/D/1 windows)"
		if queued {
			name = "link-queue (FCFS)"
		}
		s, r := rs[2*i], rs[2*i+1]
		wait := "-"
		if queued {
			wait = fmt.Sprintf("%.3f", r.NetWaitCycles/float64(r.Refs))
		}
		t.AddRow(name, fmt.Sprintf("%.3f", s.CPI()), fmt.Sprintf("%.3f", r.CPI()), wait)
	}
	return t
}

// MigrationStress runs the migrating mix on R-NUCA and reports the
// re-classification machinery's cost: the paper's claim is that the
// overhead is negligible (Figure 7 shows a vanishing Re-classification
// component).
func (c *Campaign) MigrationStress() *report.Table {
	t := report.NewTable("Extension (§4.3): thread migration under load",
		"Workload", "CPI", "Reclass CPI", "Reclass share", "Misclassified")
	opt := c.opts()
	// The measurement must span several migration periods (8k refs per
	// core x 8 cores per rotation).
	if opt.Measure < 256_000 {
		opt.Warm, opt.Measure = 128_000, 256_000
	}
	ws := []rnuca.Workload{workload.MIX(), workload.MIXMigrating()}
	var cells []cell
	for _, w := range ws {
		cells = append(cells, vary(fmt.Sprintf("measure%d", opt.Measure), c.genCell(w, rnuca.DesignRNUCA, opt))...)
	}
	for i, r := range c.runAll(cells) {
		w := ws[i]
		share := r.CPIStack[sim.BucketReclass] / r.CPI()
		mis := float64(r.MisclassifiedAccesses) / float64(max64(r.ClassifiedAccesses, 1))
		t.AddRow(w.Name, fmt.Sprintf("%.3f", r.CPI()),
			fmt.Sprintf("%.4f", r.CPIStack[sim.BucketReclass]),
			pct(share), pct(mis))
	}
	return t
}
