package experiments

import (
	"fmt"

	"rnuca"
	"rnuca/internal/cache"
	"rnuca/internal/report"
	"rnuca/internal/sim"
	"rnuca/internal/workload"
)

// evalDesigns is the P/A/S/R order of Figures 7-11.
var evalDesigns = []rnuca.DesignID{rnuca.DesignPrivate, rnuca.DesignASR, rnuca.DesignShared, rnuca.DesignRNUCA}

// orderedWorkloads returns the primary workloads in the paper's Figure 7
// order: private-averse first, then shared-averse.
func orderedWorkloads() []rnuca.Workload {
	return []rnuca.Workload{
		rnuca.OLTPDB2(), rnuca.Apache(), rnuca.DSSQry6(), rnuca.DSSQry8(),
		rnuca.DSSQry13(), rnuca.Em3d(), rnuca.OLTPOracle(), rnuca.MIX(),
	}
}

// Fig7 reproduces Figure 7: total CPI breakdown per design, normalized to
// the private design's total CPI (Busy / L1-to-L1 / L2 / Off-chip / Other
// / Re-classification; L2 includes coherence transfers as in the paper).
func (c *Campaign) Fig7() *report.Table {
	t := report.NewTable("Figure 7: total CPI breakdown (normalized to private design)",
		"Workload", "Design", "Busy", "L1-to-L1", "L2", "Off-chip", "Other", "Re-class", "Total")
	rs := c.need(grid(orderedWorkloads(), evalDesigns...))
	for _, w := range orderedWorkloads() {
		base := rs.of(w, rnuca.DesignPrivate).CPI()
		for _, id := range evalDesigns {
			r := rs.of(w, id)
			n := func(b sim.Bucket) float64 { return r.CPIStack[b] / base }
			l2 := n(sim.BucketL2) + n(sim.BucketL2Coh)
			t.AddRow(w.Name, string(id),
				fmt.Sprintf("%.3f", n(sim.BucketBusy)),
				fmt.Sprintf("%.3f", n(sim.BucketL1toL1)),
				fmt.Sprintf("%.3f", l2),
				fmt.Sprintf("%.3f", n(sim.BucketOffChip)),
				fmt.Sprintf("%.3f", n(sim.BucketOther)),
				fmt.Sprintf("%.4f", n(sim.BucketReclass)),
				fmt.Sprintf("%.3f", r.CPI()/base))
		}
	}
	return t
}

// Fig8 reproduces Figure 8: the CPI contribution of L1-to-L1 transfers and
// L2 loads of shared data, split into plain loads and coherence transfers,
// normalized to the private design's total CPI.
func (c *Campaign) Fig8() *report.Table {
	t := report.NewTable("Figure 8: CPI of L1-to-L1 and shared-data L2 loads (normalized to private total)",
		"Workload", "Design", "L1-to-L1", "L2 shared load coherence", "L2 shared load", "Sum")
	rs := c.need(grid(orderedWorkloads(), evalDesigns...))
	for _, w := range orderedWorkloads() {
		base := rs.of(w, rnuca.DesignPrivate).CPI()
		for _, id := range evalDesigns {
			r := rs.of(w, id)
			l1 := r.ClassCycles[cache.ClassShared][sim.BucketL1toL1] / base
			coh := r.ClassCycles[cache.ClassShared][sim.BucketL2Coh] / base
			plain := r.ClassCycles[cache.ClassShared][sim.BucketL2] / base
			t.AddRow(w.Name, string(id),
				fmt.Sprintf("%.4f", l1), fmt.Sprintf("%.4f", coh),
				fmt.Sprintf("%.4f", plain), fmt.Sprintf("%.4f", l1+coh+plain))
		}
	}
	return t
}

// Fig9 reproduces Figure 9: CPI contribution of L2 accesses to private
// data, normalized to the private design's total CPI.
func (c *Campaign) Fig9() *report.Table {
	t := report.NewTable("Figure 9: CPI of private-data L2 accesses (normalized to private total)",
		"Workload", "Design", "L2", "Coherence", "Off-chip", "Sum")
	return c.classTable(t, cache.ClassPrivate)
}

// Fig10 reproduces Figure 10: CPI contribution of instruction L2 accesses,
// normalized to the private design's total CPI.
func (c *Campaign) Fig10() *report.Table {
	t := report.NewTable("Figure 10: CPI of instruction L2 accesses (normalized to private total)",
		"Workload", "Design", "L2", "Coherence", "Off-chip", "Sum")
	return c.classTable(t, cache.ClassInstruction)
}

func (c *Campaign) classTable(t *report.Table, class cache.Class) *report.Table {
	rs := c.need(grid(orderedWorkloads(), evalDesigns...))
	for _, w := range orderedWorkloads() {
		base := rs.of(w, rnuca.DesignPrivate).CPI()
		for _, id := range evalDesigns {
			r := rs.of(w, id)
			l2 := r.ClassCycles[class][sim.BucketL2] / base
			coh := (r.ClassCycles[class][sim.BucketL2Coh] + r.ClassCycles[class][sim.BucketL1toL1]) / base
			off := r.ClassCycles[class][sim.BucketOffChip] / base
			t.AddRow(w.Name, string(id),
				fmt.Sprintf("%.4f", l2), fmt.Sprintf("%.4f", coh),
				fmt.Sprintf("%.4f", off), fmt.Sprintf("%.4f", l2+coh+off))
		}
	}
	return t
}

// Fig11 reproduces Figure 11: R-NUCA's CPI breakdown as the instruction
// cluster size sweeps over 1, 2, 4, 8 and 16, normalized to size-1
// clusters per workload.
func (c *Campaign) Fig11() *report.Table {
	t := report.NewTable("Figure 11: instruction cluster-size sweep (CPI normalized to size-1)",
		"Workload", "Size", "Busy", "L2", "Off-chip", "Other+Purge", "Total")
	var sweep []want
	for _, w := range orderedWorkloads() {
		for _, size := range clusterSizes(w) {
			sweep = append(sweep, want{w: w, id: rnuca.DesignRNUCA, size: size})
		}
	}
	rs := c.need(sweep)
	for _, w := range orderedWorkloads() {
		base := rs[cellKey{w.Name, rnuca.DesignRNUCA, 1}].CPI()
		for _, size := range clusterSizes(w) {
			r := rs[cellKey{w.Name, rnuca.DesignRNUCA, size}]
			n := func(b sim.Bucket) float64 { return r.CPIStack[b] / base }
			t.AddRow(w.Name, fmt.Sprint(size),
				fmt.Sprintf("%.3f", n(sim.BucketBusy)),
				fmt.Sprintf("%.3f", n(sim.BucketL2)+n(sim.BucketL2Coh)+n(sim.BucketL1toL1)),
				fmt.Sprintf("%.3f", n(sim.BucketOffChip)),
				fmt.Sprintf("%.3f", n(sim.BucketOther)+n(sim.BucketReclass)),
				fmt.Sprintf("%.3f", r.CPI()/base))
		}
	}
	return t
}

// clusterSizes is Figure 11's sweep over 1, 2, 4, 8 and 16 on a
// workload's chip: clusters cannot exceed it (MIX runs on 8 tiles).
func clusterSizes(w rnuca.Workload) []int {
	var out []int
	for _, size := range []int{1, 2, 4, 8, 16} {
		if size > w.Cores {
			size = w.Cores
		}
		if len(out) == 0 || out[len(out)-1] != size {
			out = append(out, size)
		}
	}
	return out
}

// Fig12 reproduces Figure 12: speedup of each design over the private
// baseline, with 95% confidence intervals when the campaign runs multiple
// batches, plus the summary statistics the abstract quotes.
func (c *Campaign) Fig12() *report.Table {
	t := report.NewTable("Figure 12: speedup over the private design",
		"Workload", "P", "A", "S", "R", "I", "R ±CI")
	type agg struct{ sumP, sumS, sumI float64 }
	var server, all, mp agg
	var nServer, nAll, nMP int
	maxR := -1.0
	rs := c.need(grid(orderedWorkloads(), rnuca.AllDesigns()...))
	for _, w := range orderedWorkloads() {
		base := rs.of(w, rnuca.DesignPrivate)
		row := []string{w.Name}
		var rCI string
		for _, id := range []rnuca.DesignID{rnuca.DesignPrivate, rnuca.DesignASR, rnuca.DesignShared, rnuca.DesignRNUCA, rnuca.DesignIdeal} {
			r := rs.of(w, id)
			sp := r.Speedup(base.Result)
			row = append(row, fmt.Sprintf("%+.1f%%", 100*sp))
			if id == rnuca.DesignRNUCA {
				if r.CPICI > 0 && r.CPIMean > 0 {
					rel := r.CPICI / r.CPIMean
					rCI = fmt.Sprintf("±%.1f%%", 100*rel)
				} else {
					rCI = "±0.0%"
				}
				if sp > maxR {
					maxR = sp
				}
				all.sumP += sp
				nAll++
				if w.Category == workload.Server {
					server.sumP += sp
					nServer++
				}
				if w.Cores == 8 {
					mp.sumP += sp
					nMP++
				}
				shared := rs.of(w, rnuca.DesignShared)
				all.sumS += r.Speedup(shared.Result)
				if w.Cores == 8 {
					mp.sumS += r.Speedup(shared.Result)
				}
				ideal := rs.of(w, rnuca.DesignIdeal)
				all.sumI += ideal.Speedup(r.Result)
			}
		}
		row = append(row, rCI)
		t.AddRow(row...)
	}
	t.AddRow("", "", "", "", "", "", "")
	t.AddRow("avg R vs P", fmt.Sprintf("%+.1f%%", 100*all.sumP/float64(nAll)),
		"server:", fmt.Sprintf("%+.1f%%", 100*server.sumP/float64(max(nServer, 1))),
		"max:", fmt.Sprintf("%+.1f%%", 100*maxR), "")
	t.AddRow("avg R vs S", fmt.Sprintf("%+.1f%%", 100*all.sumS/float64(nAll)),
		"multiprog:", fmt.Sprintf("%+.1f%%", 100*mp.sumS/float64(max(nMP, 1))),
		"", "", "")
	t.AddRow("avg I vs R", fmt.Sprintf("%+.1f%%", 100*all.sumI/float64(nAll)), "", "", "", "", "")
	return t
}

// ClassificationAccuracy reproduces the §5.2 numbers: the share of L2
// accesses to pages holding more than one class, and the share of accesses
// R-NUCA's page-granularity classification misclassifies.
func (c *Campaign) ClassificationAccuracy() *report.Table {
	t := report.NewTable("§5.2: classification accuracy at page granularity",
		"Workload", "Accesses to multi-class pages", "Misclassified accesses")
	rs := c.need(grid(orderedWorkloads(), rnuca.DesignRNUCA))
	for _, w := range orderedWorkloads() {
		r := rs.of(w, rnuca.DesignRNUCA)
		mixed := float64(r.MixedPageAccesses) / float64(max64(r.Refs, 1))
		mis := float64(r.MisclassifiedAccesses) / float64(max64(r.ClassifiedAccesses, 1))
		t.AddRow(w.Name, pct(mixed), pct(mis))
	}
	return t
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}

func max64(a, b uint64) uint64 {
	if a > b {
		return a
	}
	return b
}
