package experiments

import (
	"fmt"

	"rnuca"
	"rnuca/internal/cache"
	"rnuca/internal/report"
	"rnuca/internal/trace"
	"rnuca/internal/workload"
)

// Table1 reproduces Table 1: the system parameters of both CMP
// configurations and the application list.
func Table1() []*report.Table {
	sys := report.NewTable("Table 1 (left): system parameters", "Parameter", "16-core CMP", "8-core CMP")
	c16, c8 := rnuca.ConfigFor(rnuca.OLTPDB2()), rnuca.ConfigFor(rnuca.MIX())
	row := func(name, a, b string) { sys.AddRow(name, a, b) }
	row("Cores", fmt.Sprint(c16.Cores), fmt.Sprint(c8.Cores))
	row("Interconnect", fmt.Sprintf("2D folded torus %dx%d", c16.GridW, c16.GridH),
		fmt.Sprintf("2D folded torus %dx%d", c8.GridW, c8.GridH))
	row("L1 caches", fmt.Sprintf("split I/D %dKB %d-way, %d-cycle",
		c16.L1Bytes>>10, c16.L1Ways, c16.L1HitCycles),
		fmt.Sprintf("split I/D %dKB %d-way, %d-cycle", c8.L1Bytes>>10, c8.L1Ways, c8.L1HitCycles))
	row("L2 NUCA slice", fmt.Sprintf("%dMB %d-way, %d-cycle hit",
		c16.L2SliceBytes>>20, c16.L2Ways, c16.L2HitCycles),
		fmt.Sprintf("%dMB %d-way, %d-cycle hit", c8.L2SliceBytes>>20, c8.L2Ways, c8.L2HitCycles))
	row("Block size", fmt.Sprintf("%dB", c16.BlockBytes), fmt.Sprintf("%dB", c8.BlockBytes))
	row("MSHRs / victim", fmt.Sprintf("%d / %d-entry", c16.MSHRs, c16.VictimEntries),
		fmt.Sprintf("%d / %d-entry", c8.MSHRs, c8.VictimEntries))
	row("Main memory", fmt.Sprintf("%d-cycle (45ns @2GHz), %dKB pages",
		c16.MemAccessCycles, c16.PageBytes>>10),
		fmt.Sprintf("%d-cycle, %dKB pages", c8.MemAccessCycles, c8.PageBytes>>10))
	row("Memory controllers", "one per 4 cores, page round-robin", "one per 4 cores, page round-robin")
	row("Links", fmt.Sprintf("%dB, %d-cycle link, %d-cycle router",
		c16.Link.LinkBytes, c16.Link.LinkLatency, c16.Link.RouterLatency),
		fmt.Sprintf("%dB, %d-cycle link, %d-cycle router",
			c8.Link.LinkBytes, c8.Link.LinkLatency, c8.Link.RouterLatency))

	apps := report.NewTable("Table 1 (right): workloads", "Workload", "Category", "Cores", "Models")
	detail := map[string]string{
		"OLTP-DB2":    "TPC-C v3.0, IBM DB2 v8 ESE, 100 warehouses",
		"OLTP-Oracle": "TPC-C v3.0, Oracle 10g, 100 warehouses",
		"Apache":      "SPECweb99, Apache HTTP 2.0, 16K connections",
		"DSS-Qry6":    "TPC-H query 6, DB2, 480MB buffer pool",
		"DSS-Qry8":    "TPC-H query 8, DB2",
		"DSS-Qry13":   "TPC-H query 13, DB2",
		"em3d":        "768K nodes, degree 2, span 5, 15% remote",
		"MIX":         "2 copies each of gcc, twolf, mcf, art",
	}
	for _, w := range rnuca.Primary() {
		apps.AddRow(w.Name, w.Category.String(), fmt.Sprint(w.Cores), detail[w.Name])
	}
	return []*report.Table{sys, apps}
}

// sec3Rows is one workload's rows for the four §3 tables, Figures 2
// through 5 in order, each row led by the workload name.
type sec3Rows [4][][]string

// sec3Cols are the columns of the four §3 tables, Figures 2 through 5.
var sec3Cols = [4][]string{
	{"Workload", "Sharers", "Kind", "%RW blocks", "%L2 accesses", "Blocks"},
	{"Workload", "Instructions", "Data-Private", "Data-Shared-RW", "Data-Shared-RO"},
	{"Workload", "Class", "50%", "80%", "90%", "curve"},
	reuseCols(),
}

func reuseCols() []string {
	labels := trace.RunBucketLabels()
	return append([]string{"Workload", "Kind"}, labels[:]...)
}

// Fig2 reproduces Figure 2: L2 reference clustering. Each row is one
// bubble: blocks grouped by sharer count and instruction/data split, with
// the read-write fraction (Y axis) and access share (bubble diameter).
// Panel (a) covers server workloads including the extended set; panel (b)
// covers scientific and multi-programmed workloads.
func (c *Campaign) Fig2() []*report.Table {
	return c.Section3(2, append(rnuca.Primary(), rnuca.Extended()...))
}

// Fig3 reproduces Figure 3: the distribution of L2 references by access
// class for the primary workloads.
func (c *Campaign) Fig3() *report.Table { return c.Section3(3, rnuca.Primary())[0] }

// Fig4 reproduces Figure 4: per-class working-set CDFs. For each workload
// and class it reports the footprint needed to capture 50/80/90 percent of
// that class's L2 references, the quantile view of the paper's log-scale
// CDF curves, and the curve itself as a sparkline.
func (c *Campaign) Fig4() *report.Table { return c.Section3(4, rnuca.Primary())[0] }

// Fig5 reproduces Figure 5: instruction and shared-data reuse. For
// instructions: the distribution of same-core run positions. For shared
// data: accesses by one core between writes by others.
func (c *Campaign) Fig5() *report.Table { return c.Section3(5, rnuca.Primary())[0] }

// Section3 renders §3 figure fig (2 through 5) over ws with the
// catalog figure's titles: Figure 2's two category panels, leaving out
// a panel none of ws falls in, or Figure 3, 4 or 5's one table.
func (c *Campaign) Section3(fig int, ws []rnuca.Workload) []*report.Table {
	switch fig {
	case 2:
		var server, scimp []rnuca.Workload
		for _, w := range ws {
			if w.Category == workload.Server {
				server = append(server, w)
			} else {
				scimp = append(scimp, w)
			}
		}
		var out []*report.Table
		for _, p := range []struct {
			title string
			ws    []rnuca.Workload
		}{
			{"Figure 2(a): L2 reference clustering — server workloads", server},
			{"Figure 2(b): L2 reference clustering — scientific and multi-programmed", scimp},
		} {
			if len(p.ws) > 0 {
				out = append(out, c.sec3Table(0, p.title, p.ws))
			}
		}
		return out
	case 3:
		return []*report.Table{c.sec3Table(1, "Figure 3: L2 reference breakdown", ws)}
	case 4:
		return []*report.Table{c.sec3Table(2, "Figure 4: L2 working set sizes (footprint at CDF quantiles)", ws)}
	case 5:
		return []*report.Table{c.sec3Table(3, "Figure 5: instruction and shared-data reuse", ws)}
	}
	panic(fmt.Sprintf("experiments: Section3: no §3 figure %d", fig))
}

// sec3Table assembles §3 table i (0 for Figure 2 through 3 for Figure
// 5) from the rows of each workload in ws.
func (c *Campaign) sec3Table(i int, title string, ws []rnuca.Workload) *report.Table {
	t := report.NewTable(title, sec3Cols[i]...)
	for _, w := range ws {
		for _, row := range c.sec3Rows(w)[i] {
			t.AddRow(row...)
		}
	}
	return t
}

// sec3Rows returns a workload's rows for all four §3 tables, built
// from one analysis of its reference stream on first use. The rows are
// memoized per workload; the analyzer is not, so a figure build holds
// one block map at a time.
func (c *Campaign) sec3Rows(w rnuca.Workload) *sec3Rows {
	if rows := c.sec3[w.Name]; rows != nil {
		return rows
	}
	an := c.analyze(w)
	rows := &sec3Rows{}
	add := func(i int, cells ...string) { rows[i] = append(rows[i], append([]string{w.Name}, cells...)) }
	for _, b := range an.ReferenceClustering() {
		if b.AccessShare < 0.001 {
			continue
		}
		kind := "data"
		if b.Instruction {
			kind = "instr"
		} else if b.Private {
			kind = "data-priv"
		}
		add(0, fmt.Sprint(b.Sharers), kind, pct(b.RWFraction), pct(b.AccessShare), fmt.Sprint(b.Blocks))
	}
	bd := an.ReferenceBreakdown()
	add(1, share(bd.Instructions, bd.TotalAccesses), share(bd.DataPrivate, bd.TotalAccesses),
		share(bd.DataSharedRW, bd.TotalAccesses), share(bd.DataSharedRO, bd.TotalAccesses))
	for _, class := range []cache.Class{cache.ClassPrivate, cache.ClassInstruction, cache.ClassShared} {
		cdf := an.WorkingSetCDF(class)
		if cdf.Samples() == 0 {
			continue
		}
		_, fracs := cdf.Points()
		add(2, class.String(), kb(cdf.Quantile(0.5)*1024), kb(cdf.Quantile(0.8)*1024), kb(cdf.Quantile(0.9)*1024),
			report.Sparkline(sample(fracs, 24)))
	}
	for _, kind := range []string{"instructions", "shared data"} {
		h := an.ReuseHistogram(kind == "instructions")
		add(3, kind, pct(h[0]), pct(h[1]), pct(h[2]), pct(h[3]), pct(h[4]))
	}
	c.sec3[w.Name] = rows
	return rows
}

// sample downsamples a series to at most n points.
func sample(xs []float64, n int) []float64 {
	if len(xs) <= n {
		return xs
	}
	out := make([]float64, n)
	for i := 0; i < n; i++ {
		out[i] = xs[i*len(xs)/n]
	}
	return out
}
