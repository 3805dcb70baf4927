package experiments

import (
	"fmt"
	"sort"

	"rnuca"
	"rnuca/internal/report"
)

// IngestedWorkloads returns the workloads registered through
// SetInput, sorted by name for deterministic table order.
func (c *Campaign) IngestedWorkloads() []rnuca.Workload {
	out := make([]rnuca.Workload, 0, len(c.ingested))
	for _, w := range c.ingested {
		out = append(out, w)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// FigIngested runs the paper's §3 characterization suite (the Figure
// 2–5 analyses) over every ingested corpus: reference clustering,
// class breakdown, per-class working sets, and reuse histograms, all
// fed from the converted trace exactly as the catalog workloads feed
// from theirs, in the same rows. It returns nil when no corpus is
// registered.
func (c *Campaign) FigIngested() []*report.Table {
	ws := c.IngestedWorkloads()
	if len(ws) == 0 {
		return nil
	}
	return []*report.Table{
		c.sec3Table(0, "Ingested corpora: L2 reference clustering (Figure 2 analysis)", ws),
		c.sec3Table(1, "Ingested corpora: L2 reference breakdown (Figure 3 analysis)", ws),
		c.sec3Table(2, "Ingested corpora: L2 working sets (Figure 4 analysis)", ws),
		c.sec3Table(3, "Ingested corpora: instruction and shared-data reuse (Figure 5 analysis)", ws),
	}
}

// CompareIngested replays every ingested corpus under the given designs
// (all five when ids is nil) — the Figure 12 comparison over workloads
// the repo did not invent. Speedups are relative to the first design.
func (c *Campaign) CompareIngested(ids []rnuca.DesignID) *report.Table {
	if len(ids) == 0 {
		ids = rnuca.AllDesigns()
	}
	cols := []string{"Workload"}
	for _, id := range ids {
		cols = append(cols, string(id)+" CPI")
	}
	cols = append(cols, fmt.Sprintf("R vs %s", ids[0]))
	t := report.NewTable("Ingested corpora: design comparison (Figure 12 analysis)", cols...)
	rs := c.need(grid(c.IngestedWorkloads(), ids...))
	for _, w := range c.IngestedWorkloads() {
		base := rs.of(w, ids[0])
		row := []string{w.Name}
		rSpeedup := ""
		for _, id := range ids {
			r := rs.of(w, id)
			row = append(row, fmt.Sprintf("%.4f", r.CPI()))
			if id == rnuca.DesignRNUCA {
				rSpeedup = fmt.Sprintf("%+.1f%%", 100*r.Speedup(base.Result))
			}
		}
		t.AddRow(append(row, rSpeedup)...)
	}
	return t
}
