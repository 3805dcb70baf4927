package report

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"

	"rnuca/internal/obs/flight"
)

// WriteTimelines writes labelled flight timelines to path: text
// sections in sorted label order, one JSON object keyed by label when
// path ends in ".json", and the text on stdout when path is "-".
func WriteTimelines(path string, tls map[string]*flight.Timeline) error {
	var buf bytes.Buffer
	if strings.HasSuffix(path, ".json") {
		b, err := json.MarshalIndent(tls, "", "  ")
		if err != nil {
			return fmt.Errorf("report: encoding timelines: %w", err)
		}
		buf.Write(append(b, '\n'))
	} else {
		labels := make([]string, 0, len(tls))
		for l := range tls {
			labels = append(labels, l)
		}
		sort.Strings(labels)
		for i, l := range labels {
			if i > 0 {
				buf.WriteByte('\n')
			}
			RenderTimeline(&buf, l, tls[l])
		}
		if len(labels) == 0 {
			RenderTimeline(&buf, "", nil)
		}
	}
	if path == "-" {
		_, err := os.Stdout.Write(buf.Bytes())
		return err
	}
	return os.WriteFile(path, buf.Bytes(), 0o644)
}

// RenderTimeline renders a flight-recorder timeline as text: a header,
// per-core CPI sparklines, a bank-pressure heatmap (banks x epochs), a
// classification-churn table, and the hottest links. label names the
// run (e.g. "oltp-db2/R"); pass "" to omit the header line.
func RenderTimeline(w io.Writer, label string, t *flight.Timeline) {
	if t == nil || len(t.Epochs) == 0 {
		if label != "" {
			fmt.Fprintf(w, "timeline %s: no epochs recorded\n", label)
		} else {
			fmt.Fprintln(w, "timeline: no epochs recorded")
		}
		return
	}
	if label != "" {
		fmt.Fprintf(w, "timeline %s\n", label)
	}
	fmt.Fprintf(w, "epochs %d (x%d of %d refs), cores %d, banks %d, links %d\n",
		len(t.Epochs), t.Scale, t.EpochRefs, t.Cores, t.Banks, len(t.Links))

	renderCPISparklines(w, t)
	renderBankHeatmap(w, t)
	renderChurnTable(w, t)
	renderTopLinks(w, t)
}

// renderCPISparklines draws one sparkline per core over the epochs,
// with the per-core mean CPI alongside.
func renderCPISparklines(w io.Writer, t *flight.Timeline) {
	fmt.Fprintln(w, "\nper-core CPI")
	for core := 0; core < t.Cores; core++ {
		vals := make([]float64, len(t.Epochs))
		var cycles, instrs float64
		for i, e := range t.Epochs {
			vals[i] = e.CPI(core)
			if core < len(e.CoreCycles) {
				cycles += e.CoreCycles[core]
			}
			if core < len(e.CoreInstrs) {
				instrs += float64(e.CoreInstrs[core])
			}
		}
		mean := 0.0
		if instrs > 0 {
			mean = cycles / instrs
		}
		fmt.Fprintf(w, "  core %2d %s mean %.3f\n", core, Sparkline(vals), mean)
	}
}

// heatGlyphs shade the bank-pressure heatmap, least to most loaded.
var heatGlyphs = []rune(" ░▒▓█")

// renderBankHeatmap draws banks as rows and epochs as columns, each
// cell shaded by the bank's share of that scale's maximum cell.
func renderBankHeatmap(w io.Writer, t *flight.Timeline) {
	if t.Banks == 0 {
		return
	}
	fmt.Fprintln(w, "\nbank pressure (rows: banks, cols: epochs)")
	max := uint64(0)
	for _, e := range t.Epochs {
		for _, v := range e.BankAccesses {
			if v > max {
				max = v
			}
		}
	}
	if max == 0 {
		max = 1
	}
	for b := 0; b < t.Banks; b++ {
		var row strings.Builder
		var total uint64
		for _, e := range t.Epochs {
			var v uint64
			if b < len(e.BankAccesses) {
				v = e.BankAccesses[b]
			}
			total += v
			idx := int(float64(v) / float64(max) * float64(len(heatGlyphs)-1))
			if v > 0 && idx == 0 {
				idx = 1 // nonzero pressure is visible
			}
			row.WriteRune(heatGlyphs[idx])
		}
		fmt.Fprintf(w, "  bank %2d |%s| %d\n", b, row.String(), total)
	}
}

// renderChurnTable tabulates classification transitions per epoch.
// Epochs with no activity at all are compressed out to keep long quiet
// runs readable.
func renderChurnTable(w io.Writer, t *flight.Timeline) {
	tbl := NewTable("classification churn",
		"epoch", "refs", "priv>shared", "migrations", "instr>shared", "priv>instr", "shootdowns")
	quiet := 0
	for _, e := range t.Epochs {
		tr := e.Transitions
		if tr.Total() == 0 && tr.TLBShootdowns == 0 {
			quiet++
			continue
		}
		tbl.AddRow(
			fmt.Sprintf("%d", e.Index),
			fmt.Sprintf("%d", e.Refs()),
			fmt.Sprintf("%d", tr.PrivateToShared),
			fmt.Sprintf("%d", tr.Migrations),
			fmt.Sprintf("%d", tr.InstrToShared),
			fmt.Sprintf("%d", tr.PrivateToInstr),
			fmt.Sprintf("%d", tr.TLBShootdowns),
		)
	}
	fmt.Fprintln(w)
	tbl.Render(w)
	if quiet > 0 {
		fmt.Fprintf(w, "(%d quiet epochs omitted)\n", quiet)
	}
}

// topLinksShown bounds the link-utilization section.
const topLinksShown = 8

// renderTopLinks lists the hottest links by total flits, each with its
// per-epoch sparkline. Ties break on lane order for determinism.
func renderTopLinks(w io.Writer, t *flight.Timeline) {
	if len(t.Links) == 0 {
		return
	}
	totals := make([]uint64, len(t.Links))
	for _, e := range t.Epochs {
		for i, v := range e.LinkFlits {
			if i < len(totals) {
				totals[i] += v
			}
		}
	}
	order := make([]int, len(t.Links))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return totals[order[a]] > totals[order[b]] })
	n := len(order)
	if n > topLinksShown {
		n = topLinksShown
	}
	fmt.Fprintf(w, "\nhottest links (top %d of %d, flits)\n", n, len(t.Links))
	for _, i := range order[:n] {
		vals := make([]float64, len(t.Epochs))
		for j, e := range t.Epochs {
			if i < len(e.LinkFlits) {
				vals[j] = float64(e.LinkFlits[i])
			}
		}
		fmt.Fprintf(w, "  %-7s %s %d\n", t.Links[i], Sparkline(vals), totals[i])
	}
}
