// Command rnuca-figures regenerates every table and figure of the paper's
// evaluation. By default it prints all of them at quick scale; select
// experiments with -exp and the publication scale with -scale full.
//
// Usage:
//
//	rnuca-figures [-exp all|table1|fig2|fig3|fig4|fig5|fig7|fig8|fig9|fig10|fig11|fig12|classacc]
//	              [-scale quick|full] [-csv] [-workload NAME[,NAME]]
//	              [-trace-out spans.json] [-timeline FILE] [-epoch N]
//
// -workload runs the §3 characterization (Figures 2–5) over the named
// catalog workloads instead of the catalog's figure sets, reading each
// workload's -scale TraceRefs references; -exp then defaults to
// fig2,fig3,fig4,fig5 and may name only those.
//
// -trace-out collects the campaign's span export (internal/obs) over
// every selected experiment and writes it as JSON. -timeline attaches
// the flight recorder to every simulation cell the campaign runs and
// writes every recorded timeline (per-core CPI sparklines,
// bank-pressure heatmap, classification churn, hottest links) to FILE:
// text, one section per cell in sorted order, or a JSON object keyed
// by cell when FILE ends in .json; "-" writes the text to stdout. A
// cell's key is "workload/design", plus the value a sweep varies
// ("OLTP-DB2/R/instr8", "OLTP-DB2/S/mesh"). -epoch sets the epoch
// length in measured refs (default 64Ki). Recording never changes the
// tables.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strings"

	"rnuca"
	"rnuca/internal/experiments"
	"rnuca/internal/report"
	"rnuca/internal/workload"
)

func main() {
	exp := flag.String("exp", "all", "experiment to run (all, table1, fig2..fig12, classacc, privclust, scaling, meshtorus, migration, memlat, traffic, nocmodel)")
	scale := flag.String("scale", "quick", "quick (seconds) or full (minutes, CI batches, best-of-six ASR)")
	csv := flag.Bool("csv", false, "emit CSV instead of aligned tables")
	names := flag.String("workload", "", "comma-separated catalog workloads: run Figures 2-5 over these instead")
	outputs := report.OutputFlags(flag.CommandLine)
	flag.Parse()

	var s experiments.Scale
	switch *scale {
	case "quick":
		s = experiments.Quick()
	case "full":
		s = experiments.Full()
	default:
		fmt.Fprintf(os.Stderr, "unknown scale %q\n", *scale)
		os.Exit(2)
	}
	c := experiments.NewCampaign(s)
	ctx, timeline := outputs.Start(context.Background())
	c.SetContext(ctx)
	c.SetTimeline(timeline)

	runners := map[string]func() []*report.Table{
		"table1":    experiments.Table1,
		"fig2":      c.Fig2,
		"fig3":      func() []*report.Table { return []*report.Table{c.Fig3()} },
		"fig4":      func() []*report.Table { return []*report.Table{c.Fig4()} },
		"fig5":      func() []*report.Table { return []*report.Table{c.Fig5()} },
		"fig7":      func() []*report.Table { return []*report.Table{c.Fig7()} },
		"fig8":      func() []*report.Table { return []*report.Table{c.Fig8()} },
		"fig9":      func() []*report.Table { return []*report.Table{c.Fig9()} },
		"fig10":     func() []*report.Table { return []*report.Table{c.Fig10()} },
		"fig11":     func() []*report.Table { return []*report.Table{c.Fig11()} },
		"fig12":     func() []*report.Table { return []*report.Table{c.Fig12()} },
		"classacc":  func() []*report.Table { return []*report.Table{c.ClassificationAccuracy()} },
		"privclust": func() []*report.Table { return []*report.Table{c.PrivateClusterAblation()} },
		"scaling":   func() []*report.Table { return []*report.Table{c.TechnologyScaling()} },
		"meshtorus": func() []*report.Table { return []*report.Table{c.MeshVsTorus()} },
		"migration": func() []*report.Table { return []*report.Table{c.MigrationStress()} },
		"memlat":    func() []*report.Table { return []*report.Table{c.MemLatencySweep()} },
		"traffic":   func() []*report.Table { return []*report.Table{c.TrafficComparison()} },
		"nocmodel":  func() []*report.Table { return []*report.Table{c.ContentionModelAblation()} },
	}
	order := []string{"table1", "fig2", "fig3", "fig4", "fig5", "classacc",
		"fig7", "fig8", "fig9", "fig10", "fig11", "fig12",
		"privclust", "scaling", "meshtorus", "migration", "memlat", "traffic", "nocmodel"}
	if *names != "" {
		var ws []rnuca.Workload
		for _, name := range strings.Split(*names, ",") {
			w, ok := workload.ByName(name)
			if !ok {
				fmt.Fprintf(os.Stderr, "unknown workload %q (see rnuca-sim -list)\n", name)
				os.Exit(2)
			}
			ws = append(ws, w)
		}
		order = []string{"fig2", "fig3", "fig4", "fig5"}
		runners = map[string]func() []*report.Table{}
		for i, e := range order {
			fig := i + 2
			runners[e] = func() []*report.Table { return c.Section3(fig, ws) }
		}
		if *exp == "all" {
			*exp = strings.Join(order, ",")
		}
	}

	var selected []string
	if *exp == "all" {
		selected = order
	} else {
		for _, e := range strings.Split(*exp, ",") {
			if _, ok := runners[e]; !ok {
				fmt.Fprintf(os.Stderr, "unknown experiment %q (choose from %s)\n", e, strings.Join(order, ", "))
				os.Exit(2)
			}
			selected = append(selected, e)
		}
	}

	for _, e := range selected {
		for _, t := range runners[e]() {
			if *csv {
				t.CSV(os.Stdout)
			} else {
				t.Render(os.Stdout)
			}
			fmt.Println()
		}
	}
	if _, err := outputs.Finish(c.Timelines()); err != nil {
		fmt.Fprintf(os.Stderr, "rnuca-figures: %v\n", err)
		os.Exit(1)
	}
}
