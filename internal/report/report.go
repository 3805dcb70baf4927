// Package report renders experiment results as aligned ASCII tables,
// horizontal bar charts, and CSV, for the figure-regeneration harness
// (cmd/rnuca-figures) and the examples. It also owns the observation
// flags the simulation CLIs share (-trace-out, -timeline, -epoch) and
// the files they write.
package report

import (
	"fmt"
	"io"
	"strings"
)

// Table is a simple column-aligned text table.
//
//rnuca:wire
type Table struct {
	Title   string     `json:"Title"`
	Headers []string   `json:"Headers"`
	Rows    [][]string `json:"Rows"`
}

// NewTable builds a table with the given title and column headers.
func NewTable(title string, headers ...string) *Table {
	return &Table{Title: title, Headers: headers}
}

// AddRow appends a row; cells beyond the header count are kept.
func (t *Table) AddRow(cells ...string) {
	t.Rows = append(t.Rows, cells)
}

// AddRowf appends a row of formatted cells.
func (t *Table) AddRowf(format []string, args ...interface{}) {
	row := make([]string, len(format))
	ai := 0
	for i, f := range format {
		if strings.Contains(f, "%") {
			row[i] = fmt.Sprintf(f, args[ai])
			ai++
		} else {
			row[i] = f
		}
	}
	t.Rows = append(t.Rows, row)
}

// Render writes the table to w.
func (t *Table) Render(w io.Writer) {
	widths := make([]int, len(t.Headers))
	for i, h := range t.Headers {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	if t.Title != "" {
		fmt.Fprintf(w, "%s\n", t.Title)
	}
	line := func(cells []string) {
		parts := make([]string, 0, len(cells))
		for i, c := range cells {
			if i < len(widths) {
				parts = append(parts, pad(c, widths[i]))
			} else {
				parts = append(parts, c)
			}
		}
		fmt.Fprintf(w, "  %s\n", strings.Join(parts, "  "))
	}
	line(t.Headers)
	sep := make([]string, len(t.Headers))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, row := range t.Rows {
		line(row)
	}
}

// CSV writes the table as comma-separated values.
func (t *Table) CSV(w io.Writer) {
	write := func(cells []string) {
		esc := make([]string, len(cells))
		for i, c := range cells {
			if strings.ContainsAny(c, ",\"\n") {
				c = "\"" + strings.ReplaceAll(c, "\"", "\"\"") + "\""
			}
			esc[i] = c
		}
		fmt.Fprintln(w, strings.Join(esc, ","))
	}
	write(t.Headers)
	for _, row := range t.Rows {
		write(row)
	}
}

// String renders to a string.
func (t *Table) String() string {
	var b strings.Builder
	t.Render(&b)
	return b.String()
}

func pad(s string, w int) string {
	if len(s) >= w {
		return s
	}
	return s + strings.Repeat(" ", w-len(s))
}

// Bar renders a labelled horizontal bar scaled to maxWidth characters.
func Bar(value, max float64, maxWidth int) string {
	if max <= 0 || value < 0 {
		return ""
	}
	n := int(value / max * float64(maxWidth))
	if n > maxWidth {
		n = maxWidth
	}
	return strings.Repeat("#", n)
}

// StackedBar renders segments (in order) with one rune per segment type,
// scaled so that max maps to maxWidth characters. Segment runes cycle
// through the provided glyphs.
func StackedBar(segments []float64, glyphs []rune, max float64, maxWidth int) string {
	if max <= 0 {
		return ""
	}
	var b strings.Builder
	for i, s := range segments {
		n := int(s / max * float64(maxWidth))
		g := glyphs[i%len(glyphs)]
		for j := 0; j < n; j++ {
			b.WriteRune(g)
		}
	}
	return b.String()
}

// Sparkline maps values to an 8-level unicode sparkline; handy for CDFs.
func Sparkline(values []float64) string {
	if len(values) == 0 {
		return ""
	}
	levels := []rune("▁▂▃▄▅▆▇█")
	max := values[0]
	for _, v := range values {
		if v > max {
			max = v
		}
	}
	if max == 0 {
		max = 1
	}
	var b strings.Builder
	for _, v := range values {
		idx := int(v / max * float64(len(levels)-1))
		if idx < 0 {
			idx = 0
		}
		if idx >= len(levels) {
			idx = len(levels) - 1
		}
		b.WriteRune(levels[idx])
	}
	return b.String()
}
