package experiments

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"rnuca"
)

func TestTechnologyScaling(t *testing.T) {
	if testing.Short() {
		t.Skip("scaling sweep is slow")
	}
	c := NewCampaign(tiny())
	tab := c.TechnologyScaling()
	if len(tab.Rows) != 3 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	s := tab.String()
	for _, want := range []string{"16", "32", "64", "8x8"} {
		if !strings.Contains(s, want) {
			t.Fatalf("scaling table missing %q:\n%s", want, s)
		}
	}
}

func TestMeshVsTorus(t *testing.T) {
	if testing.Short() {
		t.Skip("topology sweep is slow")
	}
	c := NewCampaign(tiny())
	tab := c.MeshVsTorus()
	if len(tab.Rows) != 2 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	// Parse the shared-design CPIs: the mesh must not beat the torus.
	var torus, mesh float64
	for _, row := range tab.Rows {
		var v float64
		if _, err := sscan(row[1], &v); err != nil {
			t.Fatalf("bad cell %q", row[1])
		}
		if row[0] == "torus" {
			torus = v
		} else {
			mesh = v
		}
	}
	if mesh < torus {
		t.Fatalf("mesh (%v) should not beat the torus (%v) for the shared design", mesh, torus)
	}
}

func TestMigrationStress(t *testing.T) {
	if testing.Short() {
		t.Skip("migration stress is slow")
	}
	c := NewCampaign(tiny())
	tab := c.MigrationStress()
	if len(tab.Rows) != 2 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	// The migrating variant must pay substantially more re-classification
	// than the pinned one (which only sees mixed-page transitions).
	var pinned, migrating float64
	if _, err := sscan(tab.Rows[0][2], &pinned); err != nil {
		t.Fatal(err)
	}
	if _, err := sscan(tab.Rows[1][2], &migrating); err != nil {
		t.Fatal(err)
	}
	if migrating <= pinned*2 {
		t.Fatalf("migrating reclass CPI %v should dwarf pinned %v", migrating, pinned)
	}
}

func TestMemLatencySweep(t *testing.T) {
	if testing.Short() {
		t.Skip("latency sweep is slow")
	}
	c := NewCampaign(tiny())
	tab := c.MemLatencySweep()
	if len(tab.Rows) != 3 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	if tab.Rows[0][0] != "90" || tab.Rows[2][0] != "500" {
		t.Fatalf("latency points wrong: %v", tab.Rows)
	}
}

func TestTrafficComparison(t *testing.T) {
	if testing.Short() {
		t.Skip("traffic comparison is slow")
	}
	c := NewCampaign(tiny())
	tab := c.TrafficComparison()
	if len(tab.Rows) != 4 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	// Broadcast must be the heaviest per-reference message load.
	loads := map[string]float64{}
	for _, row := range tab.Rows {
		var v float64
		if _, err := sscan(row[2], &v); err != nil {
			t.Fatalf("bad cell %q", row[2])
		}
		loads[row[0]] = v
	}
	if loads["Pb"] <= loads["P"] {
		t.Fatalf("broadcast traffic (%v) should exceed directory private (%v)", loads["Pb"], loads["P"])
	}
	if loads["R"] >= loads["Pb"] {
		t.Fatalf("R-NUCA traffic (%v) should be below broadcast (%v)", loads["R"], loads["Pb"])
	}
}

func TestContentionModelAblation(t *testing.T) {
	if testing.Short() {
		t.Skip("contention ablation is slow")
	}
	c := NewCampaign(tiny())
	tab := c.ContentionModelAblation()
	if len(tab.Rows) != 2 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	// The two models must agree within a few percent at these loads, and
	// the queue model must report its wait cycles.
	var a, q float64
	if _, err := sscan(tab.Rows[0][2], &a); err != nil {
		t.Fatal(err)
	}
	if _, err := sscan(tab.Rows[1][2], &q); err != nil {
		t.Fatal(err)
	}
	if q < a*0.9 || q > a*1.15 {
		t.Fatalf("contention models disagree: analytic %v vs queued %v", a, q)
	}
	if tab.Rows[1][3] == "-" {
		t.Fatal("queue model missing wait cycles")
	}
	if tab.Rows[0][3] != "-" {
		t.Fatal("analytic model should not report wait cycles")
	}
}

// sscan parses a float out of a table cell.
func sscan(cell string, v *float64) (int, error) {
	return fmt.Sscan(cell, v)
}

// TestTimelinePerCell checks that a sweep whose cells share a design on
// one workload, varying only the configuration or options, saves one
// flight timeline per cell instead of letting one cell's timeline
// replace another's, within the sweep or beside a figure's default
// cell.
func TestTimelinePerCell(t *testing.T) {
	scale := Scale{Warm: 500, Measure: 1500, TraceRefs: 1000, Batches: 1}
	for _, sweep := range []struct {
		name  string
		cells func(*Campaign) int
	}{
		{"MeshVsTorus", func(c *Campaign) int { return 2 * len(c.MeshVsTorus().Rows) }},
		{"Fig11", func(c *Campaign) int { return len(c.Fig11().Rows) }},
		{"MigrationStress beside MIX's R cell", func(c *Campaign) int {
			c.need(grid([]rnuca.Workload{rnuca.MIX()}, rnuca.DesignRNUCA))
			return 1 + len(c.MigrationStress().Rows)
		}},
	} {
		c := NewCampaign(scale)
		c.SetTimeline(&rnuca.TimelineConfig{Every: 256})
		cells := sweep.cells(c)
		if got := len(c.Timelines()); got != cells {
			keys := make([]string, 0, got)
			for k := range c.Timelines() {
				keys = append(keys, k)
			}
			sort.Strings(keys)
			t.Errorf("%s: %d timelines for %d cells: %v", sweep.name, got, cells, keys)
		}
	}
}
