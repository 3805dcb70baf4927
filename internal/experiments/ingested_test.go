package experiments

import (
	"testing"

	"rnuca"
)

// An ingested corpus (converted from a checked-in foreign fixture) runs
// through the campaign exactly like a recorded trace: design
// comparisons replay it, and the Figure 2–5 analyses read it.
func TestCampaignUseIngested(t *testing.T) {
	path := convertTiny(t)
	c := NewCampaign(Scale{Warm: 120, Measure: 480, TraceRefs: 1_000, Batches: 1})
	w, err := c.SetInput(rnuca.FromTrace(path))
	if err != nil {
		t.Fatalf("SetInput: %v", err)
	}
	if w.Name != "din-ingested" || w.Cores != 4 {
		t.Fatalf("synthesized workload %+v", w)
	}

	// All design comparisons replay the corpus without error.
	for _, id := range rnuca.AllDesigns() {
		if r := c.Result(w, id); r.CPI() <= 0 {
			t.Fatalf("design %s CPI %v", id, r.CPI())
		}
	}
	cmp := c.CompareIngested(nil)
	if len(cmp.Rows) != 1 {
		t.Fatalf("comparison rows %d, want 1", len(cmp.Rows))
	}

	// The Figure 2–5 analyses read the corpus (looping it to reach the
	// requested ref count).
	tables := c.FigIngested()
	if len(tables) != 4 {
		t.Fatalf("FigIngested returned %d tables, want 4", len(tables))
	}
	an := c.analyze(w)
	if an.Total() != 1_000 {
		t.Fatalf("analyzer observed %d refs, want 1000", an.Total())
	}
	bd := an.ReferenceBreakdown()
	if bd.Instructions == 0 || bd.Instructions == bd.TotalAccesses {
		t.Fatalf("ingested breakdown instruction share %v", bd.Instructions)
	}
}
