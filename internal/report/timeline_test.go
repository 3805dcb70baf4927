package report

import (
	"os"
	"strings"
	"testing"

	"rnuca/internal/obs/flight"
)

// fixtureTimeline is a hand-built two-core, two-bank timeline with
// ragged link lanes, exercising every renderer section.
func fixtureTimeline() *flight.Timeline {
	return &flight.Timeline{
		EpochRefs:  100,
		BaseEpochs: 3,
		Scale:      1,
		Cores:      2,
		Banks:      2,
		Links:      []string{"0>1", "1>0"},
		Epochs: []flight.Epoch{
			{
				Index: 0, Epochs: 1, StartRef: 0, EndRef: 100,
				CoreCycles: []float64{200, 100}, CoreInstrs: []uint64{100, 100},
				ClassAccesses: [4]uint64{60, 20, 0, 20}, ClassMisses: [4]uint64{6, 1, 0, 2},
				Transitions:  flight.Transitions{FirstTouches: 5},
				BankAccesses: []uint64{30, 10},
				LinkFlits:    []uint64{40},
			},
			{
				Index: 1, Epochs: 1, StartRef: 100, EndRef: 200,
				CoreCycles: []float64{300, 150}, CoreInstrs: []uint64{100, 100},
				ClassAccesses: [4]uint64{50, 30, 0, 20}, ClassMisses: [4]uint64{5, 2, 0, 2},
				Transitions: flight.Transitions{
					PrivateToShared: 2, Migrations: 1, TLBShootdowns: 3,
				},
				BankAccesses: []uint64{20, 40},
				LinkFlits:    []uint64{10, 30},
			},
			{
				Index: 2, Epochs: 1, StartRef: 200, EndRef: 260,
				CoreCycles: []float64{90, 60}, CoreInstrs: []uint64{60, 0},
				ClassAccesses: [4]uint64{40, 10, 0, 10}, ClassMisses: [4]uint64{4, 0, 0, 1},
				BankAccesses: []uint64{5, 0},
				LinkFlits:    []uint64{0, 5},
			},
		},
	}
}

// TestRenderTimelineGolden freezes the renderer's output against
// testdata/timeline.golden; the end-to-end flows (rnuca-sim -timeline,
// rnuca-figures -timeline, serve) all feed this renderer, so its shape
// is API. Regenerate intentionally with UPDATE_GOLDEN=1.
func TestRenderTimelineGolden(t *testing.T) {
	var buf strings.Builder
	RenderTimeline(&buf, "fix/R", fixtureTimeline())
	const path = "testdata/timeline.golden"
	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.WriteFile(path, []byte(buf.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if buf.String() != string(want) {
		t.Errorf("renderer output drifted (UPDATE_GOLDEN=1 to regenerate).\n--- got ---\n%s\n--- want ---\n%s",
			buf.String(), want)
	}
}

func TestRenderTimelineEmpty(t *testing.T) {
	var buf strings.Builder
	RenderTimeline(&buf, "", nil)
	RenderTimeline(&buf, "x", &flight.Timeline{})
	got := buf.String()
	want := "timeline: no epochs recorded\ntimeline x: no epochs recorded\n"
	if got != want {
		t.Errorf("empty rendering = %q, want %q", got, want)
	}
}

func TestRenderTimelineDeterministic(t *testing.T) {
	var a, b strings.Builder
	RenderTimeline(&a, "fix/R", fixtureTimeline())
	RenderTimeline(&b, "fix/R", fixtureTimeline())
	if a.String() != b.String() {
		t.Error("two renders of the same timeline differ")
	}
}
