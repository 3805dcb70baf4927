package report

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"rnuca/internal/obs"
	"rnuca/internal/obs/flight"
)

// Outputs holds the observation flags the simulation CLIs share:
// -trace-out, -timeline and -epoch.
type Outputs struct {
	traceOut, timeline string
	epoch              *int
	spans              *obs.Trace
}

// OutputFlags declares -trace-out, -timeline and -epoch on fs.
func OutputFlags(fs *flag.FlagSet) *Outputs {
	o := &Outputs{}
	fs.StringVar(&o.traceOut, "trace-out", "", "write the per-stage span trace as JSON to this path")
	fs.StringVar(&o.timeline, "timeline", "", "record flight timelines and write them here: text, a JSON object keyed by workload/design if the path ends in .json, - for stdout")
	o.epoch = EpochFlag(fs)
	return o
}

// EpochFlag declares -epoch, the flight recorder's epoch length, on fs.
func EpochFlag(fs *flag.FlagSet) *int {
	return fs.Int("epoch", 0, "flight-recorder epoch length in measured refs (0 = default 64Ki)")
}

// Start attaches a span trace to ctx when -trace-out is set, and
// returns the flight-recorder config -timeline asks for (nil without
// it).
func (o *Outputs) Start(ctx context.Context) (context.Context, *flight.Config) {
	if o.traceOut != "" {
		o.spans = obs.NewTrace(0)
		ctx = obs.ContextWithTrace(ctx, o.spans)
	}
	if o.timeline == "" {
		return ctx, nil
	}
	return ctx, &flight.Config{Every: *o.epoch}
}

// Finish writes what the flags ask for: the span export to -trace-out
// and the timelines, keyed "workload/design", to -timeline (see
// WriteTimelines). It returns the per-stage timings, nil without
// -trace-out.
func (o *Outputs) Finish(timelines map[string]*flight.Timeline) ([]obs.StageTiming, error) {
	var stages []obs.StageTiming
	if o.spans != nil {
		ex := o.spans.Export()
		b, err := json.MarshalIndent(ex, "", "  ")
		if err != nil {
			return nil, fmt.Errorf("report: encoding span trace: %w", err)
		}
		if err := os.WriteFile(o.traceOut, append(b, '\n'), 0o644); err != nil {
			return nil, err
		}
		stages = ex.Stages
	}
	if o.timeline != "" {
		if err := WriteTimelines(o.timeline, timelines); err != nil {
			return nil, err
		}
	}
	return stages, nil
}

// StageTable tabulates per-stage wall-clock timings: the summed
// seconds of each stage's spans and the wall time their union covers,
// which is shorter where the spans overlapped.
func StageTable(stages []obs.StageTiming) *Table {
	t := NewTable("stage timing", "Stage", "Seconds", "Wall", "Count")
	for _, st := range stages {
		t.AddRow(st.Stage, fmt.Sprintf("%.4f", st.Seconds), fmt.Sprintf("%.4f", st.WallSeconds), fmt.Sprint(st.Count))
	}
	return t
}
