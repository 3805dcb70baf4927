package main

import (
	"encoding/json"
	"os"
	"testing"
)

// TestBenchmarkJSONMatchesProgram keeps ../BENCHMARK.json and the
// program's workload and metric tables in step: the same workloads with
// the same reasons, and the same metric names and units.
func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type named struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
		Why  string `json:"why"`
	}
	var spec struct {
		Workloads []named `json:"workloads"`
		EndToEnd  []named `json:"end_to_end"`
		PerLayer  []named `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if spec.Workloads[i].Name != w.name || spec.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json %+v, program %q %q", i, spec.Workloads[i], w.name, w.why)
		}
	}
	for _, c := range []struct {
		what string
		json []named
		prog []metricDef
	}{{"end_to_end", spec.EndToEnd, endToEnd}, {"per_layer", spec.PerLayer, perLayer}} {
		if len(c.json) != len(c.prog) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the program %d", c.what, len(c.json), len(c.prog))
			continue
		}
		for i, m := range c.prog {
			if c.json[i].Name != m.name || c.json[i].Unit != m.unit {
				t.Errorf("%s %d: BENCHMARK.json %s/%s, program %s/%s", c.what, i, c.json[i].Name, c.json[i].Unit, m.name, m.unit)
			}
		}
	}
}

// TestContractResultShape: the last output line has exactly the keys
// correct, attempted, failed and metrics; failures make it incorrect.
func TestContractResultShape(t *testing.T) {
	rep := report{Workload: "w", Attempted: 3, Failed: 1, Metrics: []metric{{Name: "setup_s", Unit: "s", Value: 0.5}}}
	b, err := json.Marshal(contractResult([]report{rep}))
	if err != nil {
		t.Fatal(err)
	}
	var got map[string]json.RawMessage
	if err := json.Unmarshal(b, &got); err != nil {
		t.Fatal(err)
	}
	if len(got) != 4 || string(got["correct"]) != "false" || string(got["attempted"]) != "3" || string(got["failed"]) != "1" {
		t.Errorf("contract line %s", b)
	}
	if string(got["metrics"]) != `{"setup_s":{"value":0.5,"unit":"s"}}` {
		t.Errorf("metrics %s", got["metrics"])
	}
}
