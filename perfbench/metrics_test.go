package main

import (
	"encoding/json"
	"os"
	"testing"
)

// TestBenchmarkJSONMatchesMetricTables keeps BENCHMARK.json and the
// metric tables the runs print from in step: same names, order, units.
func TestBenchmarkJSONMatchesMetricTables(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []metricDef `json:"end_to_end"`
		PerLayer  []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, the tables %d", kind, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Errorf("%s[%d]: BENCHMARK.json %+v, table %+v", kind, i, got[i], want[i])
			}
		}
	}
	check("end_to_end", b.EndToEnd, endToEnd)
	check("per_layer", b.PerLayer, perLayer)
	if len(b.Workloads) != len(order) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(b.Workloads), len(order))
	}
	for i, w := range b.Workloads {
		if _, ok := workloads[w.Name]; !ok || w.Name != order[i] {
			t.Errorf("BENCHMARK.json workload %d is %q, the program's is %q", i, w.Name, order[i])
		}
	}
}
