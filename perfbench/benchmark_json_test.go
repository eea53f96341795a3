package main

import (
	"encoding/json"
	"os"
	"reflect"
	"testing"
)

// TestBenchmarkJSONListsTheReportedMetrics keeps BENCHMARK.json and the
// metrics the program prints in step: same names, units and directions,
// in the same order.
func TestBenchmarkJSONListsTheReportedMetrics(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct {
			spec
			Bound float64 `json:"bound"`
		} `json:"end_to_end"`
		PerLayer []spec `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	var e2e []spec
	for _, m := range b.EndToEnd {
		e2e = append(e2e, m.spec)
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	if !reflect.DeepEqual(e2e, endToEnd) {
		t.Errorf("end_to_end in BENCHMARK.json = %v, program prints %v", e2e, endToEnd)
	}
	if !reflect.DeepEqual(b.PerLayer, perLayer()) {
		t.Errorf("per_layer in BENCHMARK.json differs from what the program prints")
	}
	for _, w := range b.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json names workload %q the program does not run", w.Name)
		}
	}
}
