package main

import (
	"encoding/json"
	"os"
	"testing"
)

// TestBenchmarkJSONMatchesCode checks that BENCHMARK.json lists exactly
// the metrics this program prints, with the same units.
func TestBenchmarkJSONMatchesCode(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skipf("no BENCHMARK.json beside the benchmark: %v", err)
	}
	type entry struct{ Name, Unit string }
	var b struct {
		EndToEnd []entry `json:"end_to_end"`
		PerLayer []entry `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		kind   string
		listed []entry
		code   []metricSpec
	}{{"end_to_end", b.EndToEnd, e2eMetrics}, {"per_layer", b.PerLayer, layerMetrics()}} {
		units := map[string]string{}
		for _, e := range c.listed {
			units[e.Name] = e.Unit
		}
		if len(c.listed) != len(c.code) || len(units) != len(c.code) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the code prints %d", c.kind, len(c.listed), len(c.code))
		}
		for _, m := range c.code {
			if units[m.name] != m.unit {
				t.Errorf("%s %s: BENCHMARK.json unit %q, code unit %q", c.kind, m.name, units[m.name], m.unit)
			}
		}
	}
}
