package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// TestDefinitionMatchesProgram checks that BENCHMARK.json declares exactly
// the metrics and workloads this program reports, with the same units.
func TestDefinitionMatchesProgram(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var def struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &def); err != nil {
		t.Fatal(err)
	}

	if len(def.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the program %d", len(def.Workloads), len(workloads))
	}
	for _, w := range def.Workloads {
		if _, err := lookupWorkload(w.Name); err != nil {
			t.Error(err)
		}
	}

	check := func(kind string, declared map[string]string, program []metricDef) {
		if len(declared) != len(program) {
			t.Errorf("%s: BENCHMARK.json declares %d metrics, the program reports %d", kind, len(declared), len(program))
		}
		for _, d := range program {
			if unit, ok := declared[d.name]; !ok {
				t.Errorf("%s: %s is reported but not declared", kind, d.name)
			} else if unit != d.unit {
				t.Errorf("%s: %s is declared in %q, reported in %q", kind, d.name, unit, d.unit)
			}
		}
	}
	e2e := map[string]string{}
	largest := 0.0
	for _, m := range def.EndToEnd {
		e2e[m.Name] = m.Unit
		largest = max(largest, m.Bound)
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("%s: better is %q", m.Name, m.Better)
		}
	}
	check("end_to_end", e2e, e2eMetrics)
	layers := map[string]string{}
	for _, m := range def.PerLayer {
		layers[m.Name] = m.Unit
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("%s: better is %q", m.Name, m.Better)
		}
	}
	check("per_layer", layers, layerMetrics)

	for _, m := range def.EndToEnd {
		if m.Name == "setup_s" && m.Bound != largest {
			t.Errorf("setup_s has bound %v; set-up is the noisiest metric and must have the largest bound, %v", m.Bound, largest)
		}
	}
}
