package main

import (
	"encoding/json"
	"os"
	"testing"
)

// benchmarkFile is the whole of BENCHMARK.json, for checking the code
// against it.
type benchmarkFile struct {
	Command   []string `json:"command"`
	Paths     []string `json:"paths"`
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) *benchmarkFile {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	f := new(benchmarkFile)
	if err := json.Unmarshal(data, f); err != nil {
		t.Fatal(err)
	}
	return f
}

func TestBenchmarkFileMatchesCode(t *testing.T) {
	f := readBenchmarkFile(t)
	if len(f.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the code has %d", len(f.Workloads), len(workloads))
	}
	for i, w := range f.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json says %q, the code %q", i, w.Name, workloads[i].name)
		}
		if _, ok := tails[w.Name]; !ok {
			t.Errorf("workload %q has no frozen tail percentile", w.Name)
		}
		if w.Why == "" || len(w.Why) > 200 {
			t.Errorf("workload %q: why must be one line of at most 200 characters (has %d)", w.Name, len(w.Why))
		}
	}
	if len(f.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json lists %d per-layer metrics, the code reports %d", len(f.PerLayer), len(perLayer))
	}
	for i, m := range f.PerLayer {
		if m.Name != perLayer[i].name || m.Unit != perLayer[i].unit {
			t.Errorf("per-layer metric %d: BENCHMARK.json says %s [%s], the code %s [%s]",
				i, m.Name, m.Unit, perLayer[i].name, perLayer[i].unit)
		}
	}
}
