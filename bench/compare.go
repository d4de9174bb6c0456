package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
)

// benchSpec is the part of BENCHMARK.json the verdicts need: which
// metrics are gated, which way is better, and by how much they may move.
type benchSpec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

func loadSpec(root string) (*benchSpec, error) {
	data, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	spec := new(benchSpec)
	if err := json.Unmarshal(data, spec); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return spec, nil
}

// workloadResult is one workload of one run of the set, as stored.
type workloadResult struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	Info      map[string]metric `json:"info"`
}

// setResult is one run of the whole end-to-end set.
type setResult struct {
	Seed      uint64                    `json:"seed"`
	Seconds   float64                   `json:"seconds"`
	Quick     bool                      `json:"quick"`
	Workloads map[string]workloadResult `json:"workloads"`
}

// resultsFile is what -repeat writes and -compare reads.
type resultsFile struct {
	Runs []setResult `json:"runs"`
}

// samples collects one metric of one workload over a file's runs.
func (f *resultsFile) samples(workload, name string) []float64 {
	var xs []float64
	for _, r := range f.Runs {
		if m, ok := r.Workloads[workload].Metrics[name]; ok {
			xs = append(xs, m.Value)
		}
	}
	return xs
}

// spread is the distance between the quartiles as a share of the median.
func spread(xs []float64) float64 {
	q1, q2, q3 := quartiles(xs)
	if q2 == 0 {
		return 0
	}
	return (q3 - q1) / q2
}

// worseBy is how much b's median is worse than a's, as a share of a's;
// negative when b is better.
func worseBy(better string, a, b float64) float64 {
	if a == 0 {
		return 0
	}
	if better == "higher" {
		return (a - b) / a
	}
	return (b - a) / a
}

// repeatSet runs the end-to-end set k times with the same seed, stores
// the runs, and prints per workload and metric the median, quartiles,
// spread and verdict: ok, or unresolved when the run-to-run spread is
// wider than the metric's bound.
func repeatSet(e *env, spec *benchSpec, k int, path string) int {
	var file resultsFile
	status := 0
	for i := 0; i < k; i++ {
		e.logf("\n#### set %d of %d", i+1, k)
		run := setResult{Seed: e.seed, Seconds: e.seconds, Quick: e.quick, Workloads: map[string]workloadResult{}}
		for _, w := range workloads {
			o, err := runOne(e, w, false)
			if err != nil {
				fmt.Fprintln(os.Stderr, "telcobench:", err)
				return 1
			}
			if !o.correct() {
				status = 1
			}
			run.Workloads[w.name] = workloadResult{o.correct(), o.attempted, o.failed, o.metrics, o.info}
		}
		file.Runs = append(file.Runs, run)
	}
	data, err := json.MarshalIndent(file, "", " ")
	if err == nil {
		if err = os.MkdirAll(filepath.Dir(path), 0o755); err == nil {
			err = os.WriteFile(path, data, 0o644)
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "telcobench:", err)
		return 1
	}
	e.logf("\nwrote %s", path)

	fmt.Printf("%-13s %-24s %12s %12s %12s %8s %6s  %s\n", "workload", "metric", "q1", "median", "q3", "spread", "bound", "verdict")
	for _, w := range workloads {
		for _, m := range spec.EndToEnd {
			xs := file.samples(w.name, m.Name)
			q1, q2, q3 := quartiles(xs)
			verdict := "ok"
			if spread(xs) > m.Bound {
				verdict = "unresolved"
			}
			fmt.Printf("%-13s %-24s %12.4f %12.4f %12.4f %7.1f%% %5.0f%%  %s\n",
				w.name, m.Name, q1, q2, q3, 100*spread(xs), 100*m.Bound, verdict)
		}
	}
	return status
}

func readResults(path string) (*resultsFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	f := new(resultsFile)
	if err := json.Unmarshal(data, f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(f.Runs) == 0 {
		return nil, fmt.Errorf("%s holds no runs", path)
	}
	return f, nil
}

// compareFiles judges result file b against a, one row per workload and
// gated metric: regressed when b's median is worse than a's by more than
// the bound, unresolved when either side's spread is wider than the
// bound, ok otherwise. Exit status 1 when anything regressed.
func compareFiles(spec *benchSpec, pathA, pathB string) int {
	a, err := readResults(pathA)
	if err == nil {
		var b *resultsFile
		if b, err = readResults(pathB); err == nil {
			return compareResults(spec, a, b)
		}
	}
	fmt.Fprintln(os.Stderr, "telcobench:", err)
	return 2
}

func compareResults(spec *benchSpec, a, b *resultsFile) int {
	status := 0
	fmt.Printf("%-13s %-24s %12s %12s %9s %8s %8s %6s  %s\n",
		"workload", "metric", "a median", "b median", "b worse", "a spread", "b spread", "bound", "verdict")
	for _, w := range workloads {
		for _, m := range spec.EndToEnd {
			xa, xb := a.samples(w.name, m.Name), b.samples(w.name, m.Name)
			if len(xa) == 0 || len(xb) == 0 {
				continue
			}
			ma, mb := median(xa), median(xb)
			worse := worseBy(m.Better, ma, mb)
			verdict := "ok"
			switch {
			case spread(xa) > m.Bound || spread(xb) > m.Bound:
				verdict = "unresolved"
			case worse > m.Bound:
				verdict = "regressed"
				status = 1
			}
			fmt.Printf("%-13s %-24s %12.4f %12.4f %+8.1f%% %7.1f%% %7.1f%% %5.0f%%  %s\n",
				w.name, m.Name, ma, mb, 100*worse, 100*spread(xa), 100*spread(xb), 100*m.Bound, verdict)
		}
	}
	return status
}
