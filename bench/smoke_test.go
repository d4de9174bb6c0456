package main

import (
	"context"
	"io"
	"testing"
)

// TestQuickSmoke runs every workload, end to end and traced, at -quick
// size against binaries built from this checkout: the harness compiles,
// runs, passes its own correctness gates, and reports exactly the metrics
// BENCHMARK.json names. It takes about half a minute. The seed is one
// whose -quick campaign every experiment accepts (at a tenth of C some
// seeds leave fig11 or table5 too little data and telcoreport refuses).
func TestQuickSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and drives the real binaries; skipped with -short")
	}
	root, err := findRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	e, err := newEnv(context.Background(), root, 3, 2, true)
	if err != nil {
		t.Fatal(err)
	}
	defer e.close()
	e.log = io.Discard
	if _, err := buildTools(e.ctx, root, e.binDir); err != nil {
		t.Fatal(err)
	}
	f := readBenchmarkFile(t)
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			o, err := runOne(e, w, traced)
			if err != nil {
				t.Fatalf("%s (traced %v): %v", w.name, traced, err)
			}
			if !o.correct() {
				t.Errorf("%s (traced %v): failed %d of %d; problems: %v", w.name, traced, o.failed, o.attempted, o.problems)
			}
			want := f.EndToEnd
			if traced {
				want = f.PerLayer
			}
			if len(o.metrics) != len(want) {
				t.Errorf("%s (traced %v): %d metrics reported, BENCHMARK.json names %d", w.name, traced, len(o.metrics), len(want))
			}
			for _, m := range want {
				got, ok := o.metrics[m.Name]
				switch {
				case !ok:
					t.Errorf("%s (traced %v): metric %s missing", w.name, traced, m.Name)
				case got.Unit != m.Unit:
					t.Errorf("%s (traced %v): metric %s in %s, BENCHMARK.json says %s", w.name, traced, m.Name, got.Unit, m.Unit)
				case !traced && got.Value <= 0:
					t.Errorf("%s: end-to-end metric %s = %g, must be positive", w.name, m.Name, got.Value)
				}
			}
		}
	}
}
