package main

import (
	"math"
	"testing"
)

func TestSupportedPercentile(t *testing.T) {
	// The highest ladder percentile with at least ten samples beyond it.
	for _, c := range []struct {
		n    int
		want float64
	}{{5, 50}, {20, 50}, {39, 50}, {40, 75}, {99, 75}, {100, 90}, {199, 90}, {200, 95}, {999, 95}, {1000, 99}, {9999, 99}, {10000, 99.9}} {
		if got := supportedPercentile(c.n); got != c.want {
			t.Errorf("supportedPercentile(%d) = %g, want %g", c.n, got, c.want)
		}
	}
}

func TestPercentileNearestRank(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, c := range []struct{ p, want float64 }{{50, 5}, {75, 8}, {90, 9}, {95, 10}, {100, 10}, {1, 1}} {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("percentile(%g) = %g, want %g", c.p, got, c.want)
		}
	}
	if !math.IsNaN(percentile(nil, 50)) {
		t.Error("percentile of an empty sample should be NaN")
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(xs, n=4) for each sample.
	for _, c := range []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{10, 1, 7, 3}, [3]float64{1.5, 5, 9.25}},
		{[]float64{2, 4}, [3]float64{1.5, 3, 4.5}},
	} {
		q1, q2, q3 := quartiles(c.xs)
		if got := [3]float64{q1, q2, q3}; got != c.want {
			t.Errorf("quartiles(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
}

func TestWindowedTailIgnoresOneStall(t *testing.T) {
	// 5 windows of 20 samples at 1 ms; one window holds a 500 ms stall of
	// several samples. The whole-sample p95 jumps, the windowed one stays.
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = 1
	}
	for i := 40; i < 46; i++ {
		xs[i] = 500
	}
	if got := percentile(sortedCopy(xs), 95); got != 500 {
		t.Fatalf("whole-sample p95 = %g, want the stall (500)", got)
	}
	if got := windowedTail(xs, 5, 95); got != 1 {
		t.Errorf("windowedTail = %g, want 1", got)
	}
}
