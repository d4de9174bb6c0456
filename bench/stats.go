package main

import (
	"math"
	"sort"
	"time"
)

// sortedCopy returns xs sorted ascending without touching the input
// (samples stay in arrival order for the windowed tail estimate).
func sortedCopy(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}

// percentile is the nearest-rank p-th percentile (0 < p <= 100) of a
// sorted sample; NaN for an empty one.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	return sorted[min(max(rank, 1), len(sorted))-1]
}

func median(xs []float64) float64 {
	s := sortedCopy(xs)
	n := len(s)
	switch {
	case n == 0:
		return math.NaN()
	case n%2 == 1:
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentileLadder lists the percentiles a timing may be reported at.
var percentileLadder = []float64{50, 75, 90, 95, 99, 99.9}

// supportedPercentile picks the highest ladder percentile that still has
// at least ten of n samples beyond it; the median when none has.
func supportedPercentile(n int) float64 {
	best := percentileLadder[0]
	for _, p := range percentileLadder {
		if float64(n)*(100-p) >= 1000-1e-6 { // ten or more of n beyond p
			best = p
		}
	}
	return best
}

// windowedTail estimates the p-th percentile steadily: the sample, in
// arrival order, is cut into equal windows, the percentile is taken in
// each, and the median of those is returned. One stall then moves one
// window, not the reported tail.
func windowedTail(xs []float64, windows int, p float64) float64 {
	if len(xs) < windows {
		windows = 1
	}
	per := make([]float64, 0, windows)
	for w := 0; w < windows; w++ {
		lo, hi := w*len(xs)/windows, (w+1)*len(xs)/windows
		per = append(per, percentile(sortedCopy(xs[lo:hi]), p))
	}
	return median(per)
}

// quartiles cuts a sample the way Python's statistics.quantiles(xs, n=4)
// does (the exclusive method), so -repeat and -compare judge spreads with
// the same arithmetic as the driver that accepts the benchmark.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := sortedCopy(xs)
	n := len(s)
	if n == 0 {
		return math.NaN(), math.NaN(), math.NaN()
	}
	if n == 1 {
		return s[0], s[0], s[0]
	}
	at := func(i int) float64 {
		j := i * (n + 1) / 4
		j = min(max(j, 1), n-1)
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(2), at(3)
}

func millis(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(time.Millisecond)
	}
	return out
}
