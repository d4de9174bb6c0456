package stats

import (
	"errors"
	"math"
	"sort"
)

// ErrLengthMismatch is returned when paired samples differ in length.
var ErrLengthMismatch = errors.New("stats: sample length mismatch")

// Pearson returns the Pearson product-moment correlation coefficient of the
// paired samples. It returns an error for mismatched lengths, fewer than
// two pairs, or zero variance in either sample.
func Pearson(xs, ys []float64) (float64, error) {
	if len(xs) != len(ys) {
		return 0, ErrLengthMismatch
	}
	n := len(xs)
	if n < 2 {
		return 0, ErrEmpty
	}
	mx, my := Mean(xs), Mean(ys)
	var sxy, sxx, syy float64
	for i := 0; i < n; i++ {
		dx := xs[i] - mx
		dy := ys[i] - my
		sxy += dx * dy
		sxx += dx * dx
		syy += dy * dy
	}
	if sxx == 0 || syy == 0 {
		return 0, errors.New("stats: zero variance sample")
	}
	return sxy / math.Sqrt(sxx*syy), nil
}

// Ranks returns the 1-based ranks of xs, assigning tied values their
// average rank (the convention the Kruskal–Wallis test requires).
func Ranks(xs []float64) []float64 {
	n := len(xs)
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return xs[idx[a]] < xs[idx[b]] })
	ranks := make([]float64, n)
	for i := 0; i < n; {
		j := i
		for j+1 < n && xs[idx[j+1]] == xs[idx[i]] {
			j++
		}
		avg := (float64(i+1) + float64(j+1)) / 2
		for k := i; k <= j; k++ {
			ranks[idx[k]] = avg
		}
		i = j + 1
	}
	return ranks
}
