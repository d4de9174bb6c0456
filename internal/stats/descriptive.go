// Package stats implements the statistical toolbox the paper relies on:
// descriptive statistics, empirical CDFs, correlation, ordinary least
// squares with t/F inference, one-way ANOVA and the Kruskal–Wallis test.
// Everything is stdlib-only and deterministic.
//
// Quantiles use linear interpolation between order statistics (the same
// convention as R's default type-7 quantile), which keeps medians and p95s
// comparable with the values the paper reports. LowerQuantileSorted is the
// exception: it selects an order statistic, the pinball-loss minimiser.
package stats

import (
	"errors"
	"math"
	"sort"
)

// ErrEmpty is returned by computations that need at least one observation.
var ErrEmpty = errors.New("stats: empty sample")

// Mean returns the arithmetic mean; 0 for an empty sample.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Variance returns the unbiased (n-1) sample variance; 0 for n < 2.
func Variance(xs []float64) float64 {
	n := len(xs)
	if n < 2 {
		return 0
	}
	m := Mean(xs)
	var ss float64
	for _, x := range xs {
		d := x - m
		ss += d * d
	}
	return ss / float64(n-1)
}

// StdDev returns the sample standard deviation.
func StdDev(xs []float64) float64 { return math.Sqrt(Variance(xs)) }

// Quantile returns the q-th quantile (0 ≤ q ≤ 1) of xs using type-7 linear
// interpolation. xs does not need to be sorted. Returns 0 for an empty
// sample.
func Quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return QuantileSorted(s, q)
}

// QuantileSorted is Quantile for an already-sorted sample, avoiding the
// copy+sort. The slice must be in ascending order.
func QuantileSorted(sorted []float64, q float64) float64 {
	return QuantileRanked(len(sorted), func(i int) float64 { return sorted[i] }, q)
}

// QuantileRanked is QuantileSorted over a sample of n values read by
// rank: at(i) returns the i-th smallest, i counted from 0. It reads the
// same two order statistics and interpolates them with the same float
// operations, so a sample held as counts per value gives the quantile a
// sorted slice of those values gives, bit for bit.
func QuantileRanked(n int, at func(int) float64, q float64) float64 {
	if n == 0 {
		return 0
	}
	if q <= 0 {
		return at(0)
	}
	if q >= 1 {
		return at(n - 1)
	}
	h := q * float64(n-1)
	lo := int(math.Floor(h))
	hi := lo + 1
	if hi >= n {
		return at(n - 1)
	}
	frac := h - float64(lo)
	return at(lo)*(1-frac) + at(hi)*frac
}

// LowerQuantileSorted returns the q-th quantile (0 < q < 1) of an
// ascending sample as its lower order statistic, the ⌈n·q⌉-th smallest
// value (R's type 1), with no interpolation. That value minimises the
// pinball loss Σ ρ_q(x − c) over c, so a quantile regression on a
// saturated set of group dummies is solved group by group: the intercept
// is the baseline group's LowerQuantileSorted and each coefficient is its
// group's minus the baseline's. When n·q is an integer k, every c in
// [x₍ₖ₎, x₍ₖ₊₁₎] minimises the loss; this returns the lower end. Returns 0
// for an empty sample.
func LowerQuantileSorted(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	// The slack keeps a product that rounds above its integer, such as
	// 100·0.07 = 7.000000000000001, on the tie's lower end.
	k := int(math.Ceil(float64(n)*q - 1e-9))
	return sorted[min(max(k, 1), n)-1]
}

// Median returns the 50th percentile.
func Median(xs []float64) float64 { return Quantile(xs, 0.5) }

// Quantiles returns the requested quantiles of xs with a single
// copy+sort; each entry equals Quantile(xs, q) exactly. Use it when an
// experiment needs several quantiles of one large sample — repeated
// Quantile calls re-sort the sample every time.
func Quantiles(xs []float64, qs ...float64) []float64 {
	out := make([]float64, len(qs))
	if len(xs) == 0 {
		return out
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	for i, q := range qs {
		out[i] = QuantileSorted(s, q)
	}
	return out
}

// QuantilesSorted is Quantiles for an already-sorted sample: no copy, no
// sort. Each entry equals Quantile(xs, q) for any xs whose ascending
// order is sorted.
func QuantilesSorted(sorted []float64, qs ...float64) []float64 {
	out := make([]float64, len(qs))
	for i, q := range qs {
		out[i] = QuantileSorted(sorted, q)
	}
	return out
}

// Summary is the descriptive summary the paper prints for its regression
// dataset (Table 6): min, quartiles, mean, max.
type Summary struct {
	N      int
	Min    float64
	Q1     float64
	Median float64
	Mean   float64
	Q3     float64
	Max    float64
}

// Summarize computes a Summary of xs.
func Summarize(xs []float64) Summary {
	if len(xs) == 0 {
		return Summary{}
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return Summary{
		N:      len(s),
		Min:    s[0],
		Q1:     QuantileSorted(s, 0.25),
		Median: QuantileSorted(s, 0.5),
		Mean:   Mean(s),
		Q3:     QuantileSorted(s, 0.75),
		Max:    s[len(s)-1],
	}
}

// Boxplot holds the five-number summary plus whisker bounds used by the
// paper's boxplot figures (Figs 11, 18).
type Boxplot struct {
	Min, Q1, Median, Q3, Max float64
	LoWhisker, HiWhisker     float64 // Tukey 1.5*IQR fences clipped to data
	Mean                     float64
	N                        int
}

// BoxplotOf computes boxplot statistics for xs.
func BoxplotOf(xs []float64) Boxplot {
	if len(xs) == 0 {
		return Boxplot{}
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	b := Boxplot{
		Min:    s[0],
		Q1:     QuantileSorted(s, 0.25),
		Median: QuantileSorted(s, 0.5),
		Q3:     QuantileSorted(s, 0.75),
		Max:    s[len(s)-1],
		Mean:   Mean(s),
		N:      len(s),
	}
	iqr := b.Q3 - b.Q1
	loFence := b.Q1 - 1.5*iqr
	hiFence := b.Q3 + 1.5*iqr
	b.LoWhisker, b.HiWhisker = b.Min, b.Max
	for _, v := range s {
		if v >= loFence {
			b.LoWhisker = v
			break
		}
	}
	for i := len(s) - 1; i >= 0; i-- {
		if s[i] <= hiFence {
			b.HiWhisker = s[i]
			break
		}
	}
	return b
}

// ECDF is an empirical cumulative distribution function over a sample,
// read by rank: at(i) is the i-th smallest of its n values.
type ECDF struct {
	n  int
	at func(int) float64
}

// NewECDF builds an ECDF from xs (copied and sorted). It returns ErrEmpty
// for an empty sample.
func NewECDF(xs []float64) (*ECDF, error) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return NewECDFSorted(s)
}

// NewECDFSorted wraps an already-ascending sample without copying it. The
// ECDF aliases xs, so the caller must not mutate it afterwards.
func NewECDFSorted(xs []float64) (*ECDF, error) {
	return NewECDFRanked(len(xs), func(i int) float64 { return xs[i] })
}

// NewECDFRanked wraps a sample of n values read by rank, as
// QuantileRanked reads one: at(i) returns the i-th smallest. It returns
// ErrEmpty for an empty sample.
func NewECDFRanked(n int, at func(int) float64) (*ECDF, error) {
	if n == 0 {
		return nil, ErrEmpty
	}
	return &ECDF{n: n, at: at}, nil
}

// Points returns up to max evenly spaced (x, F(x)) pairs for plotting or
// reporting, the last one always the maximum at F = 1. If max <= 0 or
// exceeds the sample size, all points are used.
func (e *ECDF) Points(max int) (xs, fs []float64) {
	n := e.n
	if max <= 0 || max > n {
		max = n
	}
	xs = make([]float64, max)
	fs = make([]float64, max)
	for i := 0; i < max; i++ {
		j := n - 1
		if max > 1 {
			j = i * (n - 1) / (max - 1)
		}
		xs[i] = e.at(j)
		fs[i] = float64(j+1) / float64(n)
	}
	return xs, fs
}
