// Package randx provides deterministic, splittable random number generation
// and the distribution samplers used throughout the telcolens simulator.
//
// Reproducibility is a hard requirement: the paper's experiments must be
// regenerable bit-for-bit from a single seed, and generation is parallelized
// per UE, so every simulated entity derives its own independent stream from
// (seed, label, index) without any shared mutable state.
package randx

import (
	"math"
	"math/rand"
)

// splitmix64 advances the classic SplitMix64 state and returns the next
// output. It is used only to derive well-mixed seeds for child streams.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// hashLabel folds a string label into a 64-bit value using FNV-1a, then
// finalizes it with SplitMix64 so that short labels still produce well
// distributed seeds.
func hashLabel(label string) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(label); i++ {
		h ^= uint64(label[i])
		h *= prime64
	}
	return splitmix64(h)
}

// Seed derives a child seed from a root seed, a stream label and an index.
// Distinct (label, index) pairs yield statistically independent streams.
func Seed(root uint64, label string, index uint64) uint64 {
	s := splitmix64(root ^ hashLabel(label))
	return splitmix64(s ^ splitmix64(index+0x632be59bd9b4e019))
}

// Source is a deterministic rand.Source64 backed by SplitMix64 state.
// The zero value is a valid source seeded with 0.
type Source struct {
	state uint64
}

// NewSource returns a Source seeded with the given value.
func NewSource(seed uint64) *Source { return &Source{state: seed} }

// Seed resets the source state.
func (s *Source) Seed(seed int64) { s.state = uint64(seed) }

// Uint64 returns the next 64 random bits.
func (s *Source) Uint64() uint64 {
	s.state += 0x9e3779b97f4a7c15
	z := s.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Int63 returns a non-negative 63-bit random integer.
func (s *Source) Int63() int64 { return int64(s.Uint64() >> 1) }

// Rand is a convenience wrapper bundling a deterministic source with the
// stdlib distribution helpers plus the extra samplers the simulator needs.
type Rand struct {
	*rand.Rand
	src *Source
}

// New returns a deterministic Rand for the given root seed.
func New(seed uint64) *Rand {
	src := NewSource(seed)
	return &Rand{Rand: rand.New(src), src: src}
}

// NewStream returns a deterministic Rand for the stream identified by
// (root, label, index). Use one stream per simulated entity.
func NewStream(root uint64, label string, index uint64) *Rand {
	return New(Seed(root, label, index))
}

// Bool returns true with probability p.
func (r *Rand) Bool(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return r.Float64() < p
}

// LogNormal samples a log-normal variate with the given log-scale mu and
// log-shape sigma. Median is exp(mu); the p-quantile is exp(mu+sigma*z_p).
func (r *Rand) LogNormal(mu, sigma float64) float64 {
	return math.Exp(mu + sigma*r.NormFloat64())
}

// LogNormalMedP95 samples a log-normal variate parameterized by its median
// and 95th percentile, the form in which the paper reports HO durations.
func (r *Rand) LogNormalMedP95(median, p95 float64) float64 {
	return r.LogNormal(LogNormalParams(median, p95))
}

// LogNormalParams converts a (median, p95) pair into (mu, sigma) for a
// log-normal distribution. It panics if median or p95 is non-positive or
// p95 < median, which would indicate a miscalibrated model table.
func LogNormalParams(median, p95 float64) (mu, sigma float64) {
	if median <= 0 || p95 < median {
		panic("randx: invalid log-normal calibration")
	}
	const z95 = 1.6448536269514722 // standard normal 95th percentile
	mu = math.Log(median)
	sigma = math.Log(p95/median) / z95
	return mu, sigma
}

// Pareto samples a Pareto (type I) variate with minimum xm and shape alpha.
// Used for heavy-tailed population densities and traffic volumes.
func (r *Rand) Pareto(xm, alpha float64) float64 {
	u := r.Float64()
	for u == 0 {
		u = r.Float64()
	}
	return xm / math.Pow(u, 1/alpha)
}

// Poisson samples a Poisson variate with the given mean using Knuth's
// algorithm for small means and normal approximation for large means.
func (r *Rand) Poisson(mean float64) int {
	if mean <= 0 {
		return 0
	}
	if mean > 64 {
		// Normal approximation with continuity correction; exact Poisson
		// at this magnitude is statistically indistinguishable for our use.
		v := mean + math.Sqrt(mean)*r.NormFloat64() + 0.5
		if v < 0 {
			return 0
		}
		return int(v)
	}
	l := math.Exp(-mean)
	k := 0
	p := 1.0
	for {
		p *= r.Float64()
		if p <= l {
			return k
		}
		k++
	}
}
