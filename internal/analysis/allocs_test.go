//go:build !race

package analysis

import (
	"math/rand"
	"testing"
)

// TestSealSteadyStateAllocs asserts that sealing through a warm scratch
// allocates nothing: the prune and the radix sort work in the sampler's
// buffers and the scratch. Built out under -race (the detector skews
// allocation counts); `make alloc-check` runs it.
func TestSealSteadyStateAllocs(t *testing.T) {
	const n = 5000
	r := rand.New(rand.NewSource(3))
	pri := make([]uint64, 3*n)
	val := make([]float64, 3*n)
	for i := range pri {
		pri[i], val[i] = r.Uint64(), float64(float32(r.ExpFloat64()*80))
	}
	s := newSampler(n, 1)
	var sc sealScratch
	reseal := func() {
		s.pri = append(s.pri[:0], pri...)
		s.val = append(s.val[:0], val...)
		s.sealed, s.sortedPrefix = false, 0
		s.seal(&sc) // prunes 3n to n, then sorts
	}
	reseal() // warm the buffers and the scratch
	if allocs := testing.AllocsPerRun(10, reseal); allocs != 0 {
		t.Fatalf("seal with a warm scratch allocated %.1f times, want 0", allocs)
	}
}

// TestSamplerOfferSteadyStateAllocs asserts that a reset shard sampler
// offered 5×capacity entries allocates nothing: its buffers stop at the
// 2×capacity prune bound, and reset keeps them for the next partition.
func TestSamplerOfferSteadyStateAllocs(t *testing.T) {
	const n = 5000
	r := rand.New(rand.NewSource(4))
	keys := make([]uint64, 5*n)
	val := make([]float64, 5*n)
	for i := range keys {
		keys[i], val[i] = r.Uint64(), float64(float32(r.ExpFloat64()*80))
	}
	s := newSampler(n, 1)
	offer := func() {
		s.reset()
		for i := range keys {
			s.Add(val[i], keys[i])
		}
	}
	offer() // grow the buffers to the prune bound
	if allocs := testing.AllocsPerRun(10, offer); allocs != 0 {
		t.Fatalf("offering %d entries to a reset sampler allocated %.1f times, want 0", len(keys), allocs)
	}
}
