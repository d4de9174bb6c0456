//go:build !race

package analysis

import (
	"math/rand"
	"testing"
)

// TestSealSteadyStateAllocs asserts that a cold seal and encode's
// canonical sort allocate nothing through a warm scratch: the prune
// works in the sampler's buffers, the radix sort in them and the
// scratch. Built out under -race (the detector skews allocation
// counts); `make alloc-check` runs it.
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
	// refill makes the sampler one that no seal has run on: a refresh's
	// re-seal of a finalized sampler re-sizes its buffers, one copy.
	refill := func() {
		s.pri = append(s.pri[:0], pri...)
		s.val = append(s.val[:0], val...)
		s.sealed, s.full, s.finalized, s.sortedPrefix = false, false, false, 0
	}
	for _, c := range []struct {
		what string
		run  func()
	}{
		{"a cold seal", func() {
			refill()
			s.seal(&sc) // prunes 3n to n, unsorted
		}},
		{"a cold seal and encode's sort", func() {
			refill()
			s.seal(&sc)
			s.sortCanonical(&sc)
		}},
	} {
		c.run() // warm the buffers and the scratch
		if allocs := testing.AllocsPerRun(10, c.run); allocs != 0 {
			t.Fatalf("%s with a warm scratch allocated %.1f times, want 0", c.what, allocs)
		}
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
