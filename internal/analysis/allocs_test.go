//go:build !race

package analysis

import (
	"math/rand"
	"testing"
)

// TestDurationsSteadyStateAllocs asserts that a warm durations shard
// state observing a batch (observe), and its MergeShard into a collector
// whose histograms already hold the batch's codes (merge), allocate
// nothing: the state appends to the code buffers the last partition
// grew, and the merge adds to count pages already there. Built out under
// -race (the detector skews allocation counts); `make alloc-check` runs
// it.
func TestDurationsSteadyStateAllocs(t *testing.T) {
	cb := randomBatch(rand.New(rand.NewSource(4)), 20_000)
	c := new(durationsCollector)
	cycle := func() {
		s := c.NewShardState(0, 0)
		if err := s.ObserveColumns(0, cb); err != nil {
			t.Fatal(err)
		}
		if err := c.MergeShard(s); err != nil {
			t.Fatal(err)
		}
	}
	cycle() // grow the buffers and allocate the pages
	t.Run("observe", func(t *testing.T) {
		s := c.NewShardState(0, 0).(*durationsShard)
		observe := func() {
			for i := range s.durSuccess {
				s.durSuccess[i] = s.durSuccess[i][:0]
			}
			for i := range s.durCause {
				s.durCause[i] = s.durCause[i][:0]
			}
			if err := s.ObserveColumns(0, cb); err != nil {
				t.Fatal(err)
			}
		}
		if allocs := testing.AllocsPerRun(10, observe); allocs != 0 {
			t.Fatalf("a warm durations shard's observe of %d records allocated %.1f times, want 0", cb.Len(), allocs)
		}
		if err := c.MergeShard(s); err != nil {
			t.Fatal(err)
		}
	})
	// With observe allocation-free, an allocation here is the merge's.
	t.Run("merge", func(t *testing.T) {
		if allocs := testing.AllocsPerRun(10, cycle); allocs != 0 {
			t.Fatalf("a warm durations shard's observe and merge of %d records allocated %.1f times, want 0", cb.Len(), allocs)
		}
	})
}
