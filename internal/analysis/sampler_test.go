package analysis

import (
	"math/rand"
	"sort"
	"testing"
)

// The determinism guarantee of the scan engine leans on the sampler
// keeping exactly the bottom-k entries by hashed priority regardless of
// insertion order or how the stream is split across shard states. The
// campaign-scale determinism tests stay below the 200k/50k capacities,
// so eviction is exercised here, directly, well past capacity.

// Samples returns the sampled values in storage order (not a copy).
func (s *sampler) Samples() []float64 { return s.val }

type pv struct {
	p uint64
	v float64
}

// bruteBottomK is the reference: sort all offered entries by hashed
// priority and keep the first k.
func bruteBottomK(s *sampler, entries []pv, k int) []float64 {
	hashed := make([]pv, len(entries))
	for i, e := range entries {
		hashed[i] = pv{p: mix64(e.p ^ s.salt), v: e.v}
	}
	sort.Slice(hashed, func(a, b int) bool {
		return pvLess(hashed[a].p, hashed[a].v, hashed[b].p, hashed[b].v)
	})
	if len(hashed) > k {
		hashed = hashed[:k]
	}
	out := make([]float64, len(hashed))
	for i, e := range hashed {
		out[i] = e.v
	}
	return out
}

func makeEntries(n int, seed int64) []pv {
	r := rand.New(rand.NewSource(seed))
	entries := make([]pv, n)
	for i := range entries {
		// Unique keys (like recKey over distinct records) with values
		// that identify the entry.
		entries[i] = pv{p: uint64(i)*2654435761 + 7, v: float64(r.Intn(100000))}
	}
	return entries
}

func TestSamplerKeepsTrueBottomK(t *testing.T) {
	const cap = 64
	entries := makeEntries(10*cap, 1)
	s := newSampler(cap, 42)
	for _, e := range entries {
		s.Add(e.v, e.p)
	}
	if s.N() != int64(len(entries)) {
		t.Fatalf("N = %d, want %d", s.N(), len(entries))
	}
	s.seal(&sealScratch{})
	got := s.Samples()
	want := bruteBottomK(newSampler(cap, 42), entries, cap)
	if len(got) != cap {
		t.Fatalf("kept %d samples, want %d", len(got), cap)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("sample %d = %g, want %g (kept set is not the true bottom-k)", i, got[i], want[i])
		}
	}
}

func TestSamplerOrderInvariantPastCapacity(t *testing.T) {
	const cap = 32
	entries := makeEntries(8*cap, 2)
	base := newSampler(cap, 7)
	for _, e := range entries {
		base.Add(e.v, e.p)
	}
	base.seal(&sealScratch{})
	want := base.Samples()

	r := rand.New(rand.NewSource(3))
	for trial := 0; trial < 25; trial++ {
		shuffled := append([]pv(nil), entries...)
		r.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
		s := newSampler(cap, 7)
		for _, e := range shuffled {
			s.Add(e.v, e.p)
		}
		s.seal(&sealScratch{})
		got := s.Samples()
		if len(got) != len(want) {
			t.Fatalf("trial %d: kept %d, want %d", trial, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("trial %d: sample %d = %g, want %g (insertion order leaked into the kept set)",
					trial, i, got[i], want[i])
			}
		}
	}
}

func TestSamplerAbsorbMatchesSingleStream(t *testing.T) {
	const cap = 48
	entries := makeEntries(12*cap, 4)
	whole := newSampler(cap, 9)
	for _, e := range entries {
		whole.Add(e.v, e.p)
	}
	whole.seal(&sealScratch{})
	want := whole.Samples()

	// Split into uneven "shards", each past capacity on its own, then
	// absorb in arbitrary order.
	for _, cuts := range [][]int{{100, 200}, {5, 500}, {cap, 2 * cap, 3 * cap}} {
		var parts []*sampler
		prev := 0
		for _, cut := range append(cuts, len(entries)) {
			p := newSampler(cap, 9)
			for _, e := range entries[prev:cut] {
				p.Add(e.v, e.p)
			}
			prev = cut
			parts = append(parts, p)
		}
		merged := newSampler(cap, 9)
		for i := len(parts) - 1; i >= 0; i-- { // reverse order on purpose
			merged.absorb(parts[i])
		}
		if merged.N() != int64(len(entries)) {
			t.Fatalf("merged N = %d, want %d", merged.N(), len(entries))
		}
		merged.seal(&sealScratch{})
		got := merged.Samples()
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("cuts %v: sample %d = %g, want %g (absorb is not partition-invariant)",
					cuts, i, got[i], want[i])
			}
		}
	}
}

func TestSamplerBelowCapacityKeepsEverything(t *testing.T) {
	s := newSampler(100, 1)
	for i := 0; i < 40; i++ {
		s.Add(float64(i), uint64(i))
	}
	s.seal(&sealScratch{})
	if len(s.Samples()) != 40 || s.N() != 40 {
		t.Fatalf("kept %d of 40 (N=%d)", len(s.Samples()), s.N())
	}
}

// A sampler that holds exactly capacity entries from a seal, or from a
// restore, rejects the following delta against the bound that seal or
// restore set, with no prune in between; the kept set must still be the
// true bottom-k of everything offered.
func TestSamplerBoundKeepsTrueBottomK(t *testing.T) {
	const cap = 40
	entries := makeEntries(12*cap, 5)
	want := bruteBottomK(newSampler(cap, 11), entries, cap)
	first := func() *sampler {
		s := newSampler(cap, 11)
		for _, e := range entries[:cap] {
			s.Add(e.v, e.p)
		}
		s.seal(&sealScratch{})
		return s
	}
	for _, c := range []struct {
		name string
		s    *sampler
	}{{"sealed", first()}, {"restored", restored(first())}} {
		name, s := c.name, c.s
		if !s.full {
			t.Fatalf("%s: %d entries at capacity %d set no bound", name, len(s.pri), cap)
		}
		for lo := cap; lo < len(entries); lo += 3 * cap / 2 {
			delta := newSampler(cap, 11)
			for _, e := range entries[lo:min(lo+3*cap/2, len(entries))] {
				delta.Add(e.v, e.p)
			}
			s.absorb(delta)
		}
		if s.N() != int64(len(entries)) {
			t.Fatalf("%s: N = %d, want %d", name, s.N(), len(entries))
		}
		s.seal(&sealScratch{})
		got := s.Samples()
		if len(got) != cap {
			t.Fatalf("%s: kept %d samples, want %d", name, len(got), cap)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s: sample %d = %g, want %g (the bound rejected a bottom-k entry)", name, i, got[i], want[i])
			}
		}
	}
}

// A sealed run takes an incremental delta the way append grows a slice,
// not by doubling: a daemon appends one day to every resumed sampler,
// and doubling there held the whole run twice over.
func TestSealedRunGrowsAsAppend(t *testing.T) {
	const capacity, run = 5000, 1000
	src := newSampler(capacity, 3)
	for _, e := range makeEntries(run, 6) {
		src.Add(e.v, e.p)
	}
	s := restored(src)
	delta := newSampler(capacity, 3)
	for _, e := range makeEntries(run/10, 7) {
		delta.Add(e.v, e.p+1)
	}
	s.absorb(delta)
	if len(s.pri) != run+run/10 || cap(s.pri) >= 2*run || cap(s.val) >= 2*run {
		t.Fatalf("sealed run of %d + delta of %d: len %d, cap %d/%d; want below %d",
			run, run/10, len(s.pri), cap(s.pri), cap(s.val), 2*run)
	}
}

// restored encodes src and restores it into a fresh sampler of the same
// capacity and salt, as a checkpoint resume does.
func restored(src *sampler) *sampler {
	e := &enc{}
	src.encode(e, &sealScratch{})
	s := &sampler{capacity: src.capacity, salt: src.salt}
	d := &dec{b: e.b}
	if s.restore(d); d.err != nil {
		panic(d.err)
	}
	return s
}
