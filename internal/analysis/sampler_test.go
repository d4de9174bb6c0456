package analysis

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
)

// The determinism guarantee of the scan engine leans on the sampler
// keeping exactly the bottom-k entries by hashed priority regardless of
// insertion order or how the stream is split across shard states. The
// campaign-scale determinism tests stay below the 200k/50k capacities,
// so eviction is exercised here, directly, well past capacity.

// Samples returns the kept values in canonical (priority, value) order,
// the order bruteBottomK lists them in. Seal leaves the kept set in no
// particular order, so the sort is made here, on copies.
func (s *sampler) Samples() []float64 {
	p := pvPairs{slices.Clone(s.pri), slices.Clone(s.val)}
	sort.Sort(p)
	return p.val
}

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

// offerEach is absorb entry by entry through offer, the path bulk
// absorb must be indistinguishable from.
func offerEach(s, o *sampler) {
	s.n += o.n
	for i := range o.pri {
		s.offer(o.pri[i], o.val[i])
	}
}

// TestBulkAbsorbMatchesOffer: absorbing a shard in one copy leaves the
// state per-entry offers leave — the same entries in the same slots,
// count, bound and flags — just below the 2×capacity prune point, at
// it, into a full sampler and from an empty shard; sealed, both keep
// the same set.
func TestBulkAbsorbMatchesOffer(t *testing.T) {
	const cap = 40
	entries := makeEntries(6*cap, 8)
	build := func(have int, seal bool) *sampler {
		s := newSampler(cap, 13)
		for _, e := range entries[:have] {
			s.Add(e.v, e.p)
		}
		if seal {
			s.seal(&sealScratch{})
		}
		return s
	}
	for _, c := range []struct {
		name       string
		have, add  int
		sealedBase bool
	}{
		{"union-2cap-1", cap / 2, 2*cap - 1 - cap/2, false},
		{"union-2cap", cap / 2, 2*cap - cap/2, false},
		{"sealed-below-capacity", cap / 2, cap, true},
		{"into-full", 3 * cap / 2, cap, true},
		{"empty-shard", cap / 2, 0, true},
	} {
		shard := newSampler(cap, 13)
		for _, e := range entries[c.have : c.have+c.add] {
			shard.Add(e.v, e.p)
		}
		bulk, each := build(c.have, c.sealedBase), build(c.have, c.sealedBase)
		bulk.absorb(shard)
		offerEach(each, shard)
		if !slices.Equal(bulk.pri, each.pri) || !slices.Equal(bulk.val, each.val) ||
			bulk.n != each.n || bulk.full != each.full || bulk.sealed != each.sealed ||
			bulk.sortedPrefix != each.sortedPrefix {
			t.Fatalf("%s: bulk absorb left len %d n %d full %v sealed %v, offers len %d n %d full %v sealed %v",
				c.name, len(bulk.pri), bulk.n, bulk.full, bulk.sealed, len(each.pri), each.n, each.full, each.sealed)
		}
		bulk.seal(&sealScratch{})
		each.seal(&sealScratch{})
		if !slices.Equal(bulk.Samples(), each.Samples()) || bulk.full != each.full {
			t.Fatalf("%s: sealed kept sets differ", c.name)
		}
		if bulk.full && (bulk.pri[cap-1] != each.pri[cap-1] || bulk.val[cap-1] != each.val[cap-1]) {
			t.Fatalf("%s: bounds differ", c.name)
		}
	}
}

// TestSamplerRestoreRejectsForeignStates: restore accepts only states
// encode writes. A count below the entries held, or a NaN or -0 value —
// which breaks the radix float sort's precondition, so a resumed
// SortedSamples could differ from slices.Sort — is an error.
func TestSamplerRestoreRejectsForeignStates(t *testing.T) {
	const cap = 8
	state := func(n int64, pri []uint64, val []float64) []byte {
		s := newSampler(cap, 5)
		e := &enc{}
		e.u32(cap)
		e.u64(s.salt)
		e.i64(n)
		e.u64s(pri)
		e.f64s(val)
		return e.b
	}
	negZero, nan := math.Copysign(0, -1), math.NaN()
	for _, c := range []struct {
		name string
		b    []byte
		ok   bool
	}{
		{"canonical", state(5, []uint64{1, 2, 3}, []float64{4, 0, 9}), true},
		{"empty", state(0, nil, nil), true},
		{"negative-n", state(-1, nil, nil), false},
		{"negative-n-with-entries", state(-3, []uint64{1}, []float64{2}), false},
		{"n-below-entries", state(2, []uint64{1, 2, 3}, []float64{4, 0, 9}), false},
		{"nan", state(3, []uint64{1, 2, 3}, []float64{4, nan, 9}), false},
		{"negative-zero", state(3, []uint64{1, 2, 3}, []float64{4, negZero, 9}), false},
		{"out-of-order", state(3, []uint64{2, 1, 3}, []float64{4, 5, 9}), false},
	} {
		s := newSampler(cap, 5)
		d := &dec{b: c.b}
		s.restore(d)
		if (d.err == nil) != c.ok {
			t.Errorf("%s: restore err = %v, want ok=%v", c.name, d.err, c.ok)
		}
	}
}
