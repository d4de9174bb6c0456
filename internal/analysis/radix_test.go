package analysis

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
)

// The oracle is a seal that prunes and then sorts the (priority, value)
// pairs with a comparison sort. Every path into seal must keep exactly
// the oracle's set, with the bound in place, and encode must write it
// in the oracle's order, so checkpoints and artifacts do not move.

// pvPairs sorts parallel (priority, value) slices by pvLess.
type pvPairs struct {
	pri []uint64
	val []float64
}

func (p pvPairs) Len() int           { return len(p.pri) }
func (p pvPairs) Less(i, j int) bool { return pvLess(p.pri[i], p.val[i], p.pri[j], p.val[j]) }
func (p pvPairs) Swap(i, j int) {
	p.pri[i], p.pri[j] = p.pri[j], p.pri[i]
	p.val[i], p.val[j] = p.val[j], p.val[i]
}

// oracleSeal seals by quickselect prune and sort.Sort, or by merging a
// sorted run with its sorted suffix.
func oracleSeal(s *sampler) {
	if s.sealed {
		return
	}
	switch {
	case s.sortedPrefix == len(s.pri) && len(s.pri) <= s.capacity:
	case s.sortedPrefix > 0:
		pre := s.sortedPrefix
		sort.Sort(pvPairs{s.pri[pre:], s.val[pre:]})
		n := min(len(s.pri), s.capacity)
		pri := make([]uint64, 0, n)
		val := make([]float64, 0, n)
		i, j := 0, pre
		for len(pri) < n {
			if j >= len(s.pri) || (i < pre && pvLess(s.pri[i], s.val[i], s.pri[j], s.val[j])) {
				pri, val = append(pri, s.pri[i]), append(val, s.val[i])
				i++
			} else {
				pri, val = append(pri, s.pri[j]), append(val, s.val[j])
				j++
			}
		}
		s.pri, s.val = pri, val
	default:
		s.pruneToCapacity()
		sort.Sort(pvPairs{s.pri, s.val})
	}
	s.sealed = true
	s.sortedPrefix = len(s.pri)
	s.full = len(s.pri) == s.capacity
}

// pvGen draws the i-th (priority, value) pair of an input class. Values
// are finite and non-negative, as durations are, and never -0.
type pvGen struct {
	name string
	next func(r *rand.Rand, i int) (uint64, float64)
}

func duration(r *rand.Rand) float64 {
	switch r.Intn(8) {
	case 0:
		return 0
	case 1:
		return math.SmallestNonzeroFloat64 * float64(r.Intn(4)+1) // subnormal
	default:
		return float64(float32(r.ExpFloat64() * 80)) // float32-exact, like stored durations
	}
}

var pvGens = []pvGen{
	{"random", func(r *rand.Rand, i int) (uint64, float64) { return r.Uint64(), duration(r) }},
	{"all-equal", func(r *rand.Rand, i int) (uint64, float64) { return 0x9e3779b97f4a7c15, duration(r) }},
	{"equal-high-bytes", func(r *rand.Rand, i int) (uint64, float64) {
		return 0xabcdef0123000000 | r.Uint64()&0xffffff, duration(r)
	}},
	{"one-varying-byte", func(r *rand.Rand, i int) (uint64, float64) {
		return 0x1122330044556677 | uint64(r.Intn(256))<<24, duration(r)
	}},
	{"duplicate-pairs", func(r *rand.Rand, i int) (uint64, float64) {
		// Few distinct (p, v) pairs, each repeated many times.
		k := uint64(r.Intn(16))
		return mix64(k), float64(k % 5)
	}},
	{"tie-runs", func(r *rand.Rand, i int) (uint64, float64) {
		// Consecutive runs of one priority, 1, 63, 64 and 65 long in
		// turn (the caller shuffles the pairs afterwards).
		lens := [...]int{1, 63, 64, 65}
		run := 0
		for i >= lens[run%4] {
			i -= lens[run%4]
			run++
		}
		return mix64(uint64(run)), duration(r)
	}},
}

func genPairs(g pvGen, r *rand.Rand, n int) ([]uint64, []float64) {
	pri := make([]uint64, n)
	val := make([]float64, n)
	for i := range pri {
		pri[i], val[i] = g.next(r, i)
	}
	r.Shuffle(n, func(i, j int) {
		pri[i], pri[j] = pri[j], pri[i]
		val[i], val[j] = val[j], val[i]
	})
	return pri, val
}

func samePairs(t *testing.T, what string, gotP, wantP []uint64, gotV, wantV []float64) {
	t.Helper()
	if len(gotP) != len(wantP) || len(gotV) != len(wantV) {
		t.Fatalf("%s: %d/%d entries, want %d/%d", what, len(gotP), len(gotV), len(wantP), len(wantV))
	}
	for i := range wantP {
		if gotP[i] != wantP[i] || math.Float64bits(gotV[i]) != math.Float64bits(wantV[i]) {
			t.Fatalf("%s: entry %d = (%#x, %v), want (%#x, %v)", what, i, gotP[i], gotV[i], wantP[i], wantV[i])
		}
	}
}

func TestRadixSortPVMatchesOracle(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	var sc sealScratch
	for _, g := range pvGens {
		for _, n := range []int{0, 1, 2, 3, 63, 64, 65, 1000, 20000} {
			pri, val := genPairs(g, r, n)
			wantP, wantV := slices.Clone(pri), slices.Clone(val)
			sort.Sort(pvPairs{wantP, wantV})
			radixSortPV(pri, val, &sc)
			samePairs(t, fmt.Sprintf("%s/n=%d", g.name, n), pri, wantP, val, wantV)
		}
	}
}

// sealPath builds a sampler through one route into seal. Routes that
// seal midway do so with the seal under test, so both sides replay the
// same history.
type sealPath struct {
	name  string
	build func(g pvGen, r *rand.Rand, seal func(*sampler)) *sampler
}

const pathCap = 64

func filled(g pvGen, r *rand.Rand, n int) *sampler {
	s := newSampler(pathCap, 1)
	pri, val := genPairs(g, r, n)
	for i := range pri {
		s.offer(pri[i], val[i])
	}
	s.n = int64(n)
	return s
}

// restoredOf returns src, sealed by seal, encoded and restored.
func restoredOf(src *sampler, seal func(*sampler)) *sampler {
	seal(src)
	return restored(src)
}

// mustBeFull panics unless s holds the bound that filters the next
// delta: exactly capacity entries from a seal or a restore.
func mustBeFull(s *sampler) {
	if !s.full || len(s.pri) != s.capacity {
		panic(fmt.Sprintf("no bound at capacity: full=%v len=%d", s.full, len(s.pri)))
	}
}

var sealPaths = []sealPath{
	{"fill-only", func(g pvGen, r *rand.Rand, seal func(*sampler)) *sampler {
		return filled(g, r, pathCap-7)
	}},
	{"one-stream-repeated-prune", func(g pvGen, r *rand.Rand, seal func(*sampler)) *sampler {
		// One shard sampler offered far past 2×capacity, as one
		// partition of a default-scale campaign fills it.
		return filled(g, r, 9*pathCap)
	}},
	{"absorb-prune", func(g pvGen, r *rand.Rand, seal func(*sampler)) *sampler {
		s := newSampler(pathCap, 1)
		for range 6 { // the third shard crosses 2×capacity
			s.absorb(filled(g, r, pathCap-3))
		}
		return s
	}},
	{"sealed-merge", func(g pvGen, r *rand.Rand, seal func(*sampler)) *sampler {
		s := filled(g, r, pathCap/2)
		seal(s)
		s.absorb(filled(g, r, pathCap/3))
		s.absorb(filled(g, r, pathCap/3))
		return s
	}},
	{"sealed-full-filter", func(g pvGen, r *rand.Rand, seal func(*sampler)) *sampler {
		s := newSampler(pathCap, 1)
		s.absorb(filled(g, r, pathCap-1))
		s.absorb(filled(g, r, pathCap-1))
		seal(s)
		s.absorb(filled(g, r, 3*pathCap))
		return s
	}},
	{"seal-at-capacity-then-delta", func(g pvGen, r *rand.Rand, seal func(*sampler)) *sampler {
		s := filled(g, r, pathCap) // never pruned: the seal sets the bound
		seal(s)
		mustBeFull(s)
		s.absorb(filled(g, r, pathCap))
		return s
	}},
	{"encoded-then-delta", func(g pvGen, r *rand.Rand, seal func(*sampler)) *sampler {
		// A checkpoint sorts the sealed sampler in place; the next seal
		// merges the delta into that sorted run.
		s := filled(g, r, 3*pathCap)
		seal(s)
		s.encode(&enc{}, &sealScratch{})
		s.absorb(filled(g, r, pathCap/3))
		return s
	}},
	{"restore-then-delta", func(g pvGen, r *rand.Rand, seal func(*sampler)) *sampler {
		s := restoredOf(filled(g, r, pathCap/2), seal)
		s.absorb(filled(g, r, pathCap))
		return s
	}},
	{"restore-at-capacity-then-delta", func(g pvGen, r *rand.Rand, seal func(*sampler)) *sampler {
		s := restoredOf(filled(g, r, pathCap), seal)
		mustBeFull(s) // the restore sets the bound
		s.absorb(filled(g, r, pathCap))
		return s
	}},
}

// checkBound asserts the invariant offer's one-compare rejection rests
// on: a full sampler's first capacity entries hold their largest at
// capacity-1.
func checkBound(t *testing.T, what string, s *sampler) {
	t.Helper()
	if !s.full {
		return
	}
	k := s.capacity
	for i := range k {
		if pvLess(s.pri[k-1], s.val[k-1], s.pri[i], s.val[i]) {
			t.Fatalf("%s: entry %d = (%#x, %v) above the bound (%#x, %v)",
				what, i, s.pri[i], s.val[i], s.pri[k-1], s.val[k-1])
		}
	}
}

// canonical returns copies of the sampler's entries in (priority,
// value) order, sorted by the comparison-sort oracle.
func canonical(s *sampler) ([]uint64, []float64) {
	p := pvPairs{slices.Clone(s.pri), slices.Clone(s.val)}
	sort.Sort(p)
	return p.pri, p.val
}

func TestSealMatchesOracleOnEveryPath(t *testing.T) {
	var sc sealScratch
	radixSeal := func(s *sampler) { s.seal(&sc) }
	for _, g := range pvGens {
		for _, p := range sealPaths {
			for seed := int64(0); seed < 4; seed++ {
				got := p.build(g, rand.New(rand.NewSource(seed)), radixSeal)
				want := p.build(g, rand.New(rand.NewSource(seed)), oracleSeal)
				what := fmt.Sprintf("%s/%s/seed%d", g.name, p.name, seed)
				checkBound(t, what, got)
				got.seal(&sc)
				oracleSeal(want)
				checkBound(t, what+"/sealed", got)
				gotP, gotV := canonical(got)
				samePairs(t, what, gotP, want.pri, gotV, want.val)
				if got.n != want.n || !got.sealed || got.full != (len(got.pri) == got.capacity) {
					t.Fatalf("%s: n=%d sealed=%v full=%v, want n=%d, sealed, full iff %d entries",
						what, got.n, got.sealed, got.full, want.n, got.capacity)
				}
				for i := 1; i < got.sortedPrefix; i++ {
					if pvLess(got.pri[i], got.val[i], got.pri[i-1], got.val[i-1]) {
						t.Fatalf("%s: the sorted run of %d is out of order at %d", what, got.sortedPrefix, i)
					}
				}
				// What encode writes is the oracle's order.
				var e, w enc
				got.encode(&e, &sc)
				want.encode(&w, &sc)
				if !bytes.Equal(e.b, w.b) {
					t.Fatalf("%s: encode differs from the oracle's", what)
				}
			}
		}
	}
}

// SortedSamples must equal slices.Sort bit for bit on finite values.
// The one exception is an input holding both zeros: < calls -0 and +0
// equal, so slices.Sort leaves their order unspecified, while the radix
// key puts every -0 first.
func TestSortedSamplesMatchesSlicesSort(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	special := []float64{math.Inf(1), math.Inf(-1), math.MaxFloat64, -math.MaxFloat64,
		math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, 0x1p-1030, -0x1p-1030, 1, -1}
	draw := func(zero float64) float64 {
		switch r.Intn(6) {
		case 0:
			return special[r.Intn(len(special))]
		case 1:
			return zero
		case 2:
			return -r.ExpFloat64() * 100
		default:
			return float64(float32(r.ExpFloat64() * 100))
		}
	}
	for _, zero := range []float64{0, math.Copysign(0, -1)} {
		for _, n := range []int{0, 1, 2, 12, 13, 100, 5000} {
			x := make([]float64, n)
			for i := range x {
				x[i] = draw(zero)
			}
			want := slices.Clone(x)
			slices.Sort(want)
			got := (&sampleView{val: x}).SortedSamples()
			if len(got) != len(want) {
				t.Fatalf("n=%d: %d samples, want %d", n, len(got), len(want))
			}
			for i := range want {
				if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
					t.Fatalf("zero=%v n=%d: sample %d = %v, want %v", zero, n, i, got[i], want[i])
				}
			}
		}
	}

	x := []float64{0, math.Copysign(0, -1), 3, 0, math.Copysign(0, -1), -2}
	got := (&sampleView{val: x}).SortedSamples()
	want := []float64{-2, math.Copysign(0, -1), math.Copysign(0, -1), 0, 0, 3}
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("mixed zeros: got %v, want -0s before +0s: %v", got, want)
		}
	}
}
