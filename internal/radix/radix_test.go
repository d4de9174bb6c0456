package radix

import (
	"math/rand"
	"slices"
	"testing"
)

// TestPairsSortMatchesStableSort checks Pairs.Sort against a stable
// comparison sort over key sets that exercise the pass skipping: keys
// that differ only in their low byte, only in their high byte, in
// every byte, and not at all.
func TestPairsSortMatchesStableSort(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	gens := map[string]func() uint64{
		"low":      func() uint64 { return 0xABCD_0000_0000_0000 | uint64(r.Intn(4)) },
		"high":     func() uint64 { return uint64(r.Intn(4)) << 56 },
		"every":    func() uint64 { return r.Uint64() },
		"constant": func() uint64 { return 42 },
		"mixed":    func() uint64 { return uint64(r.Intn(3))<<40 | uint64(r.Intn(300)) },
	}
	for name, gen := range gens {
		for _, n := range []int{0, 1, 2, 17, 1000} {
			var p Pairs
			p.Resize(n)
			var h Hist
			for i := range p.Keys {
				p.Keys[i] = gen()
				p.Rows[i] = int32(i)
				h.Add(p.Keys[i])
			}
			type pair struct {
				k uint64
				r int32
			}
			want := make([]pair, n)
			for i := range want {
				want[i] = pair{p.Keys[i], p.Rows[i]}
			}
			slices.SortStableFunc(want, func(a, b pair) int {
				switch {
				case a.k < b.k:
					return -1
				case a.k > b.k:
					return 1
				}
				return 0
			})
			p.Sort(&h)
			for i := range want {
				if p.Keys[i] != want[i].k || p.Rows[i] != want[i].r {
					t.Fatalf("%s n=%d: pair %d is (%d, %d), want (%d, %d)", name, n, i, p.Keys[i], p.Rows[i], want[i].k, want[i].r)
				}
			}
		}
	}
}
