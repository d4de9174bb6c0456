package randx

import (
	"fmt"
	"math"
	"sort"
	"testing"
	"testing/quick"
)

func TestWeightedChoiceErrors(t *testing.T) {
	if _, err := NewWeightedChoice(nil); err == nil {
		t.Fatal("empty weights accepted")
	}
	if _, err := NewWeightedChoice([]float64{0, 0}); err == nil {
		t.Fatal("all-zero weights accepted")
	}
	if _, err := NewWeightedChoice([]float64{1, -1}); err == nil {
		t.Fatal("negative weight accepted")
	}
}

func TestWeightedChoiceFrequencies(t *testing.T) {
	weights := []float64{54.8, 30.2, 3.0, 2.0, 1.9, 8.1} // smartphone makers
	wc := MustWeightedChoice(weights)
	r := New(101)
	const n = 500000
	counts := make([]int, len(weights))
	for i := 0; i < n; i++ {
		counts[wc.Sample(r)]++
	}
	var total float64
	for _, w := range weights {
		total += w
	}
	for i, w := range weights {
		want := w / total
		got := float64(counts[i]) / n
		if math.Abs(got-want) > 0.005 {
			t.Errorf("category %d: freq %.4f, want %.4f", i, got, want)
		}
	}
}

func TestWeightedChoiceZeroWeightNeverSampled(t *testing.T) {
	wc := MustWeightedChoice([]float64{1, 0, 3})
	r := New(55)
	for i := 0; i < 100000; i++ {
		if wc.Sample(r) == 1 {
			t.Fatal("zero-weight category sampled")
		}
	}
}

func TestWeightedChoiceSingleCategory(t *testing.T) {
	wc := MustWeightedChoice([]float64{42})
	r := New(1)
	for i := 0; i < 100; i++ {
		if wc.Sample(r) != 0 {
			t.Fatal("single-category sampler returned nonzero index")
		}
	}
}

// CumulativeChoice is a simpler weighted sampler using binary search over a
// cumulative weight vector: O(log n) sampling but trivially verifiable,
// the oracle for the alias-method tests.
type CumulativeChoice struct {
	cum []float64
}

// NewCumulativeChoice builds a cumulative table for the given weights.
func NewCumulativeChoice(weights []float64) (*CumulativeChoice, error) {
	if len(weights) == 0 {
		return nil, fmt.Errorf("randx: empty weight vector")
	}
	cum := make([]float64, len(weights))
	var total float64
	for i, w := range weights {
		if w < 0 {
			return nil, fmt.Errorf("randx: negative weight %g at index %d", w, i)
		}
		total += w
		cum[i] = total
	}
	if total <= 0 {
		return nil, fmt.Errorf("randx: all weights are zero")
	}
	return &CumulativeChoice{cum: cum}, nil
}

// Sample draws a category index.
func (c *CumulativeChoice) Sample(r *Rand) int {
	total := c.cum[len(c.cum)-1]
	u := r.Float64() * total
	return sort.SearchFloat64s(c.cum, u)
}

// Property: alias method agrees with the cumulative-search oracle in
// distribution for random weight vectors.
func TestWeightedChoiceMatchesOracle(t *testing.T) {
	f := func(raw []uint8) bool {
		if len(raw) == 0 || len(raw) > 12 {
			return true // skip; quick will try others
		}
		weights := make([]float64, len(raw))
		var total float64
		for i, b := range raw {
			weights[i] = float64(b)
			total += weights[i]
		}
		if total == 0 {
			return true
		}
		wc, err := NewWeightedChoice(weights)
		if err != nil {
			return false
		}
		cc, err := NewCumulativeChoice(weights)
		if err != nil {
			return false
		}
		const n = 20000
		ra, rb := New(7), New(7)
		ca := make([]float64, len(weights))
		cb := make([]float64, len(weights))
		for i := 0; i < n; i++ {
			ca[wc.Sample(ra)]++
			cb[cc.Sample(rb)]++
		}
		for i := range ca {
			if math.Abs(ca[i]-cb[i])/n > 0.03 {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 25}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestCumulativeChoiceBounds(t *testing.T) {
	cc, err := NewCumulativeChoice([]float64{1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	r := New(2)
	for i := 0; i < 10000; i++ {
		got := cc.Sample(r)
		if got < 0 || got > 2 {
			t.Fatalf("index %d out of range", got)
		}
	}
}

func TestShuffleIsPermutation(t *testing.T) {
	r := New(9)
	p := Shuffle(r, 100)
	seen := make([]bool, 100)
	for _, v := range p {
		if v < 0 || v >= 100 || seen[v] {
			t.Fatalf("not a permutation: %v", p[:10])
		}
		seen[v] = true
	}
}

func BenchmarkWeightedChoiceSample(b *testing.B) {
	weights := make([]float64, 1024)
	for i := range weights {
		weights[i] = float64(i%17 + 1)
	}
	wc := MustWeightedChoice(weights)
	r := New(3)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = wc.Sample(r)
	}
}
