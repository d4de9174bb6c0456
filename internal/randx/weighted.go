package randx

import "fmt"

// WeightedChoice selects indices in proportion to fixed non-negative weights
// using Vose's alias method: O(n) construction, O(1) sampling. It is the
// workhorse behind manufacturer mixes, cause mixes and sector selection.
type WeightedChoice struct {
	prob  []float64
	alias []int
}

// NewWeightedChoice builds an alias table for the given weights. It returns
// an error if no weight is positive or any weight is negative.
func NewWeightedChoice(weights []float64) (*WeightedChoice, error) {
	n := len(weights)
	if n == 0 {
		return nil, fmt.Errorf("randx: empty weight vector")
	}
	var total float64
	for i, w := range weights {
		if w < 0 {
			return nil, fmt.Errorf("randx: negative weight %g at index %d", w, i)
		}
		total += w
	}
	if total <= 0 {
		return nil, fmt.Errorf("randx: all weights are zero")
	}

	wc := &WeightedChoice{
		prob:  make([]float64, n),
		alias: make([]int, n),
	}
	scaled := make([]float64, n)
	small := make([]int, 0, n)
	large := make([]int, 0, n)
	for i, w := range weights {
		scaled[i] = w * float64(n) / total
		if scaled[i] < 1 {
			small = append(small, i)
		} else {
			large = append(large, i)
		}
	}
	for len(small) > 0 && len(large) > 0 {
		s := small[len(small)-1]
		small = small[:len(small)-1]
		l := large[len(large)-1]
		large = large[:len(large)-1]
		wc.prob[s] = scaled[s]
		wc.alias[s] = l
		scaled[l] = scaled[l] + scaled[s] - 1
		if scaled[l] < 1 {
			small = append(small, l)
		} else {
			large = append(large, l)
		}
	}
	for _, i := range large {
		wc.prob[i] = 1
		wc.alias[i] = i
	}
	for _, i := range small {
		wc.prob[i] = 1 // numerical leftovers
		wc.alias[i] = i
	}
	return wc, nil
}

// MustWeightedChoice is NewWeightedChoice but panics on error. Intended for
// static calibration tables whose validity is checked by tests.
func MustWeightedChoice(weights []float64) *WeightedChoice {
	wc, err := NewWeightedChoice(weights)
	if err != nil {
		panic(err)
	}
	return wc
}

// Len returns the number of categories.
func (wc *WeightedChoice) Len() int { return len(wc.prob) }

// Sample draws a category index.
func (wc *WeightedChoice) Sample(r *Rand) int {
	i := r.Intn(len(wc.prob))
	if r.Float64() < wc.prob[i] {
		return i
	}
	return wc.alias[i]
}

// Shuffle permutes the integers [0, n) deterministically under r and
// returns them. Convenience for sampling without replacement.
func Shuffle(r *Rand, n int) []int {
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	r.Rand.Shuffle(n, func(i, j int) { idx[i], idx[j] = idx[j], idx[i] })
	return idx
}
