package stats

import (
	"testing"

	"telcolens/internal/randx"
)

func TestPearsonPerfect(t *testing.T) {
	xs := []float64{1, 2, 3, 4}
	ys := []float64{10, 20, 30, 40}
	r, err := Pearson(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(r, 1, 1e-12) {
		t.Fatalf("r = %g", r)
	}
	neg := []float64{40, 30, 20, 10}
	r, _ = Pearson(xs, neg)
	if !almostEq(r, -1, 1e-12) {
		t.Fatalf("r = %g", r)
	}
}

func TestPearsonBounds(t *testing.T) {
	rng := randx.New(4)
	for trial := 0; trial < 50; trial++ {
		n := 10 + rng.Intn(100)
		xs := make([]float64, n)
		ys := make([]float64, n)
		for i := range xs {
			xs[i] = rng.NormFloat64()
			ys[i] = rng.NormFloat64()
		}
		r, err := Pearson(xs, ys)
		if err != nil {
			t.Fatal(err)
		}
		if r < -1 || r > 1 {
			t.Fatalf("r = %g out of bounds", r)
		}
	}
}

func TestPearsonErrors(t *testing.T) {
	if _, err := Pearson([]float64{1}, []float64{1, 2}); err == nil {
		t.Fatal("length mismatch accepted")
	}
	if _, err := Pearson([]float64{1}, []float64{2}); err == nil {
		t.Fatal("n=1 accepted")
	}
	if _, err := Pearson([]float64{1, 1}, []float64{2, 3}); err == nil {
		t.Fatal("zero-variance sample accepted")
	}
}
