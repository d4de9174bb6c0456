package stats

import (
	"math"
	"slices"
	"sort"
	"testing"
	"testing/quick"
)

func almostEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestMeanVariance(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if m := Mean(xs); !almostEq(m, 5, 1e-12) {
		t.Fatalf("mean = %g", m)
	}
	if v := Variance(xs); !almostEq(v, 32.0/7.0, 1e-12) {
		t.Fatalf("variance = %g", v)
	}
	if Mean(nil) != 0 || Variance(nil) != 0 || Variance([]float64{1}) != 0 {
		t.Fatal("empty-sample conventions violated")
	}
}

func TestQuantileType7(t *testing.T) {
	// R: quantile(c(1,2,3,4), 0.25) == 1.75 with type 7.
	xs := []float64{4, 1, 3, 2}
	cases := []struct{ q, want float64 }{
		{0, 1}, {0.25, 1.75}, {0.5, 2.5}, {0.75, 3.25}, {1, 4},
	}
	for _, c := range cases {
		if got := Quantile(xs, c.q); !almostEq(got, c.want, 1e-12) {
			t.Errorf("Quantile(%g) = %g, want %g", c.q, got, c.want)
		}
	}
}

func TestQuantileSingleton(t *testing.T) {
	for _, q := range []float64{0, 0.3, 0.5, 1} {
		if got := Quantile([]float64{42}, q); got != 42 {
			t.Fatalf("Quantile(singleton, %g) = %g", q, got)
		}
	}
}

func TestQuantileMonotoneProperty(t *testing.T) {
	f := func(raw []float64, q1, q2 float64) bool {
		if len(raw) == 0 {
			return true
		}
		xs := make([]float64, len(raw))
		for i, v := range raw {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				v = 0
			}
			xs[i] = v
		}
		a := math.Mod(math.Abs(q1), 1)
		b := math.Mod(math.Abs(q2), 1)
		if a > b {
			a, b = b, a
		}
		return Quantile(xs, a) <= Quantile(xs, b)+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestQuantileWithinRangeProperty(t *testing.T) {
	f := func(raw []float64, q float64) bool {
		if len(raw) == 0 {
			return true
		}
		xs := make([]float64, len(raw))
		for i, v := range raw {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				v = 0
			}
			xs[i] = v
		}
		qq := math.Mod(math.Abs(q), 1)
		v := Quantile(xs, qq)
		return v >= slices.Min(xs)-1e-9 && v <= slices.Max(xs)+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSummarize(t *testing.T) {
	s := Summarize([]float64{1, 2, 3, 4, 5})
	if s.N != 5 || s.Min != 1 || s.Max != 5 || s.Median != 3 || s.Mean != 3 {
		t.Fatalf("summary = %+v", s)
	}
	if s.Q1 != 2 || s.Q3 != 4 {
		t.Fatalf("quartiles = %g,%g", s.Q1, s.Q3)
	}
	if z := Summarize(nil); z.N != 0 {
		t.Fatal("empty summary not zero")
	}
}

func TestBoxplot(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 100} // 100 is an outlier
	b := BoxplotOf(xs)
	if b.Max != 100 || b.Min != 1 {
		t.Fatalf("extrema %g,%g", b.Min, b.Max)
	}
	if b.HiWhisker == 100 {
		t.Fatal("whisker included the outlier")
	}
	if b.LoWhisker != 1 {
		t.Fatalf("lo whisker = %g", b.LoWhisker)
	}
	if b.Q1 >= b.Median || b.Median >= b.Q3 {
		t.Fatal("quartile ordering broken")
	}
}

func TestECDF(t *testing.T) {
	in := []float64{2, 3, 1, 2}
	e, err := NewECDF(in)
	if err != nil {
		t.Fatal(err)
	}
	xs, fs := e.Points(0)
	if !slices.Equal(xs, []float64{1, 2, 2, 3}) || !slices.Equal(fs, []float64{0.25, 0.5, 0.75, 1}) {
		t.Fatalf("points = %v, %v", xs, fs)
	}
	if !slices.Equal(in, []float64{2, 3, 1, 2}) {
		t.Fatalf("NewECDF reordered its input: %v", in)
	}
	if _, err := NewECDF(nil); err == nil {
		t.Fatal("empty ECDF accepted")
	}
}

func TestECDFMonotoneNondecreasingProperty(t *testing.T) {
	f := func(raw []float64, max uint8) bool {
		clean := make([]float64, 0, len(raw))
		for _, v := range raw {
			if !math.IsNaN(v) && !math.IsInf(v, 0) {
				clean = append(clean, v)
			}
		}
		if len(clean) == 0 {
			return true
		}
		e, err := NewECDF(clean)
		if err != nil {
			return false
		}
		xs, fs := e.Points(int(max))
		return sort.Float64sAreSorted(xs) && sort.Float64sAreSorted(fs) && fs[len(fs)-1] == 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestECDFPoints(t *testing.T) {
	xs := []float64{5, 1, 3, 2, 4}
	e, _ := NewECDF(xs)
	px, pf := e.Points(3)
	if len(px) != 3 || len(pf) != 3 {
		t.Fatalf("points lengths %d,%d", len(px), len(pf))
	}
	if !sort.Float64sAreSorted(px) {
		t.Fatal("x points not sorted")
	}
	if pf[len(pf)-1] != 1 {
		t.Fatalf("last F = %g", pf[len(pf)-1])
	}
	px, _ = e.Points(0)
	if len(px) != 5 {
		t.Fatalf("Points(0) returned %d", len(px))
	}
	// One point is the maximum: the curve still reaches F = 1.
	if px, pf = e.Points(1); len(px) != 1 || px[0] != 5 || pf[0] != 1 {
		t.Fatalf("Points(1) = %v, %v, want [5], [1]", px, pf)
	}
}
