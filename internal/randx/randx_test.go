package randx

import (
	"math"
	"sort"
	"testing"
	"testing/quick"
)

func TestSeedDeterminism(t *testing.T) {
	a := Seed(42, "ue", 7)
	b := Seed(42, "ue", 7)
	if a != b {
		t.Fatalf("Seed not deterministic: %d != %d", a, b)
	}
}

func TestSeedSeparatesStreams(t *testing.T) {
	seen := make(map[uint64]string)
	for _, label := range []string{"ue", "sector", "district", "day"} {
		for i := uint64(0); i < 1000; i++ {
			s := Seed(1, label, i)
			if prev, ok := seen[s]; ok {
				t.Fatalf("seed collision between %q/%d and %s", label, i, prev)
			}
			seen[s] = label
		}
	}
}

func TestSeedLabelSensitivity(t *testing.T) {
	if Seed(9, "a", 0) == Seed(9, "b", 0) {
		t.Fatal("different labels produced identical seeds")
	}
	if Seed(9, "a", 0) == Seed(10, "a", 0) {
		t.Fatal("different roots produced identical seeds")
	}
}

func TestSourceSequenceStability(t *testing.T) {
	// Lock in the SplitMix64 sequence: if this changes, every experiment
	// output changes, which must be a conscious decision.
	s := NewSource(1)
	want := []uint64{0x910a2dec89025cc1, 0xbeeb8da1658eec67, 0xf893a2eefb32555e}
	for i, w := range want {
		if got := s.Uint64(); got != w {
			t.Fatalf("Uint64[%d] = %#x, want %#x", i, got, w)
		}
	}
}

func TestRandStreamsIndependent(t *testing.T) {
	r1 := NewStream(5, "x", 1)
	r2 := NewStream(5, "x", 2)
	equal := 0
	for i := 0; i < 100; i++ {
		if r1.Uint64() == r2.Uint64() {
			equal++
		}
	}
	if equal > 2 {
		t.Fatalf("streams look correlated: %d equal outputs of 100", equal)
	}
}

func TestBoolEdges(t *testing.T) {
	r := New(3)
	for i := 0; i < 100; i++ {
		if r.Bool(0) {
			t.Fatal("Bool(0) returned true")
		}
		if !r.Bool(1) {
			t.Fatal("Bool(1) returned false")
		}
	}
}

func TestBoolFrequency(t *testing.T) {
	r := New(11)
	const n = 200000
	hits := 0
	for i := 0; i < n; i++ {
		if r.Bool(0.3) {
			hits++
		}
	}
	got := float64(hits) / n
	if math.Abs(got-0.3) > 0.01 {
		t.Fatalf("Bool(0.3) frequency = %.4f", got)
	}
}

func TestLogNormalParams(t *testing.T) {
	mu, sigma := LogNormalParams(43, 92)
	if math.Abs(math.Exp(mu)-43) > 1e-9 {
		t.Fatalf("median mismatch: exp(mu)=%g", math.Exp(mu))
	}
	// p95 = exp(mu + 1.6449*sigma)
	p95 := math.Exp(mu + 1.6448536269514722*sigma)
	if math.Abs(p95-92) > 1e-6 {
		t.Fatalf("p95 mismatch: %g", p95)
	}
}

func TestLogNormalParamsPanics(t *testing.T) {
	for _, c := range []struct{ med, p95 float64 }{{0, 1}, {-1, 2}, {10, 5}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("LogNormalParams(%g,%g) did not panic", c.med, c.p95)
				}
			}()
			LogNormalParams(c.med, c.p95)
		}()
	}
}

func TestLogNormalMedP95Quantiles(t *testing.T) {
	r := New(77)
	const n = 100000
	samples := make([]float64, n)
	for i := range samples {
		samples[i] = r.LogNormalMedP95(412, 1087)
	}
	med := quickQuantile(samples, 0.5)
	p95 := quickQuantile(samples, 0.95)
	if math.Abs(med-412)/412 > 0.03 {
		t.Fatalf("empirical median %.1f, want ~412", med)
	}
	if math.Abs(p95-1087)/1087 > 0.05 {
		t.Fatalf("empirical p95 %.1f, want ~1087", p95)
	}
}

func TestPoissonMean(t *testing.T) {
	r := New(123)
	for _, mean := range []float64{0.3, 3, 30, 300} {
		const n = 50000
		var sum float64
		for i := 0; i < n; i++ {
			sum += float64(r.Poisson(mean))
		}
		got := sum / n
		if math.Abs(got-mean)/math.Max(mean, 1) > 0.05 {
			t.Fatalf("Poisson(%g) empirical mean %.3f", mean, got)
		}
	}
}

func TestPoissonNonNegative(t *testing.T) {
	r := New(5)
	if r.Poisson(-3) != 0 || r.Poisson(0) != 0 {
		t.Fatal("Poisson of non-positive mean must be 0")
	}
}

func TestParetoBounds(t *testing.T) {
	r := New(19)
	for i := 0; i < 10000; i++ {
		v := r.Pareto(2, 1.5)
		if v < 2 {
			t.Fatalf("Pareto sample %g below xm", v)
		}
	}
}

// Property: seeds are a pure function of inputs.
func TestSeedPure(t *testing.T) {
	f := func(root, idx uint64, label string) bool {
		return Seed(root, label, idx) == Seed(root, label, idx)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func quickQuantile(xs []float64, q float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	idx := int(q * float64(len(s)-1))
	return s[idx]
}
