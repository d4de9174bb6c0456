package stats

import (
	"math"
	"testing"
)

func TestRegIncBetaKnownValues(t *testing.T) {
	// I_x(1,1) = x (uniform CDF).
	for _, x := range []float64{0, 0.25, 0.5, 0.75, 1} {
		if got := RegIncBeta(1, 1, x); !almostEq(got, x, 1e-10) {
			t.Errorf("I_%g(1,1) = %g", x, got)
		}
	}
	// I_x(2,2) = x^2(3-2x).
	for _, x := range []float64{0.1, 0.5, 0.9} {
		want := x * x * (3 - 2*x)
		if got := RegIncBeta(2, 2, x); !almostEq(got, want, 1e-10) {
			t.Errorf("I_%g(2,2) = %g, want %g", x, got, want)
		}
	}
	// Symmetry: I_x(a,b) = 1 - I_{1-x}(b,a).
	for _, x := range []float64{0.2, 0.4, 0.7} {
		lhs := RegIncBeta(3.5, 1.25, x)
		rhs := 1 - RegIncBeta(1.25, 3.5, 1-x)
		if !almostEq(lhs, rhs, 1e-10) {
			t.Errorf("symmetry broken at %g: %g vs %g", x, lhs, rhs)
		}
	}
	if !math.IsNaN(RegIncBeta(-1, 1, 0.5)) {
		t.Fatal("invalid a accepted")
	}
}

func TestRegIncGammaKnownValues(t *testing.T) {
	// P(1, x) = 1 - exp(-x).
	for _, x := range []float64{0.1, 1, 3, 10} {
		want := 1 - math.Exp(-x)
		if got := RegIncGammaLower(1, x); !almostEq(got, want, 1e-10) {
			t.Errorf("P(1,%g) = %g, want %g", x, got, want)
		}
	}
	if RegIncGammaLower(2, 0) != 0 {
		t.Fatal("P(2,0) != 0")
	}
	if !math.IsNaN(RegIncGammaLower(0, 1)) {
		t.Fatal("invalid a accepted")
	}
}

// NormalCDF returns P(Z ≤ z) for a standard normal Z; the oracle
// TestStudentTCDF checks the large-df limit against.
func NormalCDF(z float64) float64 {
	return 0.5 * math.Erfc(-z/math.Sqrt2)
}

// StudentTCDF returns P(T ≤ t) for a Student-t variate with df degrees of
// freedom: the oracle for FCDF's identity check and for TestCDFsMonotone.
func StudentTCDF(t, df float64) float64 {
	if df <= 0 {
		return math.NaN()
	}
	if math.IsInf(t, 1) {
		return 1
	}
	if math.IsInf(t, -1) {
		return 0
	}
	x := df / (df + t*t)
	p := 0.5 * RegIncBeta(df/2, 0.5, x)
	if t > 0 {
		return 1 - p
	}
	return p
}

func TestNormalCDF(t *testing.T) {
	cases := []struct{ z, want float64 }{
		{0, 0.5},
		{1.6448536269514722, 0.95},
		{-1.6448536269514722, 0.05},
		{1.959963984540054, 0.975},
	}
	for _, c := range cases {
		if got := NormalCDF(c.z); !almostEq(got, c.want, 1e-9) {
			t.Errorf("Phi(%g) = %g, want %g", c.z, got, c.want)
		}
	}
}

func TestStudentTCDF(t *testing.T) {
	// t with df=1 is Cauchy: CDF(1) = 3/4.
	if got := StudentTCDF(1, 1); !almostEq(got, 0.75, 1e-9) {
		t.Fatalf("T1(1) = %g", got)
	}
	if got := StudentTCDF(0, 7); !almostEq(got, 0.5, 1e-12) {
		t.Fatalf("T7(0) = %g", got)
	}
	// Large df approaches the normal.
	if got := StudentTCDF(1.96, 1e6); !almostEq(got, NormalCDF(1.96), 1e-4) {
		t.Fatalf("T(1.96, big df) = %g", got)
	}
	// Known: P(T<=2.0) for df=10 is ~0.963306.
	if got := StudentTCDF(2.0, 10); !almostEq(got, 0.9633060, 1e-5) {
		t.Fatalf("T10(2) = %g", got)
	}
	if StudentTCDF(math.Inf(1), 3) != 1 || StudentTCDF(math.Inf(-1), 3) != 0 {
		t.Fatal("infinite t mishandled")
	}
}

func TestStudentTTwoSidedP(t *testing.T) {
	// df=10, t=2.228 is the 97.5th percentile → two-sided p = 0.05.
	if got := StudentTTwoSidedP(2.228, 10); !almostEq(got, 0.05, 2e-4) {
		t.Fatalf("p = %g", got)
	}
	// symmetric in t
	if StudentTTwoSidedP(2, 5) != StudentTTwoSidedP(-2, 5) {
		t.Fatal("two-sided p not symmetric")
	}
}

func TestFCDF(t *testing.T) {
	// F(d1=1, d2=k) at f equals T_k CDF identity: P(F<=t²)=2P(T<=|t|)-1.
	tv := 2.0
	k := 12.0
	want := 2*StudentTCDF(tv, k) - 1
	if got := FCDF(tv*tv, 1, k); !almostEq(got, want, 1e-9) {
		t.Fatalf("F CDF = %g, want %g", got, want)
	}
	if FCDF(-1, 2, 2) != 0 {
		t.Fatal("negative f mishandled")
	}
	if got := FSurvival(0, 3, 7); got != 1 {
		t.Fatalf("FSurvival(0) = %g", got)
	}
}

func TestChiSquareCDF(t *testing.T) {
	// Chi-square with 2 df is exponential(mean 2): CDF(x) = 1-exp(-x/2).
	for _, x := range []float64{0.5, 2, 5} {
		want := 1 - math.Exp(-x/2)
		if got := ChiSquareCDF(x, 2); !almostEq(got, want, 1e-9) {
			t.Errorf("Chi2_2(%g) = %g, want %g", x, got, want)
		}
	}
	// Known: P(X ≤ 3.841) for 1 df ≈ 0.95.
	if got := ChiSquareCDF(3.841458820694124, 1); !almostEq(got, 0.95, 1e-6) {
		t.Fatalf("Chi2_1(3.84) = %g", got)
	}
	if ChiSquareSurvival(0, 3) != 1 {
		t.Fatal("survival at 0 should be 1")
	}
}

func TestCDFsMonotone(t *testing.T) {
	prevT, prevF, prevC := 0.0, 0.0, 0.0
	for x := 0.0; x < 20; x += 0.25 {
		ct := StudentTCDF(x, 5)
		cf := FCDF(x, 3, 9)
		cc := ChiSquareCDF(x, 4)
		if ct < prevT || cf < prevF || cc < prevC {
			t.Fatalf("non-monotone CDF at x=%g", x)
		}
		prevT, prevF, prevC = ct, cf, cc
	}
}
