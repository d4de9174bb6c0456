package stats

import (
	"math"
	"testing"

	"telcolens/internal/randx"
)

func TestFitOLSExactLine(t *testing.T) {
	// y = 3 + 2x, noise-free.
	n := 50
	X := make([][]float64, n)
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		x := float64(i)
		X[i] = []float64{x}
		y[i] = 3 + 2*x
	}
	m, err := FitOLS(y, X, []string{"x"}, true)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(m.Coef[0], 3, 1e-8) || !almostEq(m.Coef[1], 2, 1e-8) {
		t.Fatalf("coef = %v", m.Coef)
	}
	if !almostEq(m.R2, 1, 1e-9) {
		t.Fatalf("R2 = %g", m.R2)
	}
	if m.RMSE > 1e-8 {
		t.Fatalf("RMSE = %g", m.RMSE)
	}
}

func TestFitOLSRecoversNoisyCoefficients(t *testing.T) {
	r := randx.New(42)
	n := 5000
	X := make([][]float64, n)
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		x1 := r.NormFloat64()
		x2 := r.Float64() * 4
		X[i] = []float64{x1, x2}
		y[i] = 1.5 - 2*x1 + 0.5*x2 + 0.3*r.NormFloat64()
	}
	m, err := FitOLS(y, X, []string{"x1", "x2"}, true)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{1.5, -2, 0.5}
	for i, w := range want {
		if math.Abs(m.Coef[i]-w) > 0.05 {
			t.Errorf("coef[%d] = %g, want %g", i, m.Coef[i], w)
		}
	}
	// The true slopes are highly significant.
	for i := 1; i < 3; i++ {
		if m.PValue[i] > 1e-10 {
			t.Errorf("p-value[%d] = %g, expected tiny", i, m.PValue[i])
		}
	}
}

func TestFitOLSInsignificantCovariate(t *testing.T) {
	r := randx.New(7)
	n := 2000
	X := make([][]float64, n)
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		x1 := r.NormFloat64()
		junk := r.NormFloat64()
		X[i] = []float64{x1, junk}
		y[i] = 2 + x1 + r.NormFloat64()
	}
	m, err := FitOLS(y, X, []string{"x1", "junk"}, true)
	if err != nil {
		t.Fatal(err)
	}
	if m.PValue[2] < 0.01 {
		t.Fatalf("junk covariate spuriously significant: p=%g coef=%g", m.PValue[2], m.Coef[2])
	}
}

func TestFitOLSCategoricalEqualsGroupMeans(t *testing.T) {
	// With dummy coding, intercept = baseline mean, coefficient = group
	// mean difference. This is exactly how the paper's HO-type models work.
	groupA := []float64{1, 2, 3}    // mean 2
	groupB := []float64{10, 12, 14} // mean 12
	var y []float64
	var X [][]float64
	for _, v := range groupA {
		y = append(y, v)
		X = append(X, []float64{0})
	}
	for _, v := range groupB {
		y = append(y, v)
		X = append(X, []float64{1})
	}
	m, err := FitOLS(y, X, []string{"isB"}, true)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(m.Coef[0], 2, 1e-9) {
		t.Fatalf("intercept = %g, want 2", m.Coef[0])
	}
	if !almostEq(m.Coef[1], 10, 1e-9) {
		t.Fatalf("dummy coef = %g, want 10", m.Coef[1])
	}
}

func TestFitOLSResidualOrthogonality(t *testing.T) {
	// OLS residuals are orthogonal to every column of the design.
	r := randx.New(99)
	n := 500
	X := make([][]float64, n)
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		X[i] = []float64{r.NormFloat64(), r.Float64()}
		y[i] = r.NormFloat64() * 3
	}
	m, err := FitOLS(y, X, []string{"a", "b"}, true)
	if err != nil {
		t.Fatal(err)
	}
	var dotIntercept, dotA, dotB float64
	for i := 0; i < n; i++ {
		dotIntercept += m.Resid[i]
		dotA += m.Resid[i] * X[i][0]
		dotB += m.Resid[i] * X[i][1]
	}
	for _, d := range []float64{dotIntercept, dotA, dotB} {
		if math.Abs(d) > 1e-6*float64(n) {
			t.Fatalf("residuals not orthogonal: %g", d)
		}
	}
}

func TestFitOLSErrors(t *testing.T) {
	if _, err := FitOLS(nil, nil, nil, true); err == nil {
		t.Fatal("empty inputs accepted")
	}
	if _, err := FitOLS([]float64{1, 2}, [][]float64{{1}}, []string{"x"}, true); err == nil {
		t.Fatal("length mismatch accepted")
	}
	// Perfect collinearity.
	y := []float64{1, 2, 3, 4, 5}
	X := [][]float64{{1, 2}, {2, 4}, {3, 6}, {4, 8}, {5, 10}}
	if _, err := FitOLS(y, X, []string{"a", "b"}, true); err == nil {
		t.Fatal("collinear design accepted")
	}
	// Too few observations.
	if _, err := FitOLS([]float64{1, 2}, [][]float64{{1}, {2}}, []string{"x"}, true); err == nil {
		t.Fatal("n <= p accepted")
	}
	// Ragged rows.
	if _, err := FitOLS([]float64{1, 2, 3}, [][]float64{{1}, {2, 3}, {4}}, []string{"x"}, true); err == nil {
		t.Fatal("ragged design accepted")
	}
}

func TestOLSNoIntercept(t *testing.T) {
	y := []float64{2, 4, 6, 8}
	X := [][]float64{{1}, {2}, {3}, {4}}
	m, err := FitOLS(y, X, []string{"x"}, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Coef) != 1 || !almostEq(m.Coef[0], 2, 1e-9) {
		t.Fatalf("coef = %v", m.Coef)
	}
}

func TestAICOrdersModels(t *testing.T) {
	// A model including the true covariate must beat an intercept-only fit.
	r := randx.New(31)
	n := 400
	Xgood := make([][]float64, n)
	Xbad := make([][]float64, n)
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		x := r.NormFloat64()
		Xgood[i] = []float64{x}
		Xbad[i] = []float64{r.NormFloat64()}
		y[i] = 3*x + 0.5*r.NormFloat64()
	}
	good, err := FitOLS(y, Xgood, []string{"x"}, true)
	if err != nil {
		t.Fatal(err)
	}
	bad, err := FitOLS(y, Xbad, []string{"noise"}, true)
	if err != nil {
		t.Fatal(err)
	}
	if good.AIC >= bad.AIC {
		t.Fatalf("AIC ordering wrong: good=%g bad=%g", good.AIC, bad.AIC)
	}
}
