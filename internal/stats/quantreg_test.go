package stats

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"testing"

	"telcolens/internal/randx"
)

func TestLowerQuantileSorted(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	cases := []struct {
		xs   []float64
		q    float64
		want float64
	}{
		{nil, 0.5, 0},
		{[]float64{7}, 0.2, 7},
		{[]float64{7}, 0.8, 7},
		{xs, 0.1, 1},  // ⌈0.5⌉ = 1
		{xs, 0.2, 1},  // n·q = 1: a tie, pinned to x₍₁₎
		{xs, 0.3, 2},  // ⌈1.5⌉ = 2
		{xs, 0.4, 2},  // tie at 2
		{xs, 0.5, 3},  // ⌈2.5⌉ = 3
		{xs, 0.8, 4},  // tie at 4
		{xs, 0.99, 5}, // ⌈4.95⌉ = 5
		{[]float64{1, 1, 2, 2}, 0.5, 1},
	}
	for _, c := range cases {
		if got := LowerQuantileSorted(c.xs, c.q); got != c.want {
			t.Errorf("LowerQuantileSorted(%v, %g) = %g, want %g", c.xs, c.q, got, c.want)
		}
	}
	// 100·0.07 rounds to 7.000000000000001 in float64; the tie still
	// pins the 7th smallest, not the 8th.
	big := make([]float64, 100)
	for i := range big {
		big[i] = float64(i + 1)
	}
	if got := LowerQuantileSorted(big, 0.07); got != 7 {
		t.Fatalf("LowerQuantileSorted(1..100, 0.07) = %g, want 7", got)
	}
}

// TestLowerQuantileMatchesFNOracle: on random saturated designs (an
// intercept plus dummies for 1–3 groups), the per-group order statistics
// are an optimum of the quantile-regression LP. Groups are tiny and the
// values discrete so that ties and repeated values are common. Where no
// group has a tie (n_g·τ an integer k with y₍ₖ₎ < y₍ₖ₊₁₎) the optimum is
// unique and the coefficients must match the oracle's; where one does,
// the oracle may land anywhere on the optimal interval, and only the
// loss is compared.
func TestLowerQuantileMatchesFNOracle(t *testing.T) {
	r := randx.New(36)
	taus := []float64{0.2, 0.4, 0.5, 0.6, 0.8}
	var fits, tied int
	for trial := 0; trial < 3000; trial++ {
		ng := 1 + r.Intn(3)
		groups := make([][]float64, ng)
		n := 0
		for g := range groups {
			size := 1 + r.Intn(6)
			if trial%2 == 0 {
				size = 1 + r.Intn(40)
			}
			for i := 0; i < size; i++ {
				groups[g] = append(groups[g], float64(r.Intn(5)+3*g)/2)
			}
			n += size
		}
		if n <= ng {
			continue // the design does not identify its parameters
		}
		var y []float64
		var X [][]float64
		for g, vals := range groups {
			for _, v := range vals {
				row := make([]float64, ng-1)
				if g > 0 {
					row[g-1] = 1
				}
				y = append(y, v)
				X = append(X, row)
			}
			sort.Float64s(vals)
		}
		tau := taus[r.Intn(len(taus))]
		fn, err := fitQuantileFN(y, X, tau)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		fits++
		coef := make([]float64, ng)
		coef[0] = LowerQuantileSorted(groups[0], tau)
		for g := 1; g < ng; g++ {
			coef[g] = LowerQuantileSorted(groups[g], tau) - coef[0]
		}
		loss := quantilePinball(y, X, coef, tau)
		if loss > fn.Loss*(1+1e-9) {
			t.Errorf("trial %d tau=%g groups=%v: selection loss %.17g above FN's %.17g (coef %v, FN %v)",
				trial, tau, groups, loss, fn.Loss, coef, fn.Coef)
		}
		if hasTie(groups, tau) {
			tied++
			continue
		}
		for j := range coef {
			if math.Abs(coef[j]-fn.Coef[j]) > 1e-6 {
				t.Errorf("trial %d tau=%g groups=%v: coef[%d] = %g, FN %g",
					trial, tau, groups, j, coef[j], fn.Coef[j])
			}
		}
	}
	if fits < 2000 || tied < 100 || fits-tied < 1000 {
		t.Fatalf("sweep too thin: %d fits, %d with a tie", fits, tied)
	}
}

// hasTie reports whether some sorted group's τ-quantile LP optimum is an
// interval rather than a point.
func hasTie(groups [][]float64, tau float64) bool {
	for _, g := range groups {
		k := math.Round(float64(len(g)) * tau)
		if math.Abs(float64(len(g))*tau-k) < 1e-9 && int(k) < len(g) && g[int(k)-1] < g[int(k)] {
			return true
		}
	}
	return false
}

func TestFitQuantileCategoricalMatchesGroupQuantiles(t *testing.T) {
	// This is the exact structure of the paper's Tables 8/9: dummy-coded
	// HO type as the only covariate. The quantile regression solution is
	// then intercept = baseline group quantile, coefficient = difference
	// of group quantiles. Each group holds 800 values, so 800·τ is an
	// integer k and the optimum is the interval [y₍ₖ₎, y₍ₖ₊₁₎]: the oracle
	// must land inside it.
	r := randx.New(17)
	var y []float64
	var X [][]float64
	var base, treat []float64
	for i := 0; i < 800; i++ {
		v := r.LogNormal(0, 1)
		base = append(base, v)
		y = append(y, v)
		X = append(X, []float64{0})
	}
	for i := 0; i < 800; i++ {
		v := r.LogNormal(2, 0.8)
		treat = append(treat, v)
		y = append(y, v)
		X = append(X, []float64{1})
	}
	sort.Float64s(base)
	sort.Float64s(treat)
	within := func(v float64, g []float64, k int) bool {
		return v >= g[k-1]-1e-6 && v <= g[k]+1e-6
	}
	for _, tau := range []float64{0.2, 0.4, 0.6, 0.8} {
		m, err := fitQuantileFN(y, X, tau)
		if err != nil {
			t.Fatal(err)
		}
		k := int(math.Round(800 * tau))
		if !within(m.Coef[0], base, k) {
			t.Errorf("tau=%g intercept %g outside [%g, %g]", tau, m.Coef[0], base[k-1], base[k])
		}
		if !within(m.Coef[0]+m.Coef[1], treat, k) {
			t.Errorf("tau=%g treated fit %g outside [%g, %g]", tau, m.Coef[0]+m.Coef[1], treat[k-1], treat[k])
		}
		sel := []float64{LowerQuantileSorted(base, tau), LowerQuantileSorted(treat, tau) - LowerQuantileSorted(base, tau)}
		if loss := quantilePinball(y, X, sel, tau); loss > m.Loss*(1+1e-9) {
			t.Errorf("tau=%g: selection loss %g above FN's %g", tau, loss, m.Loss)
		}
	}
}

func TestFitQuantileMedianLine(t *testing.T) {
	// Median regression on symmetric noise recovers the OLS line.
	r := randx.New(5)
	n := 3000
	X := make([][]float64, n)
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		x := r.Float64() * 10
		X[i] = []float64{x}
		y[i] = 1 + 2*x + r.NormFloat64()
	}
	m, err := fitQuantileFN(y, X, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(m.Coef[0]-1) > 0.1 || math.Abs(m.Coef[1]-2) > 0.03 {
		t.Fatalf("median line coef = %v", m.Coef)
	}
}

func TestFitQuantileInterceptOnlyIsSampleQuantile(t *testing.T) {
	r := randx.New(23)
	y := make([]float64, 2001)
	for i := range y {
		y[i] = r.ExpFloat64() * 10
	}
	// Intercept-only design: a zero-width row per observation.
	X := make([][]float64, len(y))
	for i := range X {
		X[i] = []float64{}
	}
	sorted := append([]float64(nil), y...)
	sort.Float64s(sorted)
	// 2001·τ is no integer here, so the optimum is the single order
	// statistic LowerQuantileSorted selects.
	for _, tau := range []float64{0.25, 0.5, 0.9} {
		m, err := fitQuantileFN(y, X, tau)
		if err != nil {
			t.Fatal(err)
		}
		if want := LowerQuantileSorted(sorted, tau); math.Abs(m.Coef[0]-want) > 1e-6 {
			t.Errorf("tau=%g intercept %g, want %g", tau, m.Coef[0], want)
		}
	}
}

func TestFitQuantileTauOrdering(t *testing.T) {
	// Fitted quantile levels must be (weakly) ordered in tau for an
	// intercept-only model.
	r := randx.New(2)
	y := make([]float64, 1500)
	for i := range y {
		y[i] = r.LogNormal(1, 1.2)
	}
	X := make([][]float64, len(y))
	for i := range X {
		X[i] = []float64{}
	}
	var prev float64 = math.Inf(-1)
	for _, tau := range []float64{0.2, 0.4, 0.6, 0.8} {
		m, err := fitQuantileFN(y, X, tau)
		if err != nil {
			t.Fatal(err)
		}
		if m.Coef[0] < prev-1e-6 {
			t.Fatalf("quantile fits not ordered at tau=%g", tau)
		}
		prev = m.Coef[0]
	}
}

func TestFitQuantileErrors(t *testing.T) {
	y := []float64{1, 2, 3}
	X := [][]float64{{1}, {2}, {3}}
	if _, err := fitQuantileFN(y, X, 0); err == nil {
		t.Fatal("tau=0 accepted")
	}
	if _, err := fitQuantileFN(y, X, 1); err == nil {
		t.Fatal("tau=1 accepted")
	}
	if _, err := fitQuantileFN(nil, nil, 0.5); err == nil {
		t.Fatal("empty accepted")
	}
}

func TestPinballLoss(t *testing.T) {
	y := []float64{1, 2, 3}
	yhat := []float64{1, 1, 4}
	// residuals: 0, 1, -1 → tau=0.5: (0 + .5 + .5)/3
	got, err := pinballLoss(y, yhat, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(got, 1.0/3.0, 1e-12) {
		t.Fatalf("loss = %g", got)
	}
	if _, err := pinballLoss(y, yhat[:2], 0.5); err == nil {
		t.Fatal("length mismatch accepted")
	}
}

func TestQuantileModelBeatsOLSOnPinball(t *testing.T) {
	// For asymmetric noise and tau != 0.5 the quantile fit must achieve
	// lower pinball loss than the OLS fit.
	r := randx.New(91)
	n := 2000
	X := make([][]float64, n)
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		x := r.Float64() * 5
		X[i] = []float64{x}
		y[i] = x + r.ExpFloat64()*3 // skewed noise
	}
	tau := 0.8
	qm, err := fitQuantileFN(y, X, tau)
	if err != nil {
		t.Fatal(err)
	}
	ols, err := FitOLS(y, X, []string{"x"}, true)
	if err != nil {
		t.Fatal(err)
	}
	if ol := quantilePinball(y, X, ols.Coef, tau); qm.Loss >= ol {
		t.Fatalf("quantile loss %g not better than OLS loss %g", qm.Loss, ol)
	}
}

func TestFitQuantileDegenerateDesigns(t *testing.T) {
	// Regression test for degenerate designs: perfectly collinear columns
	// must fail cleanly (no panic, no NaN coefficients), and a constant
	// response must be recovered exactly by the intercept.
	r := randx.New(9)
	n := 200
	X := make([][]float64, n)
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		x := r.Float64()
		X[i] = []float64{x, 2 * x} // collinear pair
		y[i] = x + r.NormFloat64()
	}
	if _, err := fitQuantileFN(y, X, 0.5); err == nil {
		t.Fatal("collinear design accepted")
	}

	for i := 0; i < n; i++ {
		X[i] = []float64{r.Float64()}
		y[i] = 42
	}
	m, err := fitQuantileFN(y, X, 0.7)
	if err != nil {
		t.Fatalf("constant response: %v", err)
	}
	for j, c := range m.Coef {
		if math.IsNaN(c) || math.IsInf(c, 0) {
			t.Fatalf("constant response coef[%d] = %g", j, c)
		}
	}
	if math.Abs(m.Coef[0]-42) > 1e-3 || math.Abs(m.Coef[1]) > 1e-3 {
		t.Fatalf("constant response coef = %v", m.Coef)
	}
	if m.Loss > 1e-6 {
		t.Fatalf("constant response loss = %g", m.Loss)
	}
}

func relErr(got, want float64) float64 {
	if want == 0 {
		return math.Abs(got)
	}
	return math.Abs(got-want) / math.Abs(want)
}

// The Frisch–Newton interior-point solver below once fitted Tables 8 and
// 9. Their design is a saturated set of HO-type dummies, so the report
// now takes per-group order statistics (LowerQuantileSorted); the solver
// stays here as the oracle those order statistics are checked against.

// quantileFit is a linear quantile regression fitted by fitQuantileFN.
type quantileFit struct {
	Coef []float64 // intercept first, then one per design column
	Loss float64   // mean pinball loss of Coef
}

// errFNSingular marks interior-point normal equations that turned
// singular.
var errFNSingular = fmt.Errorf("%w: interior-point normal equations", ErrSingular)

// fitQuantileFN fits a linear quantile regression of y on X plus an
// intercept at quantile tau with the Frisch–Newton interior-point method
// on the bounded dual LP
//
//	min c'a  s.t.  X'a = (1-tau)·X'1,  0 ≤ a ≤ 1,  c = -y,
//
// whose equality multipliers are -coef. Primal and dual feasibility are
// maintained exactly (a starts at (1-tau)·1, steps satisfy X'da = 0 and
// dz - dw = -X dβ), so the iteration only drives complementarity to zero
// with a Mehrotra predictor-corrector step.
func fitQuantileFN(y []float64, X [][]float64, tau float64) (*quantileFit, error) {
	if tau <= 0 || tau >= 1 {
		return nil, fmt.Errorf("stats: tau %g out of (0,1)", tau)
	}
	n := len(y)
	if n == 0 {
		return nil, ErrEmpty
	}
	if len(X) != n {
		return nil, ErrLengthMismatch
	}
	p := len(X[0]) + 1
	if n <= p {
		return nil, fmt.Errorf("%w: %d observations for %d parameters", ErrSingular, n, p)
	}
	for i := 1; i < n; i++ {
		if len(X[i]) != len(X[0]) {
			return nil, fmt.Errorf("stats: ragged design row %d", i)
		}
	}

	const (
		maxIter = 50
		epsGap  = 1e-8  // duality-gap stop, scaled by n
		epsInit = 1e-4  // interior floor for the initial z/w split
		damp    = 0.999 // fraction of the max feasible step taken
	)

	// Interior starting point: a = (1-tau)·1 satisfies X'a = (1-tau)X'1
	// exactly; β from the least-squares dual; z-w = r split elementwise.
	a := make([]float64, n)
	s := make([]float64, n)
	for i := range a {
		a[i] = 1 - tau
		s[i] = tau
	}
	row := make([]float64, p)
	ada := newSquare(p)
	rhs := make([]float64, p)
	beta := make([]float64, p)
	dbeta := make([]float64, p)
	r := make([]float64, n)
	z := make([]float64, n)
	w := make([]float64, n)
	d := make([]float64, n)
	daAff := make([]float64, n)
	dzAff := make([]float64, n)
	dwAff := make([]float64, n)
	da := make([]float64, n)
	dz := make([]float64, n)
	dw := make([]float64, n)

	// β₀ solves (X'X)β = X'c (the OLS dual start).
	for i := 0; i < n; i++ {
		fillRow(row, X[i], true)
		c := -y[i]
		for u := 0; u < p; u++ {
			rhs[u] += row[u] * c
			au := ada[u]
			for v := u; v < p; v++ {
				au[v] += row[u] * row[v]
			}
		}
	}
	for u := 0; u < p; u++ {
		for v := 0; v < u; v++ {
			ada[u][v] = ada[v][u]
		}
	}
	if err := solveSPDInto(ada, rhs, beta); err != nil {
		return nil, errFNSingular
	}
	// r = c - Xβ; z = r⁺+ε, w = r⁻+ε keeps z-w = r with z,w interior.
	for i := 0; i < n; i++ {
		fillRow(row, X[i], true)
		var fit float64
		for u := 0; u < p; u++ {
			fit += row[u] * beta[u]
		}
		r[i] = -y[i] - fit
		if r[i] > 0 {
			z[i] = r[i] + epsInit
			w[i] = epsInit
		} else {
			z[i] = epsInit
			w[i] = epsInit - r[i]
		}
	}

	gap := 0.0
	for i := 0; i < n; i++ {
		gap += z[i]*a[i] + w[i]*s[i]
	}

	for iter := 0; iter < maxIter && gap > epsGap*float64(n); iter++ {
		// Affine (predictor) direction: (XDX')dβ = X(d⊙r).
		for i := 0; i < n; i++ {
			d[i] = 1 / (z[i]/a[i] + w[i]/s[i])
		}
		for u := 0; u < p; u++ {
			rhs[u] = 0
			au := ada[u]
			for v := 0; v < p; v++ {
				au[v] = 0
			}
		}
		for i := 0; i < n; i++ {
			fillRow(row, X[i], true)
			dr := d[i] * r[i]
			for u := 0; u < p; u++ {
				rhs[u] += row[u] * dr
				du := d[i] * row[u]
				au := ada[u]
				for v := u; v < p; v++ {
					au[v] += du * row[v]
				}
			}
		}
		for u := 0; u < p; u++ {
			for v := 0; v < u; v++ {
				ada[u][v] = ada[v][u]
			}
		}
		if err := solveSPDInto(ada, rhs, dbeta); err != nil {
			return nil, errFNSingular
		}
		for i := 0; i < n; i++ {
			fillRow(row, X[i], true)
			var xd float64
			for u := 0; u < p; u++ {
				xd += row[u] * dbeta[u]
			}
			daAff[i] = d[i] * (xd - r[i])
			dzAff[i] = -z[i] * (1 + daAff[i]/a[i])
			dwAff[i] = -w[i] * (1 - daAff[i]/s[i])
		}
		alphaP, alphaD := stepLengths(a, s, z, w, daAff, dzAff, dwAff, damp)

		// Mehrotra centering from the affine gap.
		gapAff := 0.0
		for i := 0; i < n; i++ {
			gapAff += (z[i] + alphaD*dzAff[i]) * (a[i] + alphaP*daAff[i])
			gapAff += (w[i] + alphaD*dwAff[i]) * (s[i] - alphaP*daAff[i])
		}
		sigma := gapAff / gap
		sigma = sigma * sigma * sigma
		mu := sigma * gap / (2 * float64(n))

		// Corrector: fold the centering term and the affine second-order
		// products into the rhs. g_i collects everything in dz_i-dw_i that
		// is not the -(z/a+w/s)·da part; ds = -da makes the dw second-order
		// term -dwAff·daAff/s.
		for u := 0; u < p; u++ {
			rhs[u] = 0
		}
		for i := 0; i < n; i++ {
			gi := mu*(1/a[i]-1/s[i]) - dzAff[i]*daAff[i]/a[i] - dwAff[i]*daAff[i]/s[i]
			da[i] = gi // stash g_i; replaced by the real da below
			fillRow(row, X[i], true)
			dr := d[i] * (r[i] - gi)
			for u := 0; u < p; u++ {
				rhs[u] += row[u] * dr
			}
		}
		// The matrix XDX' from the predictor solve was destroyed by the
		// solver, so rebuild it.
		for u := 0; u < p; u++ {
			au := ada[u]
			for v := 0; v < p; v++ {
				au[v] = 0
			}
		}
		for i := 0; i < n; i++ {
			fillRow(row, X[i], true)
			for u := 0; u < p; u++ {
				du := d[i] * row[u]
				au := ada[u]
				for v := u; v < p; v++ {
					au[v] += du * row[v]
				}
			}
		}
		for u := 0; u < p; u++ {
			for v := 0; v < u; v++ {
				ada[u][v] = ada[v][u]
			}
		}
		if err := solveSPDInto(ada, rhs, dbeta); err != nil {
			return nil, errFNSingular
		}
		for i := 0; i < n; i++ {
			fillRow(row, X[i], true)
			var xd float64
			for u := 0; u < p; u++ {
				xd += row[u] * dbeta[u]
			}
			gi := da[i]
			da[i] = d[i] * (xd - r[i] + gi)
			dz[i] = (mu-dzAff[i]*daAff[i])/a[i] - z[i] - z[i]/a[i]*da[i]
			dw[i] = (mu-dwAff[i]*-daAff[i])/s[i] - w[i] + w[i]/s[i]*da[i]
		}
		alphaP, alphaD = stepLengths(a, s, z, w, da, dz, dw, damp)
		for i := 0; i < n; i++ {
			a[i] += alphaP * da[i]
			s[i] -= alphaP * da[i]
			z[i] += alphaD * dz[i]
			w[i] += alphaD * dw[i]
		}
		for u := 0; u < p; u++ {
			beta[u] += alphaD * dbeta[u]
		}
		// Recompute r = c - Xβ exactly to stop feasibility drift.
		gap = 0
		for i := 0; i < n; i++ {
			fillRow(row, X[i], true)
			var fit float64
			for u := 0; u < p; u++ {
				fit += row[u] * beta[u]
			}
			r[i] = -y[i] - fit
			gap += z[i]*a[i] + w[i]*s[i]
		}
	}

	coef := make([]float64, p)
	for u := 0; u < p; u++ {
		coef[u] = -beta[u]
	}
	return &quantileFit{Coef: coef, Loss: quantilePinball(y, X, coef, tau)}, nil
}

// stepLengths returns the damped primal/dual step fractions that keep
// (a, s) and (z, w) strictly positive. ds = -da throughout.
func stepLengths(a, s, z, w, da, dz, dw []float64, damp float64) (alphaP, alphaD float64) {
	alphaP, alphaD = 1, 1
	for i := range a {
		if da[i] < 0 {
			if t := -damp * a[i] / da[i]; t < alphaP {
				alphaP = t
			}
		} else if da[i] > 0 {
			if t := damp * s[i] / da[i]; t < alphaP {
				alphaP = t
			}
		}
		if dz[i] < 0 {
			if t := -damp * z[i] / dz[i]; t < alphaD {
				alphaD = t
			}
		}
		if dw[i] < 0 {
			if t := -damp * w[i] / dw[i]; t < alphaD {
				alphaD = t
			}
		}
	}
	return alphaP, alphaD
}

// solveSPDInto solves m·x = b for a symmetric positive-definite m via
// Cholesky factorization, writing the solution into x. m is destroyed.
func solveSPDInto(m [][]float64, b, x []float64) error {
	p := len(m)
	// In-place Cholesky: m = L·L', lower triangle.
	for j := 0; j < p; j++ {
		diag := m[j][j]
		for k := 0; k < j; k++ {
			diag -= m[j][k] * m[j][k]
		}
		if diag < 1e-12 || math.IsNaN(diag) {
			return errors.New("stats: matrix not positive definite")
		}
		diag = math.Sqrt(diag)
		m[j][j] = diag
		for i := j + 1; i < p; i++ {
			v := m[i][j]
			for k := 0; k < j; k++ {
				v -= m[i][k] * m[j][k]
			}
			m[i][j] = v / diag
		}
	}
	// Forward solve L·t = b, then back solve L'·x = t.
	for i := 0; i < p; i++ {
		v := b[i]
		for k := 0; k < i; k++ {
			v -= m[i][k] * x[k]
		}
		x[i] = v / m[i][i]
	}
	for i := p - 1; i >= 0; i-- {
		v := x[i]
		for k := i + 1; k < p; k++ {
			v -= m[k][i] * x[k]
		}
		x[i] = v / m[i][i]
	}
	return nil
}

// quantilePinball evaluates the mean pinball loss of coef (intercept
// first) on the design.
func quantilePinball(y []float64, X [][]float64, coef []float64, tau float64) float64 {
	yhat := make([]float64, len(y))
	for i := range y {
		yhat[i] = coef[0]
		for j, x := range X[i] {
			yhat[i] += coef[j+1] * x
		}
	}
	loss, _ := pinballLoss(y, yhat, tau)
	return loss
}

// pinballLoss returns the mean pinball (quantile) loss of predictions yhat
// against observations y at level tau.
func pinballLoss(y, yhat []float64, tau float64) (float64, error) {
	if len(y) != len(yhat) {
		return 0, ErrLengthMismatch
	}
	if len(y) == 0 {
		return 0, ErrEmpty
	}
	var loss float64
	for i := range y {
		r := y[i] - yhat[i]
		if r > 0 {
			loss += tau * r
		} else {
			loss += (tau - 1) * r
		}
	}
	return loss / float64(len(y)), nil
}
