package stats

import (
	"errors"
	"fmt"
	"math"
)

// QuantileModel is a fitted quantile (pinball-loss) regression at a single
// quantile level tau, used to reproduce the paper's Tables 8 and 9.
type QuantileModel struct {
	Tau   float64
	Names []string
	Coef  []float64
	N     int
	Iter  int     // solver iterations used
	Loss  float64 // final pinball loss (mean)
}

// FitQuantile fits a linear quantile regression of y on X at quantile tau.
// The default solver is a Frisch–Newton interior-point method on the dual
// LP (Mehrotra predictor-corrector), which converges in ~10–25 iterations
// where the legacy smoothed-IRLS solver needs up to 200; each iteration
// costs the same O(n·p²) normal-equations solve, so the wall-time ratio is
// roughly the iteration ratio. If the interior-point normal equations turn
// singular (degenerate designs), the fit falls back to the legacy solver.
// FitQuantileIRLS keeps the previous solver callable directly; equivalence
// of the two is covered by tests in this package.
func FitQuantile(y []float64, X [][]float64, names []string, tau float64, addIntercept bool) (*QuantileModel, error) {
	m, err := fitQuantileFN(y, X, names, tau, addIntercept)
	if err == nil {
		return m, nil
	}
	if !errors.Is(err, errFNSingular) {
		return nil, err
	}
	return FitQuantileIRLS(y, X, names, tau, addIntercept)
}

// errFNSingular marks an interior-point failure that the IRLS fallback may
// still be able to handle (the two solvers hit singularities at different
// points).
var errFNSingular = errors.New("stats: interior-point normal equations singular")

// checkQuantileDesign validates the shared (y, X, names, tau) contract and
// returns the column and parameter counts.
func checkQuantileDesign(y []float64, X [][]float64, names []string, tau float64, addIntercept bool) (n, p int, err error) {
	if tau <= 0 || tau >= 1 {
		return 0, 0, fmt.Errorf("stats: tau %g out of (0,1)", tau)
	}
	n = len(y)
	if n == 0 {
		return 0, 0, ErrEmpty
	}
	if len(X) != n {
		return 0, 0, ErrLengthMismatch
	}
	k := len(X[0])
	if len(names) != k {
		return 0, 0, fmt.Errorf("stats: %d names for %d columns", len(names), k)
	}
	p = k
	if addIntercept {
		p++
	}
	if n <= p {
		return 0, 0, fmt.Errorf("%w: %d observations for %d parameters", ErrSingular, n, p)
	}
	return n, p, nil
}

// quantileNames builds the coefficient-name slice shared by both solvers.
func quantileNames(names []string, p int, addIntercept bool) []string {
	out := make([]string, p)
	if addIntercept {
		out[0] = "(Intercept)"
		copy(out[1:], names)
	} else {
		copy(out, names)
	}
	return out
}

// quantilePinball evaluates the mean pinball loss of coef on the design.
func quantilePinball(y []float64, X [][]float64, coef []float64, tau float64, addIntercept bool) float64 {
	p := len(coef)
	row := make([]float64, p)
	var loss float64
	for i := range y {
		fillRow(row, X[i], addIntercept)
		var fit float64
		for a := 0; a < p; a++ {
			fit += row[a] * coef[a]
		}
		r := y[i] - fit
		if r > 0 {
			loss += tau * r
		} else {
			loss += (tau - 1) * r
		}
	}
	return loss / float64(len(y))
}

// fitQuantileFN solves the quantile regression via the Frisch–Newton
// interior-point method on the bounded dual LP
//
//	min c'a  s.t.  X'a = (1-tau)·X'1,  0 ≤ a ≤ 1,  c = -y,
//
// whose equality multipliers are -coef. Primal and dual feasibility are
// maintained exactly (a starts at (1-tau)·1, steps satisfy X'da = 0 and
// dz - dw = -X dβ), so the iteration only drives complementarity to zero
// with a Mehrotra predictor-corrector step.
func fitQuantileFN(y []float64, X [][]float64, names []string, tau float64, addIntercept bool) (*QuantileModel, error) {
	n, p, err := checkQuantileDesign(y, X, names, tau, addIntercept)
	if err != nil {
		return nil, err
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
		fillRow(row, X[i], addIntercept)
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
		fillRow(row, X[i], addIntercept)
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

	var iter int
	for iter = 0; iter < maxIter && gap > epsGap*float64(n); iter++ {
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
			fillRow(row, X[i], addIntercept)
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
			fillRow(row, X[i], addIntercept)
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
			fillRow(row, X[i], addIntercept)
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
			fillRow(row, X[i], addIntercept)
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
			fillRow(row, X[i], addIntercept)
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
			fillRow(row, X[i], addIntercept)
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
	m := &QuantileModel{Tau: tau, Coef: coef, N: n, Iter: iter}
	m.Names = quantileNames(names, p, addIntercept)
	m.Loss = quantilePinball(y, X, coef, tau, addIntercept)
	return m, nil
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

// FitQuantileIRLS is the legacy quantile-regression solver: iteratively
// reweighted least squares on a smoothed pinball loss. It is kept as the
// fallback for designs where the interior-point method fails and as the
// oracle for the solver-equivalence tests. For purely categorical designs
// (the paper's case: HO type dummies) the solution converges to
// within-group quantiles, which tests verify.
func FitQuantileIRLS(y []float64, X [][]float64, names []string, tau float64, addIntercept bool) (*QuantileModel, error) {
	n, p, err := checkQuantileDesign(y, X, names, tau, addIntercept)
	if err != nil {
		return nil, err
	}

	// Start from the OLS solution.
	ols, err := FitOLS(y, X, names, addIntercept)
	if err != nil {
		return nil, err
	}
	coef := append([]float64(nil), ols.Coef...)

	const (
		maxIter = 200
		eps     = 1e-6 // smoothing floor for |residual|
		tol     = 1e-9
	)
	row := make([]float64, p)
	xtwx := newSquare(p)
	xtwy := make([]float64, p)
	var iter int
	for iter = 0; iter < maxIter; iter++ {
		for a := 0; a < p; a++ {
			xtwy[a] = 0
			for b := 0; b < p; b++ {
				xtwx[a][b] = 0
			}
		}
		for i := 0; i < n; i++ {
			fillRow(row, X[i], addIntercept)
			var fit float64
			for a := 0; a < p; a++ {
				fit += row[a] * coef[a]
			}
			r := y[i] - fit
			var w float64
			if r > 0 {
				w = tau / math.Max(math.Abs(r), eps)
			} else {
				w = (1 - tau) / math.Max(math.Abs(r), eps)
			}
			for a := 0; a < p; a++ {
				// w*row[a] is the left-grouped common factor of both
				// updates; hoisting it is bit-identical.
				wra := w * row[a]
				xtwy[a] += wra * y[i]
				xa := xtwx[a]
				for b := a; b < p; b++ {
					xa[b] += wra * row[b]
				}
			}
		}
		for a := 0; a < p; a++ {
			for b := 0; b < a; b++ {
				xtwx[a][b] = xtwx[b][a]
			}
		}
		inv, err := invertSPD(xtwx)
		if err != nil {
			return nil, errors.New("stats: quantile regression design became singular")
		}
		next := make([]float64, p)
		for a := 0; a < p; a++ {
			for b := 0; b < p; b++ {
				next[a] += inv[a][b] * xtwy[b]
			}
		}
		var delta float64
		for a := 0; a < p; a++ {
			delta += math.Abs(next[a] - coef[a])
		}
		coef = next
		if delta < tol {
			break
		}
	}

	m := &QuantileModel{Tau: tau, Coef: coef, N: n, Iter: iter + 1}
	m.Names = quantileNames(names, p, addIntercept)
	m.Loss = quantilePinball(y, X, coef, tau, addIntercept)
	return m, nil
}

// PinballLoss returns the mean pinball (quantile) loss of predictions yhat
// against observations y at level tau.
func PinballLoss(y, yhat []float64, tau float64) (float64, error) {
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
