package stats

import (
	"errors"
	"fmt"
	"math"
)

// ErrSingular is returned when a design does not identify every
// coefficient: fewer observations than parameters, or perfectly
// collinear covariates (a dummy level no row carries, say).
var ErrSingular = errors.New("stats: singular design matrix")

// LinearModel is a fitted ordinary-least-squares regression, mirroring the
// regression summaries in the paper's Tables 4, 5 and 7: coefficients with
// standard errors, t-values and two-sided p-values, plus global fit
// statistics (R², RMSE, MAE, AIC).
type LinearModel struct {
	Names  []string  // coefficient names, Names[0] == "(Intercept)" if fitted
	Coef   []float64 // estimated coefficients
	StdErr []float64 // coefficient standard errors
	TValue []float64 // t statistics
	PValue []float64 // two-sided p-values
	N      int       // observations
	DF     int       // residual degrees of freedom
	R2     float64   // coefficient of determination
	AdjR2  float64   // adjusted R²
	RMSE   float64   // root mean squared error of residuals
	MAE    float64   // mean absolute error of residuals
	AIC    float64   // Akaike information criterion (Gaussian likelihood)
	Sigma2 float64   // residual variance estimate
	Fitted []float64 // fitted values (same order as input rows)
	Resid  []float64 // residuals
}

// FitOLS fits y = X·β by ordinary least squares. X is row-major with one
// row per observation; an intercept column is prepended automatically when
// addIntercept is true. names labels the columns of X (excluding the
// intercept). The design must have more rows than columns and no perfect
// collinearity.
func FitOLS(y []float64, X [][]float64, names []string, addIntercept bool) (*LinearModel, error) {
	n := len(y)
	if n == 0 {
		return nil, ErrEmpty
	}
	if len(X) != n {
		return nil, ErrLengthMismatch
	}
	k := len(X[0])
	if len(names) != k {
		return nil, fmt.Errorf("stats: %d names for %d columns", len(names), k)
	}
	p := k
	if addIntercept {
		p++
	}
	if n <= p {
		return nil, fmt.Errorf("%w: %d observations for %d parameters", ErrSingular, n, p)
	}

	// Build X'X and X'y without materializing the design matrix copy.
	row := make([]float64, p)
	xtx := newSquare(p)
	xty := make([]float64, p)
	for i := 0; i < n; i++ {
		if len(X[i]) != k {
			return nil, fmt.Errorf("stats: ragged design row %d", i)
		}
		fillRow(row, X[i], addIntercept)
		for a := 0; a < p; a++ {
			xty[a] += row[a] * y[i]
			for b := a; b < p; b++ {
				xtx[a][b] += row[a] * row[b]
			}
		}
	}
	for a := 0; a < p; a++ {
		for b := 0; b < a; b++ {
			xtx[a][b] = xtx[b][a]
		}
	}

	inv, err := invertSPD(xtx)
	if err != nil {
		return nil, err
	}
	coef := make([]float64, p)
	for a := 0; a < p; a++ {
		for b := 0; b < p; b++ {
			coef[a] += inv[a][b] * xty[b]
		}
	}

	m := &LinearModel{
		Coef:   coef,
		N:      n,
		DF:     n - p,
		Fitted: make([]float64, n),
		Resid:  make([]float64, n),
	}
	m.Names = make([]string, p)
	if addIntercept {
		m.Names[0] = "(Intercept)"
		copy(m.Names[1:], names)
	} else {
		copy(m.Names, names)
	}

	var ssRes, sumAbs, ssTot float64
	my := Mean(y)
	for i := 0; i < n; i++ {
		fillRow(row, X[i], addIntercept)
		var fit float64
		for a := 0; a < p; a++ {
			fit += row[a] * coef[a]
		}
		r := y[i] - fit
		m.Fitted[i] = fit
		m.Resid[i] = r
		ssRes += r * r
		sumAbs += math.Abs(r)
		d := y[i] - my
		ssTot += d * d
	}
	m.Sigma2 = ssRes / float64(m.DF)
	m.RMSE = math.Sqrt(ssRes / float64(n))
	m.MAE = sumAbs / float64(n)
	if ssTot > 0 {
		m.R2 = 1 - ssRes/ssTot
		m.AdjR2 = 1 - (1-m.R2)*float64(n-1)/float64(m.DF)
	}
	// Gaussian log-likelihood AIC with p slope params + 1 variance param.
	if ssRes > 0 {
		ll := -0.5 * float64(n) * (math.Log(2*math.Pi*ssRes/float64(n)) + 1)
		m.AIC = -2*ll + 2*float64(p+1)
	}

	m.StdErr = make([]float64, p)
	m.TValue = make([]float64, p)
	m.PValue = make([]float64, p)
	for a := 0; a < p; a++ {
		se := math.Sqrt(m.Sigma2 * inv[a][a])
		m.StdErr[a] = se
		if se > 0 {
			m.TValue[a] = coef[a] / se
			m.PValue[a] = StudentTTwoSidedP(m.TValue[a], float64(m.DF))
		} else {
			m.TValue[a] = math.Inf(sign(coef[a]))
			m.PValue[a] = 0
		}
	}
	return m, nil
}

func sign(v float64) int {
	if v < 0 {
		return -1
	}
	return 1
}

func fillRow(dst, src []float64, addIntercept bool) {
	if addIntercept {
		dst[0] = 1
		copy(dst[1:], src)
	} else {
		copy(dst, src)
	}
}

func newSquare(p int) [][]float64 {
	m := make([][]float64, p)
	backing := make([]float64, p*p)
	for i := range m {
		m[i], backing = backing[:p], backing[p:]
	}
	return m
}

// invertSPD inverts a symmetric positive-definite matrix via Gauss-Jordan
// elimination with partial pivoting. It destroys its argument.
func invertSPD(a [][]float64) ([][]float64, error) {
	p := len(a)
	inv := newSquare(p)
	for i := 0; i < p; i++ {
		inv[i][i] = 1
	}
	for col := 0; col < p; col++ {
		// partial pivot
		pivot := col
		for r := col + 1; r < p; r++ {
			if math.Abs(a[r][col]) > math.Abs(a[pivot][col]) {
				pivot = r
			}
		}
		if math.Abs(a[pivot][col]) < 1e-12 {
			return nil, fmt.Errorf("%w (collinear covariates?)", ErrSingular)
		}
		a[col], a[pivot] = a[pivot], a[col]
		inv[col], inv[pivot] = inv[pivot], inv[col]
		pv := a[col][col]
		for j := 0; j < p; j++ {
			a[col][j] /= pv
			inv[col][j] /= pv
		}
		for r := 0; r < p; r++ {
			if r == col {
				continue
			}
			f := a[r][col]
			if f == 0 {
				continue
			}
			for j := 0; j < p; j++ {
				a[r][j] -= f * a[col][j]
				inv[r][j] -= f * inv[col][j]
			}
		}
	}
	return inv, nil
}
