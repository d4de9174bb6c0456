package stats

import "math"

// This file implements the special functions needed for classical
// inference: the regularized incomplete beta and gamma functions, and the
// Student-t, F, chi-square and normal distribution functions built on them.
// The continued-fraction and series expansions follow the standard
// formulations (Abramowitz & Stegun §6.4, §26.5; Lentz's algorithm).

const (
	cfEpsilon = 3e-14
	cfTiny    = 1e-300
	cfMaxIter = 500
)

// RegIncBeta returns the regularized incomplete beta function I_x(a, b)
// for a, b > 0 and x in [0, 1]. It returns NaN outside the domain.
func RegIncBeta(a, b, x float64) float64 {
	switch {
	case a <= 0 || b <= 0 || math.IsNaN(x):
		return math.NaN()
	case x <= 0:
		return 0
	case x >= 1:
		return 1
	}
	lbeta, _ := math.Lgamma(a + b)
	la, _ := math.Lgamma(a)
	lb, _ := math.Lgamma(b)
	front := math.Exp(lbeta - la - lb + a*math.Log(x) + b*math.Log(1-x))
	if x < (a+1)/(a+b+2) {
		return front * betaCF(a, b, x) / a
	}
	return 1 - front*betaCF(b, a, 1-x)/b
}

// betaCF evaluates the continued fraction for the incomplete beta function
// using the modified Lentz algorithm.
func betaCF(a, b, x float64) float64 {
	qab := a + b
	qap := a + 1
	qam := a - 1
	c := 1.0
	d := 1 - qab*x/qap
	if math.Abs(d) < cfTiny {
		d = cfTiny
	}
	d = 1 / d
	h := d
	for m := 1; m <= cfMaxIter; m++ {
		fm := float64(m)
		m2 := 2 * fm
		aa := fm * (b - fm) * x / ((qam + m2) * (a + m2))
		d = 1 + aa*d
		if math.Abs(d) < cfTiny {
			d = cfTiny
		}
		c = 1 + aa/c
		if math.Abs(c) < cfTiny {
			c = cfTiny
		}
		d = 1 / d
		h *= d * c
		aa = -(a + fm) * (qab + fm) * x / ((a + m2) * (qap + m2))
		d = 1 + aa*d
		if math.Abs(d) < cfTiny {
			d = cfTiny
		}
		c = 1 + aa/c
		if math.Abs(c) < cfTiny {
			c = cfTiny
		}
		d = 1 / d
		del := d * c
		h *= del
		if math.Abs(del-1) < cfEpsilon {
			break
		}
	}
	return h
}

// RegIncGammaLower returns the regularized lower incomplete gamma function
// P(a, x) for a > 0, x ≥ 0.
func RegIncGammaLower(a, x float64) float64 {
	switch {
	case a <= 0 || x < 0 || math.IsNaN(a) || math.IsNaN(x):
		return math.NaN()
	case x == 0:
		return 0
	}
	if x < a+1 {
		return gammaSeries(a, x)
	}
	return 1 - gammaCF(a, x)
}

// gammaSeries evaluates P(a,x) by its series representation (x < a+1).
func gammaSeries(a, x float64) float64 {
	lg, _ := math.Lgamma(a)
	ap := a
	sum := 1 / a
	del := sum
	for n := 0; n < cfMaxIter; n++ {
		ap++
		del *= x / ap
		sum += del
		if math.Abs(del) < math.Abs(sum)*cfEpsilon {
			break
		}
	}
	return sum * math.Exp(-x+a*math.Log(x)-lg)
}

// gammaCF evaluates Q(a,x) = 1 - P(a,x) by continued fraction (x ≥ a+1).
func gammaCF(a, x float64) float64 {
	lg, _ := math.Lgamma(a)
	b := x + 1 - a
	c := 1 / cfTiny
	d := 1 / b
	h := d
	for i := 1; i <= cfMaxIter; i++ {
		an := -float64(i) * (float64(i) - a)
		b += 2
		d = an*d + b
		if math.Abs(d) < cfTiny {
			d = cfTiny
		}
		c = b + an/c
		if math.Abs(c) < cfTiny {
			c = cfTiny
		}
		d = 1 / d
		del := d * c
		h *= del
		if math.Abs(del-1) < cfEpsilon {
			break
		}
	}
	return h * math.Exp(-x+a*math.Log(x)-lg)
}

// StudentTTwoSidedP returns the two-sided p-value for |T| ≥ |t| under a
// Student-t distribution with df degrees of freedom.
func StudentTTwoSidedP(t, df float64) float64 {
	if df <= 0 {
		return math.NaN()
	}
	x := df / (df + t*t)
	return RegIncBeta(df/2, 0.5, x)
}

// FCDF returns P(F ≤ f) for an F distribution with d1 and d2 degrees of
// freedom.
func FCDF(f, d1, d2 float64) float64 {
	if d1 <= 0 || d2 <= 0 {
		return math.NaN()
	}
	if f <= 0 {
		return 0
	}
	x := d1 * f / (d1*f + d2)
	return RegIncBeta(d1/2, d2/2, x)
}

// FSurvival returns P(F > f), the upper tail used for ANOVA p-values.
func FSurvival(f, d1, d2 float64) float64 {
	if f <= 0 {
		return 1
	}
	return 1 - FCDF(f, d1, d2)
}

// ChiSquareCDF returns P(X ≤ x) for a chi-square variate with k degrees of
// freedom.
func ChiSquareCDF(x, k float64) float64 {
	if k <= 0 {
		return math.NaN()
	}
	if x <= 0 {
		return 0
	}
	return RegIncGammaLower(k/2, x/2)
}

// ChiSquareSurvival returns P(X > x), the upper tail used by the
// Kruskal–Wallis test.
func ChiSquareSurvival(x, k float64) float64 {
	if x <= 0 {
		return 1
	}
	return 1 - ChiSquareCDF(x, k)
}
