package stat

import "math"

// This file computes the "disk" interpretation of the paper's
// Prob(l, σ, p, δ): the probability that a point drawn from the isotropic
// 2-D normal N(l, σ²I) lands within Euclidean distance δ of p. The radial
// distance R = ‖X - p‖ follows a Rice distribution with parameters
// ν = ‖l - p‖ and σ. R²/2σ² is a Gamma(K+1) variable whose shape is mixed
// over K ~ Pois(λ), λ = ν²/2σ², so with x = δ²/2σ²
//
//	P(R ≤ δ)     = Σₖ Pois(λ;k)·Pr(Pois(x) ≥ k+1) = Pr(Pois(x) > Pois(λ)),
//	1 − P(R ≤ δ) = Σₖ Pois(x;k)·Pr(Pois(λ) ≥ k).
//
// Both are sums of non-negative terms. riceCDF evaluates the one that is
// the smaller probability, so the result keeps full relative precision in
// both tails, and it is monotone in δ up to rounding.

// riceWindow is the half-width, in σ, of the band |δ − ν| < riceWindow·σ
// outside which riceCDF returns exactly 0 or 1. The mass it drops there is
// at most the Rayleigh tail Pr(‖X − l‖ ≥ 9σ) = e^(−81/2) < 3e-18.
const riceWindow = 9

// riceSeriesMax is the largest ν/σ riceCDF sums the series for. The
// series costs O(ν/σ) steps; beyond this the large-ν expansion is cheaper
// and as accurate.
const riceSeriesMax = 1e4

// riceCDF returns P(R ≤ delta) for R ~ Rice(nu, sigma). sigma must be > 0.
func riceCDF(delta, nu, sigma float64) float64 {
	if math.IsNaN(delta) || math.IsNaN(nu) || math.IsNaN(sigma) {
		return math.NaN()
	}
	if delta <= nu-riceWindow*sigma {
		return 0
	}
	if delta >= nu+riceWindow*sigma {
		return 1
	}
	if nu > riceSeriesMax*sigma {
		// Near R = δ, R ≈ ν + σZ₁ + σ²Z₂²/(2δ). Averaging Φ over Z₂ to
		// second order in ε = σ/(2δ) < 5.1e-5 leaves an error of order ε³.
		t := (delta - nu) / sigma
		e := sigma / (2 * delta)
		return NormalCDF(t, 0, 1) - NormalPDF(t, 0, 1)*e*(1+1.5*t*e)
	}
	// In units of σ, so x and λ stay below ~5e7 whatever the scale.
	z, w := delta/sigma, nu/sigma
	x, lam := z*z/2, w*w/2
	if x < lam+1 {
		return poissonMix(lam, x, 1)
	}
	return 1 - poissonMix(x, lam, 0)
}

// poissonMix returns Σ_{k≥0} Pois(a;k)·G(k+off), where G(m) = Pr(Pois(b) ≥ m),
// for off ∈ {0, 1} and b < a+1.
//
// The terms are summed downward from a cutoff n above the summand's mode
// √(ab). G then grows by G(m−1) = G(m) + Pois(b;m−1), so every step adds
// non-negative terms and nothing cancels. The seed G(n+off) is one
// regularized lower incomplete gamma. Above n the summand shrinks by at
// least ab/((k+1)(k+1+off)) per step, so the dropped top tail is below
// e^(−49) of the sum. The bottom stops once Pr(Pois(a) < k), which bounds
// everything below k, is under 1e-17 of the sum so far.
func poissonMix(a, b float64, off int) float64 {
	if a*b < 1e-30 {
		// Every term past k = 0 is below a·b relative to the first.
		g := 1.0
		if off == 1 {
			g = -math.Expm1(-b)
		}
		return math.Exp(-a) * g
	}
	la, lb := math.Log(a), math.Log(b)
	r := math.Sqrt(a * b)
	n := int(r + 7*math.Sqrt(r) + 10)
	s := n + off
	lpa, lpb := logPois(a, n), logPois(b, s)
	// A seed that underflows would keep the downward recurrences at zero.
	// It only happens for a tiny a or b, where the terms it skips are far
	// below the k = 0 term.
	for n > 0 && (lpa < -700 || lpb < -700) {
		lpa += math.Log(float64(n)) - la
		lpb += math.Log(float64(s)) - lb
		n--
		s--
	}
	pa, pb := math.Exp(lpa), math.Exp(lpb)
	g := 1.0 // G(0)
	if s > 0 {
		g = pb * gammaSeries(s, b)
	}
	var sum float64
	for k := n; ; k-- {
		sum += pa * g
		if k == 0 {
			return sum
		}
		pb *= float64(k+off) / b // Pois(b; k+off−1)
		g += pb                  // G(k+off−1)
		pa *= float64(k) / a     // Pois(a; k−1)
		// Σ_{j<k} Pois(a;j) ≤ Pois(a;k−1)·a/(a−k+1) when k−1 < a.
		if km1 := float64(k - 1); km1 < a && pa*a <= 1e-17*sum*(a-km1) {
			return sum
		}
	}
}

// gammaSeries returns Σ_{j≥0} bʲ/((s+1)(s+2)…(s+j)), so that the
// regularized lower incomplete gamma is P(s, b) = Pois(b;s)·gammaSeries(s, b).
// poissonMix's cutoff keeps b < s+1, where the terms fall geometrically.
func gammaSeries(s int, b float64) float64 {
	sum, t := 1.0, 1.0
	for d := float64(s) + 1; ; d++ {
		t *= b / d
		sum += t
		// The rest is at most t·b/(d+1−b).
		if d+1 > b && t*b <= 1e-17*sum*(d+1-b) {
			return sum
		}
	}
}

// logPois returns log Pois(a;n) = −a + n·log a − log n!. For large n those
// three terms are large and nearly cancel, and a 1-ulp error in each would
// cost ~1e-12 of relative accuracy, so it uses Loader's saddle-point form
// −stirlerr(n) − bd0(n, a) − ½·log(2πn), whose parts are all small.
func logPois(a float64, n int) float64 {
	if n == 0 {
		return -a
	}
	x := float64(n)
	return -stirlerr(x) - bd0(x, a) - 0.5*math.Log(2*math.Pi*x)
}

// stirlerr returns log n! − (n+½)·log n + n − ½·log(2π), the error of
// Stirling's formula, for integer n ≥ 1.
func stirlerr(n float64) float64 {
	const s0, s1, s2, s3, s4 = 1.0 / 12, 1.0 / 360, 1.0 / 1260, 1.0 / 1680, 1.0 / 1188
	if n <= 15 {
		lg, _ := math.Lgamma(n + 1)
		return lg - (n+0.5)*math.Log(n) + n - 0.5*math.Log(2*math.Pi)
	}
	// The asymptotic series, which for n > 15 is exact to rounding.
	nn := n * n
	return (s0 - (s1-(s2-(s3-s4/nn)/nn)/nn)/nn) / n
}

// bd0 returns the deviance term x·log(x/m) + m − x ≥ 0, summing its series
// in v = (x−m)/(x+m) when x is close to m, where the direct form cancels.
func bd0(x, m float64) float64 {
	if math.Abs(x-m) >= 0.1*(x+m) {
		return x*math.Log(x/m) + m - x
	}
	v := (x - m) / (x + m)
	sum := (x - m) * v
	ej := 2 * x * v
	v *= v
	for j := 3.0; ; j += 2 {
		ej *= v
		term := ej / j
		sum += term
		if math.Abs(term) <= 1e-17*sum {
			return sum
		}
	}
}

// DiskProb2D is the paper's Prob(l, σ, p, δ) under the "disk"
// interpretation: the probability that a point drawn from N(l, σ²I₂) lands
// within Euclidean distance δ of p. For σ <= 0 it degenerates to the
// indicator of ‖l-p‖ ≤ δ.
func DiskProb2D(lx, ly, sigma, px, py, delta float64) float64 {
	if delta < 0 {
		return 0
	}
	nu := math.Hypot(lx-px, ly-py)
	if sigma <= 0 {
		if nu <= delta {
			return 1
		}
		return 0
	}
	return riceCDF(delta, nu, sigma)
}
