package stat

import (
	"math"
	"testing"
	"testing/quick"
)

// The Simpson integrator over the scaled Bessel integrand below was the
// production Rice CDF before the Poisson-mixture series replaced it. It
// stays here as an independent reference: at a high panel count it
// resolves the integral far beyond the accuracy the series is held to.

// I0e returns the exponentially scaled modified Bessel function of the
// first kind of order zero, I₀(x)·e^(-|x|). It is accurate to ~1e-13 using
// the power series for small |x| and the asymptotic expansion for large |x|.
func I0e(x float64) float64 {
	x = math.Abs(x)
	if x < 25 {
		// Power series: I0(x) = Σ (x/2)^(2k) / (k!)².
		term, sum := 1.0, 1.0
		half := x / 2
		for k := 1; k < 80; k++ {
			term *= (half / float64(k)) * (half / float64(k))
			sum += term
			if term < sum*1e-17 {
				break
			}
		}
		return sum * math.Exp(-x)
	}
	// Asymptotic: I0(x) ~ e^x/sqrt(2πx) · Σ a_k/x^k with
	// a_k = ((2k-1)!!)² / (k!·8^k).
	inv := 1 / x
	sum, term := 1.0, 1.0
	for k := 1; k < 12; k++ {
		num := float64(2*k-1) * float64(2*k-1)
		term *= num * inv / (8 * float64(k))
		sum += term
		if math.Abs(term) < 1e-17 {
			break
		}
	}
	return sum / math.Sqrt(2*math.Pi*x)
}

// riceSimpson integrates the Rice(nu, sigma) density over [lo, hi] with
// composite Simpson on n panels (n even). The integrand is written as
// (r/σ²)·exp(-(r-ν)²/(2σ²))·I0e(rν/σ²), which never overflows.
func riceSimpson(lo, hi, nu, sigma float64, n int) float64 {
	inv2s2 := 1 / (2 * sigma * sigma)
	invs2 := 1 / (sigma * sigma)
	f := func(r float64) float64 {
		d := r - nu
		return r * invs2 * math.Exp(-d*d*inv2s2) * I0e(r*nu*invs2)
	}
	h := (hi - lo) / float64(n)
	sum := f(lo) + f(hi)
	for i := 1; i < n; i++ {
		x := lo + float64(i)*h
		if i%2 == 1 {
			sum += 4 * f(x)
		} else {
			sum += 2 * f(x)
		}
	}
	return sum * h / 3
}

// TestRiceCDFDifferential holds riceCDF to the Simpson reference on a dense
// (ν/σ, δ/σ) grid. For each ν the reference is accumulated along the δ grid
// from ν-40σ, 64 panels per step, so it keeps its relative accuracy deep in
// the lower tail. Inside the ±9σ window the series must be within 1e-12
// absolute and 1e-9 in log; at the two exits it must be exactly 0 and 1;
// along δ it must never decrease, with no tolerance.
func TestRiceCDFDifferential(t *testing.T) {
	const sigma = 1.0
	deltas := []float64{1e-9, 1e-6, 1e-3, 0.01, 0.02, 0.03, 0.04}
	for j := 1; j <= 1200; j++ {
		deltas = append(deltas, float64(j)*0.05)
	}
	var checked, maxAbs, maxLog float64
	for i := 0; i <= 120; i++ {
		nu := float64(i) * 0.5
		lo := math.Max(0, nu-40*sigma)
		ref, prevDelta, prev := 0.0, lo, 0.0
		for _, delta := range deltas {
			got := riceCDF(delta, nu, sigma)
			if got < prev {
				t.Fatalf("ν=%v: riceCDF(%v) = %.17g < riceCDF at the previous δ = %.17g", nu, delta, got, prev)
			}
			prev = got
			if delta >= nu+riceWindow*sigma {
				if got != 1 {
					t.Fatalf("ν=%v δ=%v: upper exit returned %.17g, want exactly 1", nu, delta, got)
				}
				continue
			}
			if delta > prevDelta {
				ref += riceSimpson(prevDelta, delta, nu, sigma, 64)
				prevDelta = delta
			}
			if delta <= nu-riceWindow*sigma && got != 0 {
				t.Fatalf("ν=%v δ=%v: lower exit returned %.17g, want exactly 0", nu, delta, got)
			}
			abs := math.Abs(got - ref)
			if abs > 1e-12 {
				t.Errorf("ν=%v δ=%v: riceCDF = %.17g, reference %.17g (|Δ| = %.3g)", nu, delta, got, ref, abs)
			}
			maxAbs = math.Max(maxAbs, abs)
			if got > 0 && ref > 1e-300 {
				lg := math.Abs(math.Log(got) - math.Log(ref))
				if lg > 1e-9 {
					t.Errorf("ν=%v δ=%v: log riceCDF = %.17g, log reference %.17g (|Δ| = %.3g)",
						nu, delta, math.Log(got), math.Log(ref), lg)
				}
				maxLog = math.Max(maxLog, lg)
			}
			checked++
		}
	}
	t.Logf("%v in-range points, max |Δ| %.3g, max |Δ log| %.3g", checked, maxAbs, maxLog)
}

// TestRiceCDFLargeNu: past riceSeriesMax, riceCDF switches from the series
// to the large-ν expansion. Across the switch the two must agree as
// closely as the series agrees with the reference.
func TestRiceCDFLargeNu(t *testing.T) {
	series := riceSeriesMax
	far := math.Nextafter(series, math.Inf(1))
	var maxAbs, maxLog float64
	for d := -8.75; d < 9; d += 0.25 {
		delta := series + d
		want, got := riceCDF(delta, series, 1), riceCDF(delta, far, 1)
		abs, lg := math.Abs(got-want), math.Abs(math.Log(got)-math.Log(want))
		if abs > 1e-12 || lg > 1e-9 {
			t.Errorf("δ−ν = %v: expansion %.17g, series %.17g", d, got, want)
		}
		maxAbs, maxLog = math.Max(maxAbs, abs), math.Max(maxLog, lg)
	}
	t.Logf("max |Δ| %.3g, max |Δ log| %.3g", maxAbs, maxLog)
	if got := riceCDF(1e15, 1e15, 1); got < 0.49 || got > 0.5 {
		t.Errorf("riceCDF at δ = ν = 1e15σ = %v, want just under 1/2", got)
	}
}

// TestDiskProbRecordedFailures pins the two inputs on which the former
// Simpson kernel broke TestQuickDiskVsBox: at δ/σ ≈ 20 it returned less
// than 1 at δ and more than that at δ/2.
func TestDiskProbRecordedFailures(t *testing.T) {
	for _, in := range [][4]uint16{
		{0xd4f0, 0x1017, 0xc3b6, 0x54a7},
		{0x30cd, 0xfd90, 0x6722, 0x4ff7},
	} {
		lx := float64(in[0]%200)/100 - 1
		ly := float64(in[1]%200)/100 - 1
		sigma := 0.05 + float64(in[2]%100)/100
		delta := 0.01 + float64(in[3]%100)/50
		disk := DiskProb2D(lx, ly, sigma, 0, 0, delta)
		half := DiskProb2D(lx, ly, sigma, 0, 0, delta/2)
		if disk < 0 || disk > 1 || half < 0 || half > 1 {
			t.Errorf("%#x: DiskProb2D out of [0,1]: δ → %v, δ/2 → %v", in, disk, half)
		}
		if half > disk {
			t.Errorf("%#x: not monotone in δ: δ/2 → %.17g > δ → %.17g", in, half, disk)
		}
		outer := BoxProb2D(lx, ly, sigma, 0, 0, delta)
		inner := BoxProb2D(lx, ly, sigma, 0, 0, delta/math.Sqrt2)
		if inner > disk+1e-6 || disk > outer+1e-6 {
			t.Errorf("%#x: box bounds violated: inner %.17g, disk %.17g, outer %.17g", in, inner, disk, outer)
		}
	}
}

func BenchmarkI0eSeries(b *testing.B) {
	for i := 0; i < b.N; i++ {
		I0e(8.5)
	}
}

func BenchmarkI0eAsymptotic(b *testing.B) {
	for i := 0; i < b.N; i++ {
		I0e(60)
	}
}

var riceSink float64

// BenchmarkRiceCDFWindow sweeps riceCDF over a (ν/σ, δ/σ) grid inside the
// ±9σ window, where the series runs; ν/σ up to 20 covers the cells the
// disk-mode workloads score.
func BenchmarkRiceCDFWindow(b *testing.B) {
	type pair struct{ delta, nu float64 }
	var grid []pair
	for nu := 0.0; nu <= 20; nu += 2 {
		for d := -8.5; d < 9; d += 1.0 {
			if delta := nu + d; delta > 0 {
				grid = append(grid, pair{delta, nu})
			}
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := grid[i%len(grid)]
		riceSink = riceCDF(p.delta, p.nu, 1)
	}
}

func TestI0eKnownValues(t *testing.T) {
	// Reference values: I0(x)*exp(-x) for x = 0, 1, 5, 20, 100.
	cases := []struct {
		x, want float64
	}{
		{0, 1},
		{1, 0.46575960759364043},   // I0(1)=1.2660658..., e^-1 scaling
		{5, 0.18354081260932836},   // I0(5)=27.239871...
		{20, 0.08978031188482602},  // power-series branch
		{25, 0.08019677354743671},  // first point on the asymptotic branch
		{100, 0.03994437929909668}, // deep asymptotic branch
	}
	for _, c := range cases {
		if got := I0e(c.x); math.Abs(got-c.want) > 1e-9*(1+c.want) {
			t.Errorf("I0e(%v) = %.15g, want %.15g", c.x, got, c.want)
		}
	}
	// Even function.
	if I0e(-3) != I0e(3) {
		t.Error("I0e not even")
	}
}

func TestI0eBranchContinuity(t *testing.T) {
	// The series/asymptotic switch at x=25 must be smooth. I0e has slope
	// ≈ -I0e(x)/(2x) ≈ -0.0016 there, so over the 2e-6 gap the function
	// itself moves ~3.2e-9; any branch mismatch beyond ~1e-11 would show
	// up on top of that.
	lo, hi := I0e(24.999999), I0e(25.000001)
	slope := -I0e(25) / (2 * 25)
	expectedChange := slope * 2e-6
	if diff := hi - lo; math.Abs(diff-expectedChange) > 1e-10 {
		t.Errorf("I0e branch mismatch: hi-lo = %g, expected ≈%g from slope", diff, expectedChange)
	}
}

func TestDiskProbCentral(t *testing.T) {
	// Centered disk: P(‖X‖<δ) = 1 - exp(-δ²/2σ²) (Rayleigh CDF).
	for _, c := range []struct{ delta, sigma float64 }{
		{1, 1}, {0.5, 1}, {2, 0.7}, {3, 1},
	} {
		want := 1 - math.Exp(-c.delta*c.delta/(2*c.sigma*c.sigma))
		got := DiskProb2D(0, 0, c.sigma, 0, 0, c.delta)
		if math.Abs(got-want) > 1e-6 {
			t.Errorf("central disk δ=%v σ=%v: got %v want %v", c.delta, c.sigma, got, want)
		}
	}
}

func TestDiskProbMonteCarlo(t *testing.T) {
	// Off-center disks validated against Monte Carlo.
	rng := NewRNG(42)
	cases := []struct {
		lx, ly, sigma, px, py, delta float64
	}{
		{0, 0, 1, 1, 0, 1},
		{0, 0, 1, 2, 1, 0.8},
		{0.3, -0.2, 0.5, 0.5, 0.5, 0.4},
		{0, 0, 0.2, 1.5, 0, 0.3}, // far offset: small probability
	}
	const n = 400000
	for _, c := range cases {
		hits := 0
		for i := 0; i < n; i++ {
			x := rng.Normal(c.lx, c.sigma)
			y := rng.Normal(c.ly, c.sigma)
			if math.Hypot(x-c.px, y-c.py) <= c.delta {
				hits++
			}
		}
		mc := float64(hits) / n
		got := DiskProb2D(c.lx, c.ly, c.sigma, c.px, c.py, c.delta)
		se := math.Sqrt(mc*(1-mc)/n) + 1e-6
		if math.Abs(got-mc) > 5*se+1e-4 {
			t.Errorf("DiskProb2D%+v = %v, Monte Carlo = %v (se %v)", c, got, mc, se)
		}
	}
}

func TestDiskProbDegenerate(t *testing.T) {
	if DiskProb2D(0, 0, 0, 0.1, 0, 0.2) != 1 {
		t.Error("σ=0 inside disk should be 1")
	}
	if DiskProb2D(0, 0, 0, 1, 0, 0.2) != 0 {
		t.Error("σ=0 outside disk should be 0")
	}
	if DiskProb2D(0, 0, 1, 0, 0, -0.5) != 0 {
		t.Error("negative delta should be 0")
	}
	for _, in := range [][3]float64{{math.NaN(), 1, 0.5}, {0, math.NaN(), 0.5}, {0, 1, math.NaN()}} {
		if got := DiskProb2D(in[0], 0, in[1], 0, 0, in[2]); !math.IsNaN(got) {
			t.Errorf("DiskProb2D with lx, σ, δ = %v = %v, want NaN", in, got)
		}
	}
	// Far from the origin at a coarse σ, δ²/σ² would overflow.
	if got := DiskProb2D(1e300, 0, 1e297, 0, 0, 1e300); got < 0.4 || got > 0.6 {
		t.Errorf("DiskProb2D at δ = ν = 1e3σ = 1e300 → %v, want about 1/2", got)
	}
}

func TestDiskProbFarTails(t *testing.T) {
	// Disk entirely beyond the 9σ bump: ~0.
	if got := DiskProb2D(0, 0, 0.01, 1, 0, 0.05); got != 0 {
		t.Errorf("far disk = %v, want 0", got)
	}
	// Disk covering everything: ~1.
	if got := DiskProb2D(0, 0, 0.01, 0, 0, 10); math.Abs(got-1) > 1e-9 {
		t.Errorf("covering disk = %v, want 1", got)
	}
}

// Property: disk probability is within [0,1], monotone in delta, and always
// at most the probability of the circumscribed box (and at least the
// inscribed box, δ/√2).
func TestQuickDiskVsBox(t *testing.T) {
	f := func(lxs, lys, ss, ds uint16) bool {
		lx := float64(lxs%200)/100 - 1 // [-1, 1)
		ly := float64(lys%200)/100 - 1
		sigma := 0.05 + float64(ss%100)/100 // [0.05, 1.05)
		delta := 0.01 + float64(ds%100)/50  // [0.01, 2.01)
		disk := DiskProb2D(lx, ly, sigma, 0, 0, delta)
		if disk < 0 || disk > 1 {
			return false
		}
		// Monotone in delta.
		if DiskProb2D(lx, ly, sigma, 0, 0, delta/2) > disk+1e-9 {
			return false
		}
		outer := BoxProb2D(lx, ly, sigma, 0, 0, delta)
		inner := BoxProb2D(lx, ly, sigma, 0, 0, delta/math.Sqrt2)
		return inner <= disk+1e-6 && disk <= outer+1e-6
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
