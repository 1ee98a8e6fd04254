package stats

import (
	"math"
	"testing"
	"testing/quick"

	"redundancy/internal/numeric"
	"redundancy/internal/rng"
)

func TestSummaryBasics(t *testing.T) {
	var s Summary
	s.AddN([]float64{2, 4, 4, 4, 5, 5, 7, 9})
	if s.N() != 8 {
		t.Fatalf("N = %d", s.N())
	}
	if !numeric.AlmostEqual(s.Mean(), 5, 1e-12) {
		t.Errorf("mean = %v", s.Mean())
	}
	// Population variance is 4; sample variance is 32/7.
	if !numeric.AlmostEqual(s.Variance(), 32.0/7.0, 1e-12) {
		t.Errorf("variance = %v", s.Variance())
	}
	if s.Min() != 2 || s.Max() != 9 {
		t.Errorf("min/max = %v/%v", s.Min(), s.Max())
	}
	if s.String() == "" {
		t.Error("empty String()")
	}
}

func TestSummaryEmptyAndSingle(t *testing.T) {
	var s Summary
	if s.Mean() != 0 || s.Variance() != 0 || s.StdErr() != 0 {
		t.Error("empty summary should be all zeros")
	}
	s.Add(3)
	if s.Variance() != 0 {
		t.Error("single observation has zero variance")
	}
	lo, hi := s.CI(0.95)
	if lo != 3 || hi != 3 {
		t.Error("CI of single observation should collapse")
	}
}

func TestSummaryMergeMatchesSequential(t *testing.T) {
	f := func(raw []float64, split uint8) bool {
		if len(raw) == 0 {
			return true
		}
		for i, v := range raw {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				raw[i] = float64(i)
			}
			// Keep magnitudes sane so tolerance comparisons are stable.
			raw[i] = math.Mod(raw[i], 1e6)
		}
		cut := int(split) % (len(raw) + 1)
		var whole, a, b Summary
		whole.AddN(raw)
		a.AddN(raw[:cut])
		b.AddN(raw[cut:])
		a.Merge(&b)
		return a.N() == whole.N() &&
			numeric.AlmostEqual(a.Mean(), whole.Mean(), 1e-9) &&
			numeric.AlmostEqual(a.Variance(), whole.Variance(), 1e-7) &&
			a.Min() == whole.Min() && a.Max() == whole.Max()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSummaryCICoverage(t *testing.T) {
	// The 95% normal CI for the mean of uniforms should cover 0.5 about
	// 95% of the time.
	r := rng.New(1)
	covered := 0
	const reps = 400
	for rep := 0; rep < reps; rep++ {
		var s Summary
		for i := 0; i < 200; i++ {
			s.Add(r.Float64())
		}
		lo, hi := s.CI(0.95)
		if lo <= 0.5 && 0.5 <= hi {
			covered++
		}
	}
	rate := float64(covered) / reps
	if rate < 0.90 || rate > 0.99 {
		t.Errorf("CI coverage = %v, want ~0.95", rate)
	}
}

func TestNormalQuantileKnownValues(t *testing.T) {
	cases := []struct{ p, want float64 }{
		{0.5, 0},
		{0.975, 1.959963984540054},
		{0.025, -1.959963984540054},
		{0.84134474606854293, 1},
		{1e-10, -6.361340902404056},
	}
	for _, c := range cases {
		got := NormalQuantile(c.p)
		if math.Abs(got-c.want) > 1e-8 {
			t.Errorf("NormalQuantile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
}

func TestNormalQuantileInvertsCDF(t *testing.T) {
	for p := 0.001; p < 1; p += 0.013 {
		if got := NormalCDF(NormalQuantile(p)); math.Abs(got-p) > 1e-12 {
			t.Errorf("CDF(Quantile(%v)) = %v", p, got)
		}
	}
}

func TestNormalQuantilePanics(t *testing.T) {
	for _, p := range []float64{0, 1, -0.5, 2} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NormalQuantile(%v) should panic", p)
				}
			}()
			NormalQuantile(p)
		}()
	}
}

func TestChiSquareCDFKnownValues(t *testing.T) {
	// Chi-square with 2 dof is Exponential(1/2): CDF(x) = 1 - e^{-x/2}.
	for _, x := range []float64{0.1, 1, 2, 5, 10} {
		want := 1 - math.Exp(-x/2)
		if got := ChiSquareCDF(x, 2); math.Abs(got-want) > 1e-12 {
			t.Errorf("ChiSquareCDF(%v, 2) = %v, want %v", x, got, want)
		}
	}
	// Median of chi-square with 1 dof is ~0.4549.
	if got := ChiSquareCDF(0.454936, 1); math.Abs(got-0.5) > 1e-4 {
		t.Errorf("chi2(1) median check: %v", got)
	}
	if ChiSquareCDF(-1, 3) != 0 {
		t.Error("negative x should give 0")
	}
}

func TestChiSquareSurvivalComplement(t *testing.T) {
	for k := 1; k <= 20; k += 3 {
		for _, x := range []float64{0.5, 2, 8, 30} {
			s := ChiSquareCDF(x, k) + ChiSquareSurvival(x, k)
			if math.Abs(s-1) > 1e-12 {
				t.Errorf("CDF+survival = %v at x=%v k=%d", s, x, k)
			}
		}
	}
}

func TestBinomialPMFSumsToOne(t *testing.T) {
	for _, n := range []int{1, 5, 30, 200} {
		for _, p := range []float64{0.01, 0.3, 0.5, 0.97} {
			var sum numeric.KahanSum
			for k := 0; k <= n; k++ {
				sum.Add(BinomialPMF(n, k, p))
			}
			if !numeric.AlmostEqual(sum.Value(), 1, 1e-10) {
				t.Errorf("PMF(n=%d,p=%v) sums to %v", n, p, sum.Value())
			}
		}
	}
}

func TestBinomialPMFEdges(t *testing.T) {
	if BinomialPMF(10, -1, 0.5) != 0 || BinomialPMF(10, 11, 0.5) != 0 {
		t.Error("out-of-range k should be 0")
	}
	if BinomialPMF(10, 0, 0) != 1 || BinomialPMF(10, 10, 1) != 1 {
		t.Error("degenerate p should concentrate mass")
	}
}

func TestBinomialCDF(t *testing.T) {
	if BinomialCDF(10, 10, 0.3) != 1 || BinomialCDF(10, -1, 0.3) != 0 {
		t.Error("CDF edge values wrong")
	}
	// Binomial(4, 1/2): P(X<=2) = (1+4+6)/16.
	if got := BinomialCDF(4, 2, 0.5); !numeric.AlmostEqual(got, 11.0/16.0, 1e-12) {
		t.Errorf("BinomialCDF(4,2,.5) = %v", got)
	}
}

func TestPoissonPMF(t *testing.T) {
	// Poisson(1): P(0)=P(1)=e^{-1}.
	e := math.Exp(-1)
	if !numeric.AlmostEqual(PoissonPMF(1, 0), e, 1e-12) ||
		!numeric.AlmostEqual(PoissonPMF(1, 1), e, 1e-12) {
		t.Error("Poisson(1) pmf wrong")
	}
	if PoissonPMF(1, -1) != 0 {
		t.Error("negative k should be 0")
	}
	if PoissonPMF(0, 0) != 1 {
		t.Error("Poisson(0) is a point mass at 0")
	}
}

func TestZeroTruncPoisson(t *testing.T) {
	z := ZeroTruncPoisson{Gamma: math.Ln2}
	// PMF sums to 1.
	var sum numeric.KahanSum
	for i := 1; i < 60; i++ {
		sum.Add(z.PMF(i))
	}
	if !numeric.AlmostEqual(sum.Value(), 1, 1e-12) {
		t.Errorf("ZTP pmf sums to %v", sum.Value())
	}
	if z.PMF(0) != 0 {
		t.Error("ZTP must put no mass at 0")
	}
	// Mean: γ e^γ/(e^γ-1) = ln2·2/1.
	if !numeric.AlmostEqual(z.Mean(), 2*math.Ln2, 1e-12) {
		t.Errorf("ZTP mean = %v", z.Mean())
	}
	// Tail consistency with PMF.
	for m := 1; m < 10; m++ {
		var tail numeric.KahanSum
		for i := m; i < 80; i++ {
			tail.Add(z.PMF(i))
		}
		if !numeric.AlmostEqual(z.TailProb(m), tail.Value(), 1e-10) {
			t.Errorf("TailProb(%d) = %v, pmf sum = %v", m, z.TailProb(m), tail.Value())
		}
	}
}

func TestChiSquareGOFUniform(t *testing.T) {
	// Uniform draws binned uniformly should not be rejected.
	r := rng.New(12)
	const bins, n = 10, 50_000
	obs := make([]int, bins)
	for i := 0; i < n; i++ {
		obs[r.Intn(bins)]++
	}
	exp := make([]float64, bins)
	for i := range exp {
		exp[i] = float64(n) / bins
	}
	stat, p := ChiSquareGOF(obs, exp, 0)
	if p < 0.001 {
		t.Errorf("uniform sample rejected: stat=%v p=%v", stat, p)
	}
	// A grossly skewed sample should be rejected.
	obs[0] += 2000
	obs[1] -= 2000
	_, p = ChiSquareGOF(obs, exp, 0)
	if p > 1e-6 {
		t.Errorf("skewed sample not rejected: p=%v", p)
	}
}

func TestWilsonInterval(t *testing.T) {
	p := Proportion{Successes: 50, Trials: 100}
	lo, hi := p.Wilson(0.95)
	if !(lo < 0.5 && 0.5 < hi) {
		t.Errorf("Wilson interval [%v,%v] should contain 0.5", lo, hi)
	}
	if lo < 0.40 || hi > 0.61 {
		t.Errorf("Wilson interval [%v,%v] too wide", lo, hi)
	}
	// Degenerate cases stay within [0,1].
	p = Proportion{Successes: 0, Trials: 10}
	lo, hi = p.Wilson(0.95)
	if lo > 1e-12 || hi <= 0 || hi >= 1 {
		t.Errorf("zero-success interval [%v,%v]", lo, hi)
	}
	p = Proportion{}
	lo, hi = p.Wilson(0.95)
	if lo != 0 || hi != 1 {
		t.Errorf("no-trials interval should be [0,1], got [%v,%v]", lo, hi)
	}
	if p.Estimate() != 0 {
		t.Error("no-trials estimate should be 0")
	}
}

func TestRegularizedGammaEdges(t *testing.T) {
	if got := regularizedGammaP(3, 0); got != 0 {
		t.Errorf("P(3,0) = %v", got)
	}
	// Large-x branch (continued fraction): P(1, x) = 1 - e^{-x}.
	for _, x := range []float64{5, 20, 100} {
		want := 1 - math.Exp(-x)
		if got := regularizedGammaP(1, x); math.Abs(got-want) > 1e-12 {
			t.Errorf("P(1,%v) = %v, want %v", x, got, want)
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("invalid args should panic")
		}
	}()
	regularizedGammaP(-1, 2)
}

func TestChiSquarePanics(t *testing.T) {
	for _, f := range []func(){
		func() { ChiSquareCDF(1, 0) },
		func() { ChiSquareGOF([]int{1}, []float64{1, 2}, 0) },
		func() { ChiSquareGOF([]int{1, 2}, []float64{1, 2}, 5) },
		func() { ChiSquareGOF([]int{1, 2, 3}, []float64{1, 0, 1}, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			f()
		}()
	}
}
