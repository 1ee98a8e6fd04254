package stats

import (
	"math"

	"redundancy/internal/numeric"
)

// BinomialPMF returns P(X = k) for X ~ Binomial(n, p), computed in the log
// domain for stability at large n.
func BinomialPMF(n, k int, p float64) float64 {
	if k < 0 || k > n {
		return 0
	}
	if p <= 0 {
		if k == 0 {
			return 1
		}
		return 0
	}
	if p >= 1 {
		if k == n {
			return 1
		}
		return 0
	}
	lp := numeric.LogBinomial(n, k) +
		float64(k)*math.Log(p) + float64(n-k)*math.Log1p(-p)
	return math.Exp(lp)
}

// BinomialCDF returns P(X <= k) for X ~ Binomial(n, p) by direct summation.
func BinomialCDF(n, k int, p float64) float64 {
	if k < 0 {
		return 0
	}
	if k >= n {
		return 1
	}
	var sum numeric.KahanSum
	for i := 0; i <= k; i++ {
		sum.Add(BinomialPMF(n, i, p))
	}
	return numeric.Clamp(sum.Value(), 0, 1)
}

// PoissonPMF returns P(X = k) for X ~ Poisson(λ).
func PoissonPMF(lambda float64, k int) float64 {
	if k < 0 || lambda < 0 {
		return 0
	}
	if lambda == 0 {
		if k == 0 {
			return 1
		}
		return 0
	}
	return math.Exp(-lambda + numeric.PoissonTermLog(lambda, k))
}

// ZeroTruncPoisson is the zero-truncated Poisson distribution with rate γ:
// P(X = i) = γ^i / (i!·(e^γ − 1)) for i >= 1. Theorem 1 of the paper
// observes that the Balanced distribution is exactly N times this law with
// γ = ln(1/(1−ε)).
type ZeroTruncPoisson struct {
	Gamma float64
}

// PMF returns P(X = i); zero for i < 1.
func (z ZeroTruncPoisson) PMF(i int) float64 {
	if i < 1 || z.Gamma <= 0 {
		return 0
	}
	return math.Exp(numeric.PoissonTermLog(z.Gamma, i)) / math.Expm1(z.Gamma)
}

// Mean returns E[X] = γ·e^γ / (e^γ − 1).
func (z ZeroTruncPoisson) Mean() float64 {
	return z.Gamma * math.Exp(z.Gamma) / math.Expm1(z.Gamma)
}

// TailProb returns P(X >= m).
func (z ZeroTruncPoisson) TailProb(m int) float64 {
	if m <= 1 {
		return 1
	}
	return math.Exp(numeric.PoissonTailLog(z.Gamma, m)) / math.Expm1(z.Gamma)
}

// ChiSquareGOF performs a chi-square goodness-of-fit test of observed counts
// against expected counts (which must be positive and of equal length). It
// returns the test statistic and p-value with len(observed)−1−ddof degrees
// of freedom.
func ChiSquareGOF(observed []int, expected []float64, ddof int) (stat, pvalue float64) {
	if len(observed) != len(expected) || len(observed) == 0 {
		panic("stats: ChiSquareGOF length mismatch")
	}
	df := len(observed) - 1 - ddof
	if df < 1 {
		panic("stats: ChiSquareGOF with non-positive degrees of freedom")
	}
	var sum numeric.KahanSum
	for i, o := range observed {
		e := expected[i]
		if e <= 0 {
			panic("stats: ChiSquareGOF requires positive expected counts")
		}
		d := float64(o) - e
		sum.Add(d * d / e)
	}
	stat = sum.Value()
	return stat, ChiSquareSurvival(stat, df)
}
