// Package stats provides the statistics substrate for the Monte-Carlo
// experiments: streaming summary statistics, confidence intervals, normal
// and chi-square distribution functions, discrete distributions (binomial,
// Poisson and the zero-truncated Poisson underlying the Balanced
// distribution), a mergeable quantile sketch and the windowed clone
// threshold on it, and a chi-square goodness-of-fit test.
package stats

import (
	"fmt"
	"math"
)

// Summary accumulates streaming sample moments using Welford's algorithm,
// which is numerically stable for long runs. The zero value is an empty
// summary ready for use.
type Summary struct {
	n    int
	mean float64
	m2   float64
	min  float64
	max  float64
}

// Add incorporates observation x.
func (s *Summary) Add(x float64) {
	s.n++
	if s.n == 1 {
		s.min, s.max = x, x
	} else {
		if x < s.min {
			s.min = x
		}
		if x > s.max {
			s.max = x
		}
	}
	delta := x - s.mean
	s.mean += delta / float64(s.n)
	s.m2 += delta * (x - s.mean)
}

// AddN incorporates every value of xs.
func (s *Summary) AddN(xs []float64) {
	for _, x := range xs {
		s.Add(x)
	}
}

// N returns the number of observations.
func (s *Summary) N() int { return s.n }

// Mean returns the sample mean (0 for an empty summary).
func (s *Summary) Mean() float64 { return s.mean }

// Variance returns the unbiased sample variance (0 with fewer than two
// observations).
func (s *Summary) Variance() float64 {
	if s.n < 2 {
		return 0
	}
	return s.m2 / float64(s.n-1)
}

// StdDev returns the sample standard deviation.
func (s *Summary) StdDev() float64 { return math.Sqrt(s.Variance()) }

// StdErr returns the standard error of the mean.
func (s *Summary) StdErr() float64 {
	if s.n == 0 {
		return 0
	}
	return s.StdDev() / math.Sqrt(float64(s.n))
}

// Min returns the smallest observation (0 if empty).
func (s *Summary) Min() float64 { return s.min }

// Max returns the largest observation (0 if empty).
func (s *Summary) Max() float64 { return s.max }

// CI returns a normal-approximation confidence interval for the mean at the
// given confidence level (e.g. 0.95). With fewer than two observations the
// interval collapses to the mean.
func (s *Summary) CI(level float64) (lo, hi float64) {
	if s.n < 2 {
		return s.mean, s.mean
	}
	z := NormalQuantile(0.5 + level/2)
	half := z * s.StdErr()
	return s.mean - half, s.mean + half
}

// String renders a compact human-readable summary.
func (s *Summary) String() string {
	return fmt.Sprintf("n=%d mean=%.6g sd=%.4g min=%.6g max=%.6g",
		s.n, s.Mean(), s.StdDev(), s.min, s.max)
}

// Merge combines another summary into s (Chan et al. parallel update),
// as if every observation of o had been Added to s.
func (s *Summary) Merge(o *Summary) {
	if o.n == 0 {
		return
	}
	if s.n == 0 {
		*s = *o
		return
	}
	n := s.n + o.n
	delta := o.mean - s.mean
	mean := s.mean + delta*float64(o.n)/float64(n)
	m2 := s.m2 + o.m2 + delta*delta*float64(s.n)*float64(o.n)/float64(n)
	if o.min < s.min {
		s.min = o.min
	}
	if o.max > s.max {
		s.max = o.max
	}
	s.n, s.mean, s.m2 = n, mean, m2
}

// Proportion summarizes a Bernoulli sample: k successes out of n trials.
type Proportion struct {
	Successes int
	Trials    int
}

// Estimate returns the sample proportion (0 when there are no trials).
func (p Proportion) Estimate() float64 {
	if p.Trials == 0 {
		return 0
	}
	return float64(p.Successes) / float64(p.Trials)
}

// Wilson returns the Wilson score interval at the given confidence level,
// which behaves sensibly even for proportions near 0 or 1 (exactly the
// regime of high detection probabilities).
func (p Proportion) Wilson(level float64) (lo, hi float64) {
	if p.Trials == 0 {
		return 0, 1
	}
	z := NormalQuantile(0.5 + level/2)
	n := float64(p.Trials)
	phat := p.Estimate()
	z2 := z * z
	denom := 1 + z2/n
	center := (phat + z2/(2*n)) / denom
	half := z / denom * math.Sqrt(phat*(1-phat)/n+z2/(4*n*n))
	return math.Max(0, center-half), math.Min(1, center+half)
}
