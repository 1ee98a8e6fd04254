// Package rng implements the deterministic random-number substrate used by
// the simulators and benchmark harnesses.
//
// Reproducing the paper's Monte-Carlo experiments requires bit-for-bit
// reproducible randomness that is independent of the Go release in use and
// cheap to split into independent streams (one per simulated trial, so
// trials can run in parallel without coordination). The generator is
// xoshiro256** seeded through splitmix64, the combination recommended by
// Blackman and Vigna; stream splitting applies splitmix64 to a (seed,
// stream) pair so distinct streams are decorrelated by construction.
package rng

import (
	"math"
	"math/bits"
)

// Source is a deterministic xoshiro256** pseudo-random generator.
// It is not safe for concurrent use; create one Source per goroutine
// with Split.
type Source struct {
	s [4]uint64

	// Spare normal variate from the polar method.
	spare     float64
	haveSpare bool
}

// New returns a Source seeded from seed via splitmix64, which guarantees a
// well-mixed non-zero internal state for every seed value, including 0.
func New(seed uint64) *Source {
	var src Source
	src.Reseed(seed)
	return &src
}

// Reseed re-initializes the generator from seed, as if freshly created.
func (r *Source) Reseed(seed uint64) {
	sm := seed
	for i := range r.s {
		r.s[i] = splitmix64(&sm)
	}
	r.haveSpare = false
}

// Split returns a new Source whose stream is decorrelated from r and from
// every other Split result with a distinct id. The parent generator is not
// advanced, so the child stream depends only on (parent seed state, id).
func (r *Source) Split(id uint64) *Source {
	// Mix the current state with the stream id through splitmix64.
	mix := r.s[0] ^ bits.RotateLeft64(r.s[1], 13) ^ bits.RotateLeft64(r.s[2], 29) ^ r.s[3]
	sm := mix ^ (id * 0x9E3779B97F4A7C15)
	var child Source
	for i := range child.s {
		child.s[i] = splitmix64(&sm)
	}
	return &child
}

func splitmix64(state *uint64) uint64 {
	*state += 0x9E3779B97F4A7C15
	return Mix64(*state)
}

// Mix64 is splitmix64's output finalizer: a bijective 64-bit mix in which
// every input bit affects every output bit. The simulator's and the
// platform's work functions, and the per-task coins of the adversaries,
// are built on it.
func Mix64(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// Uint64 returns the next 64 pseudo-random bits (xoshiro256**).
func (r *Source) Uint64() uint64 {
	s := &r.s
	result := bits.RotateLeft64(s[1]*5, 7) * 9
	t := s[1] << 17
	s[2] ^= s[0]
	s[3] ^= s[1]
	s[1] ^= s[2]
	s[0] ^= s[3]
	s[2] ^= t
	s[3] = bits.RotateLeft64(s[3], 45)
	return result
}

// Float64 returns a uniform value in [0, 1) with 53 random bits.
func (r *Source) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniform int in [0, n). It panics if n <= 0.
// Bias is removed with Lemire's multiply-shift rejection method.
func (r *Source) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with non-positive n")
	}
	return int(r.Uint64n(uint64(n)))
}

// Uint64n returns a uniform uint64 in [0, n). It panics if n == 0.
func (r *Source) Uint64n(n uint64) uint64 {
	if n == 0 {
		panic("rng: Uint64n with zero n")
	}
	// Lemire's method: take the high 64 bits of x*n, rejecting the small
	// biased region of the low word.
	x := r.Uint64()
	hi, lo := bits.Mul64(x, n)
	if lo < n {
		thresh := -n % n
		for lo < thresh {
			x = r.Uint64()
			hi, lo = bits.Mul64(x, n)
		}
	}
	return hi
}

// Bool returns a fair random boolean.
func (r *Source) Bool() bool { return r.Uint64()&1 == 1 }

// Bernoulli returns true with probability p.
func (r *Source) Bernoulli(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return r.Float64() < p
}

// Shuffle randomizes the order of n elements using Fisher–Yates, invoking
// swap(i, j) for each exchange.
func (r *Source) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		if i != j {
			swap(i, j)
		}
	}
}

// ShuffleSlice permutes a in place by Fisher–Yates: Shuffle's draws in
// Shuffle's order, so a seed deals the same permutation, without its
// indirect call per element.
func ShuffleSlice[T any](r *Source, a []T) {
	for i := len(a) - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		a[i], a[j] = a[j], a[i]
	}
}

// Perm returns a random permutation of [0, n).
func (r *Source) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	ShuffleSlice(r, p)
	return p
}

// Binomial draws from Binomial(n, p) by inversion for small n·p and by
// direct Bernoulli summation otherwise. n must be >= 0.
func (r *Source) Binomial(n int, p float64) int {
	if n < 0 {
		panic("rng: Binomial with negative n")
	}
	if p <= 0 || n == 0 {
		return 0
	}
	if p >= 1 {
		return n
	}
	// Exploit symmetry so the expected count is at most n/2.
	if p > 0.5 {
		return n - r.Binomial(n, 1-p)
	}
	if float64(n)*p < 30 {
		// Geometric skipping (Devroye): count successes by jumping over
		// failures; expected work is O(n·p).
		lnq := math.Log1p(-p)
		count, i := 0, 0
		for {
			// Number of failures before the next success.
			g := int(math.Log(1-r.Float64())/lnq) + 1
			i += g
			if i > n {
				return count
			}
			count++
		}
	}
	// Dense regime: simple Bernoulli summation is still fast enough for the
	// trial sizes used here and is obviously correct.
	count := 0
	for i := 0; i < n; i++ {
		if r.Float64() < p {
			count++
		}
	}
	return count
}

// NormFloat64 returns a standard normal variate via Marsaglia's polar
// method.
func (r *Source) NormFloat64() float64 {
	if r.haveSpare {
		r.haveSpare = false
		return r.spare
	}
	for {
		u := 2*r.Float64() - 1
		v := 2*r.Float64() - 1
		s := u*u + v*v
		if s >= 1 || s == 0 {
			continue
		}
		f := math.Sqrt(-2 * math.Log(s) / s)
		r.spare, r.haveSpare = v*f, true
		return u * f
	}
}

// LogNormal returns a log-normal variate with the given mean and shape
// parameter sigma (the standard deviation of the underlying normal):
// heavier right tails as sigma grows, mean preserved exactly.
func (r *Source) LogNormal(mean, sigma float64) float64 {
	if mean <= 0 || sigma <= 0 {
		panic("rng: LogNormal requires positive mean and sigma")
	}
	mu := math.Log(mean) - sigma*sigma/2
	return math.Exp(mu + sigma*r.NormFloat64())
}

// Pareto returns a Pareto variate with the given mean and tail index
// alpha > 1 (smaller alpha ⇒ heavier tail ⇒ more extreme stragglers).
func (r *Source) Pareto(mean, alpha float64) float64 {
	if mean <= 0 || alpha <= 1 {
		panic("rng: Pareto requires positive mean and alpha > 1")
	}
	xm := mean * (alpha - 1) / alpha
	return xm / math.Pow(1-r.Float64(), 1/alpha)
}

// Exponential returns an exponential variate with the given mean.
func (r *Source) Exponential(mean float64) float64 {
	if mean <= 0 {
		panic("rng: Exponential requires positive mean")
	}
	return -mean * math.Log(1-r.Float64())
}

// Hypergeometric draws the number of "successes" when sampling draws items
// without replacement from a population of size population containing
// successes marked items. It runs in O(draws) time by sequentially updating
// the success probability, which is exact. It panics on invalid arguments.
func (r *Source) Hypergeometric(population, successes, draws int) int {
	if population < 0 || successes < 0 || successes > population ||
		draws < 0 || draws > population {
		panic("rng: invalid hypergeometric parameters")
	}
	// Symmetry reduction: drawing more than half the population is the
	// same as counting the successes left behind.
	if draws > population/2 {
		return successes - r.Hypergeometric(population, successes, population-draws)
	}
	hits := 0
	remPop, remSucc := population, successes
	for i := 0; i < draws; i++ {
		if remSucc == 0 {
			break
		}
		if r.Float64() < float64(remSucc)/float64(remPop) {
			hits++
			remSucc--
		}
		remPop--
	}
	return hits
}

// SampleWithoutReplacement fills dst with a uniform random k-subset of
// [0, n), in selection order (Floyd's algorithm). It panics if k > n.
func (r *Source) SampleWithoutReplacement(n, k int) []int {
	if k > n {
		panic("rng: sample larger than population")
	}
	chosen := make(map[int]struct{}, k)
	out := make([]int, 0, k)
	for j := n - k; j < n; j++ {
		t := r.Intn(j + 1)
		if _, dup := chosen[t]; dup {
			t = j
		}
		chosen[t] = struct{}{}
		out = append(out, t)
	}
	return out
}
