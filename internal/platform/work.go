package platform

import (
	"fmt"
	"math"
	"sort"

	"redundancy/internal/rng"
)

// WorkFunc is an actual computation executed by workers: deterministic in
// (seed, iters) so the supervisor can precompute ringer results and tests
// can check certified values. iters is the work amount in function-defined
// iterations; every registered WorkFunc tolerates iters <= 0 by doing no
// iterations and returning its base value.
type WorkFunc func(seed uint64, iters int) uint64

// workRegistry maps work-kind names to implementations.
var workRegistry = map[string]WorkFunc{
	"hashchain":  HashChain,
	"primecount": PrimeCount,
	"collatz":    CollatzMax,
	"logistic":   Logistic,
}

// Work looks up a registered work function by kind name (one of
// WorkKinds); an unknown kind returns a non-nil error and a nil WorkFunc.
func Work(kind string) (WorkFunc, error) {
	f, ok := workRegistry[kind]
	if !ok {
		return nil, fmt.Errorf("platform: unknown work kind %q", kind)
	}
	return f, nil
}

// WorkKinds returns the registered kind names in sorted order; the slice
// is freshly allocated and safe to modify.
func WorkKinds() []string {
	out := make([]string, 0, len(workRegistry))
	for k := range workRegistry {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// HashChain iterates a 64-bit mixing function iters times from seed — a
// stand-in for the per-task numerical kernels of real volunteer projects.
// With iters <= 0 it returns seed unchanged.
func HashChain(seed uint64, iters int) uint64 {
	z := seed
	for i := 0; i < iters; i++ {
		z = rng.Mix64(z + 0x9E3779B97F4A7C15)
	}
	return z
}

// PrimeCount counts primes in [seed mod 10^6, seed mod 10^6 + iters) by
// trial division — deliberately CPU-bound "scientific" work. With
// iters <= 0 the interval is empty and the count is 0.
func PrimeCount(seed uint64, iters int) uint64 {
	lo := seed % 1_000_000
	var count uint64
	for n := lo; n < lo+uint64(iters); n++ {
		if isPrime(n) {
			count++
		}
	}
	return count
}

func isPrime(n uint64) bool {
	if n < 2 {
		return false
	}
	if n%2 == 0 {
		return n == 2
	}
	for d := uint64(3); d*d <= n; d += 2 {
		if n%d == 0 {
			return false
		}
	}
	return true
}

// CollatzMax returns the maximum value reached by the Collatz trajectories
// of iters consecutive starting points from seed mod 10^6 + 1. With
// iters <= 0 no trajectory runs and the result is 1.
func CollatzMax(seed uint64, iters int) uint64 {
	start := seed%1_000_000 + 1
	var max uint64
	for s := start; s < start+uint64(iters); s++ {
		n := s
		for n != 1 {
			if n > max {
				max = n
			}
			if n%2 == 0 {
				n /= 2
			} else {
				n = 3*n + 1
			}
		}
	}
	if max == 0 {
		max = 1
	}
	return max
}

// Logistic iterates the chaotic logistic map x ← r·x·(1−x) (r = 3.99)
// from a seed-derived starting point and returns the float64 bit pattern
// of the final state — a floating-point-valued workload whose results
// real-world heterogeneous hosts would reproduce only to a tolerance,
// motivating quantized result matching (SupervisorConfig.ResultDigits).
// With iters <= 0 it returns the bits of the starting point itself.
func Logistic(seed uint64, iters int) uint64 {
	x := 0.1 + float64(seed%1000)/2000.0 // in (0.1, 0.6)
	for i := 0; i < iters; i++ {
		x = 3.99 * x * (1 - x)
	}
	return math.Float64bits(x)
}

// TaskSeed derives the per-task payload seed from the task ID (0-based);
// supervisor and tests share it so both sides agree on every payload
// without shipping data. It is a pure function — equal IDs always map to
// equal seeds.
func TaskSeed(taskID int) uint64 {
	return uint64(taskID)*0x9E3779B97F4A7C15 + 0x1234567
}
