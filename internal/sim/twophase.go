package sim

import (
	"fmt"

	"redundancy/internal/par"
	"redundancy/internal/rng"
	"redundancy/internal/stats"
)

// TwoPhaseFullyControlled runs one trial of the Appendix-A experiment:
// n tasks distributed under two-phase simple redundancy (each task once per
// phase), with an adversary assigned exactly round(p·n) work units in each
// phase. It returns the number of tasks of which she received both copies.
//
// As in the appendix, her phase-one tasks can be taken to be a fixed set
// without loss of generality; her phase-two units are a random subset,
// every one equally likely, so the overlap is hypergeometric with mean ℓ²/n ≈ p²·n.
func TwoPhaseFullyControlled(n int, p float64, r *rng.Source) int {
	if n < 1 {
		panic("sim: two-phase experiment needs at least one task")
	}
	if p < 0 || p > 1 {
		panic("sim: proportion out of range")
	}
	l := int(float64(n)*p + 0.5)
	if l == 0 {
		return 0
	}
	// Her phase-one holdings are tasks 0..l-1; the overlap of a random
	// l-subset of all n tasks with that set is hypergeometric.
	return r.Hypergeometric(n, l, l)
}

// TwoPhaseResult summarizes a replicated Appendix-A experiment.
type TwoPhaseResult struct {
	N          int
	Proportion float64
	Trials     int
	// Observed is the distribution of fully-controlled task counts.
	Observed stats.Summary
	// Expected is the appendix's approximation p²·n.
	Expected float64
	// FreeCheatRate is the fraction of trials in which the adversary fully
	// controlled at least one task (and could cheat with impunity).
	FreeCheatRate float64
}

// TwoPhaseExperiment replicates the Appendix-A experiment trials times.
// Trials run in parallel across CPUs; each trial's random stream depends
// only on (seed, trial index) and the fold is in trial order, so the result
// is identical at any GOMAXPROCS.
func TwoPhaseExperiment(n int, p float64, trials int, seed uint64) (*TwoPhaseResult, error) {
	if trials < 1 {
		return nil, fmt.Errorf("sim: need at least one trial")
	}
	root := rng.New(seed)
	res := &TwoPhaseResult{
		N:          n,
		Proportion: p,
		Trials:     trials,
		Expected:   p * p * float64(n),
	}
	counts := par.MapSlice(trials, 0, func(t int) int {
		return TwoPhaseFullyControlled(n, p, root.Split(uint64(t)))
	})
	free := 0
	for _, c := range counts {
		res.Observed.Add(float64(c))
		if c > 0 {
			free++
		}
	}
	res.FreeCheatRate = float64(free) / float64(trials)
	return res, nil
}
