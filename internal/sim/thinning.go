package sim

import (
	"fmt"

	"redundancy/internal/adversary"
	"redundancy/internal/plan"
	"redundancy/internal/rng"
)

// ThinningReport aggregates a binomial-thinning Monte-Carlo trial.
type ThinningReport struct {
	Tasks    int
	PerTuple []PerTuple
}

// Thinning runs one fast Monte-Carlo trial of the exact probabilistic model
// used in the paper's proofs (Propositions 2 and 3): each copy of each task
// independently lands with the adversary with probability p, so the number
// of copies she holds of a multiplicity-i task is Binomial(i, p). She
// cheats according to the strategy; the cheat goes undetected only when she
// holds every copy of a non-ringer task.
//
// This samples the same law the full event simulation converges to, at a
// fraction of the cost, and is what the high-replication closed-form
// cross-checks use.
func Thinning(specs []plan.TaskSpec, p float64, strat adversary.Strategy, seed uint64) (*ThinningReport, error) {
	if p < 0 || p >= 1 {
		return nil, fmt.Errorf("sim: thinning proportion must lie in [0,1), got %v", p)
	}
	if strat == nil {
		strat = adversary.Never{}
	}
	r := rng.New(seed)
	maxCopies := 0
	for _, s := range specs {
		if s.Copies > maxCopies {
			maxCopies = s.Copies
		}
	}
	rep := &ThinningReport{
		Tasks:    len(specs),
		PerTuple: make([]PerTuple, maxCopies),
	}
	for k := range rep.PerTuple {
		rep.PerTuple[k].K = k + 1
	}
	for _, s := range specs {
		k := r.Binomial(s.Copies, p)
		if k == 0 {
			continue
		}
		pt := &rep.PerTuple[k-1]
		pt.Held++
		if !strat.ShouldCheat(k) {
			continue
		}
		pt.Cheated++
		if k < s.Copies || s.Ringer {
			pt.Detected++
		} else {
			pt.Undetected++
		}
	}
	return rep, nil
}

// Merge adds o's tallies into r (reports must describe the same plan shape;
// the longer tuple vector wins).
func (r *ThinningReport) Merge(o *ThinningReport) {
	r.Tasks += o.Tasks
	for len(r.PerTuple) < len(o.PerTuple) {
		r.PerTuple = append(r.PerTuple, PerTuple{K: len(r.PerTuple) + 1})
	}
	for i, pt := range o.PerTuple {
		r.PerTuple[i].Held += pt.Held
		r.PerTuple[i].Cheated += pt.Cheated
		r.PerTuple[i].Detected += pt.Detected
		r.PerTuple[i].Undetected += pt.Undetected
	}
}
