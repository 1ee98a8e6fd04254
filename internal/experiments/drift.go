package experiments

import (
	"fmt"
	"math/rand"

	"redundancy/internal/adapt"
	"redundancy/internal/agg"
	"redundancy/internal/plan"
	"redundancy/internal/report"
)

// DriftStep is one segment of the drifting-adversary scenario: the
// coalition holds share P of the assignments while Observations credited
// assignments flow through verification.
type DriftStep struct {
	P            float64
	Observations int
}

// DriftRow is one checkpoint of the drift experiment: after a segment's
// evidence lands, the adaptive controller re-plans and both plans are
// scored at the segment's *true* adversary share.
type DriftRow struct {
	Step      int
	TrueP     float64
	PHat      float64
	Upper     float64
	Revisions int
	// StaticMinP and AdaptiveMinP are the weakest per-class detection
	// guarantees min_k P_{k,p} of the untouched and the revised plan at
	// the true adversary share.
	StaticMinP   float64
	AdaptiveMinP float64
	// Factor is the adaptive plan's current redundancy factor — the price
	// paid for holding the guarantee.
	Factor float64
}

// Drift reproduces the control plane's central claim offline: a static
// plan tuned for p=0 degrades as the true adversary share drifts upward,
// while an adaptive plan — re-planned from the same evidence stream a
// live supervisor would see — holds min_k P_{k,p} at or above ε.
//
// Two identical Balanced(n, eps) plans are built. Per segment, bad
// results arrive as seeded Bernoulli draws at the segment's true p and
// feed a decaying Wilson estimator (decay < 1 lets p̂ track the drift
// instead of averaging over the calm era); dispatched assignments
// consume tasks in plan order, so later revisions have fewer eligible
// tasks to promote and leans on minted ringers — exactly the live
// supervisor's constraint. At each segment boundary the controller
// revises the adaptive plan at the estimate's upper bound; the static
// plan is never touched.
func Drift(n int, eps float64, steps []DriftStep, decay float64, seed uint64) ([]DriftRow, error) {
	if len(steps) == 0 {
		return nil, fmt.Errorf("experiments: drift needs at least one step")
	}
	static, err := plan.Balanced(n, eps)
	if err != nil {
		return nil, err
	}
	adaptive, err := plan.Balanced(n, eps)
	if err != nil {
		return nil, err
	}
	est := adapt.NewEstimator(adapt.DefaultZ, decay)
	rng := rand.New(rand.NewSource(int64(seed)))

	// issuedCopies tracks how much of the plan has been dispatched; tasks
	// are consumed in plan order and stop being promotable once touched.
	issuedCopies := 0
	revisions := 0
	var rows []DriftRow
	for i, step := range steps {
		if !(step.P >= 0 && step.P < 1) {
			return nil, fmt.Errorf("experiments: drift step %d: p=%v out of range", i, step.P)
		}
		for o := 0; o < step.Observations; o++ {
			bad := 0
			if rng.Float64() < step.P {
				bad = 1
			}
			est.Observe(1, bad)
		}
		issuedCopies += step.Observations

		e := est.Estimate()
		var tasks []adapt.TaskState
		consumed := 0
		for _, s := range adaptive.Tasks() {
			eligible := !s.Ringer && consumed >= issuedCopies
			consumed += s.Copies
			tasks = append(tasks, adapt.TaskState{
				ID: s.ID, Copies: s.Copies, Ringer: s.Ringer, Eligible: eligible,
			})
		}
		rev, _ := adapt.Replan(tasks, adaptive.NextTaskID(), eps, e.Upper)
		if !rev.Empty() {
			if err := adaptive.ApplyRevision(rev); err != nil {
				return nil, fmt.Errorf("experiments: drift step %d: %w", i, err)
			}
			revisions++
		}
		staticMin, _, _ := agg.MinDetection(static, step.P)
		adaptiveMin, _, _ := agg.MinDetection(adaptive, step.P)
		rows = append(rows, DriftRow{
			Step:         i + 1,
			TrueP:        step.P,
			PHat:         e.PHat,
			Upper:        e.Upper,
			Revisions:    revisions,
			StaticMinP:   staticMin,
			AdaptiveMinP: adaptiveMin,
			Factor:       adaptive.RedundancyFactor(),
		})
	}
	return rows, nil
}

// DefaultDriftSteps is the canonical drifting-adversary scenario: a calm
// 2% era followed by an aggressive 15% era, with obs credited assignments
// observed per segment.
func DefaultDriftSteps(obs int) []DriftStep {
	return []DriftStep{
		{P: 0.02, Observations: obs},
		{P: 0.02, Observations: obs},
		{P: 0.02, Observations: obs},
		{P: 0.15, Observations: obs},
		{P: 0.15, Observations: obs},
		{P: 0.15, Observations: obs},
	}
}

// DriftTable renders the drift experiment: static degrades below ε once
// the adversary drifts, adaptive holds the line.
func DriftTable(n int, eps float64, steps []DriftStep, decay float64, seed uint64) (*report.Table, error) {
	rows, err := Drift(n, eps, steps, decay, seed)
	if err != nil {
		return nil, err
	}
	t := report.NewTable(
		fmt.Sprintf("Drifting adversary: static vs adaptive min_k P(k,p) (N=%d, ε=%g, decay=%g)", n, eps, decay),
		"step", "true p", "p̂", "upper", "revisions", "static min P", "adaptive min P", "factor")
	for _, r := range rows {
		t.AddRowStrings(
			fmt.Sprintf("%d", r.Step), fmt.Sprintf("%.2f", r.TrueP),
			fmt.Sprintf("%.4f", r.PHat), fmt.Sprintf("%.4f", r.Upper),
			fmt.Sprintf("%d", r.Revisions),
			fmt.Sprintf("%.4f", r.StaticMinP), fmt.Sprintf("%.4f", r.AdaptiveMinP),
			fmt.Sprintf("%.4f", r.Factor))
	}
	return t, nil
}
