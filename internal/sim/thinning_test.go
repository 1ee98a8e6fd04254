package sim

import (
	"math"
	"testing"

	"redundancy/internal/adversary"
	"redundancy/internal/dist"
	"redundancy/internal/plan"
	"redundancy/internal/rng"
	"redundancy/internal/stats"
)

func TestThinningValidation(t *testing.T) {
	p, err := plan.Balanced(1000, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Thinning(p.Tasks(), -0.1, adversary.Always{}, 1); err == nil {
		t.Error("negative p accepted")
	}
	if _, err := Thinning(p.Tasks(), 1, adversary.Always{}, 1); err == nil {
		t.Error("p=1 accepted")
	}
	// Nil strategy behaves as honest.
	rep, err := Thinning(p.Tasks(), 0.2, nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, pt := range rep.PerTuple {
		if pt.Cheated != 0 {
			t.Error("nil strategy cheated")
		}
	}
}

func TestThinningInvariants(t *testing.T) {
	p, err := plan.Balanced(50_000, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Thinning(p.Tasks(), 0.15, adversary.Always{}, 9)
	if err != nil {
		t.Fatal(err)
	}
	held := 0
	for _, pt := range rep.PerTuple {
		if pt.Detected+pt.Undetected != pt.Cheated {
			t.Errorf("k=%d inconsistent tallies", pt.K)
		}
		held += pt.Held
	}
	if held == 0 || held > rep.Tasks {
		t.Errorf("held %d of %d tasks", held, rep.Tasks)
	}
}

// TestThinningMatchesProposition3 validates P_{k,p} = 1 − (1−ε)^{1−p} for
// the Balanced distribution over many replications — the statistical twin
// of the algebraic test in package dist.
func TestThinningMatchesProposition3(t *testing.T) {
	const eps, p = 0.5, 0.2
	pl, err := plan.Balanced(100_000, eps)
	if err != nil {
		t.Fatal(err)
	}
	specs := pl.Tasks()
	var agg [3]stats.Proportion
	for trial := 0; trial < 10; trial++ {
		rep, err := Thinning(specs, p, adversary.Always{}, uint64(trial))
		if err != nil {
			t.Fatal(err)
		}
		for k := 1; k <= len(agg) && k <= len(rep.PerTuple); k++ {
			agg[k-1].Successes += rep.PerTuple[k-1].Detected
			agg[k-1].Trials += rep.PerTuple[k-1].Cheated
		}
	}
	want := dist.BalancedDetectionAt(eps, p)
	for k := 1; k <= 3; k++ {
		lo, hi := agg[k-1].Wilson(0.999)
		if want < lo || want > hi {
			t.Errorf("k=%d: empirical %.4f (n=%d) outside CI [%.4f,%.4f] around %.4f",
				k, agg[k-1].Estimate(), agg[k-1].Trials, lo, hi, want)
		}
	}
}

// TestThinningMatchesGolleStubblebine validates the GS closed form
// P_{k,p} = 1 − (1 − c(1−p))^{k+1} against the sampler.
func TestThinningMatchesGolleStubblebine(t *testing.T) {
	const eps, p = 0.5, 0.1
	c := dist.GolleStubblebineC(eps, 0)
	d, err := dist.GolleStubblebineForThreshold(100_000, eps)
	if err != nil {
		t.Fatal(err)
	}
	pl, err := plan.FromDistribution(d, eps)
	if err != nil {
		t.Fatal(err)
	}
	specs := pl.Tasks()
	var agg [2]stats.Proportion
	for trial := 0; trial < 10; trial++ {
		rep, err := Thinning(specs, p, adversary.Always{}, 1000+uint64(trial))
		if err != nil {
			t.Fatal(err)
		}
		for k := 1; k <= len(agg) && k <= len(rep.PerTuple); k++ {
			agg[k-1].Successes += rep.PerTuple[k-1].Detected
			agg[k-1].Trials += rep.PerTuple[k-1].Cheated
		}
	}
	for k := 1; k <= 2; k++ {
		want := dist.GolleStubblebineDetectionAt(c, k, p)
		lo, hi := agg[k-1].Wilson(0.999)
		if want < lo || want > hi {
			t.Errorf("k=%d: empirical %.4f (n=%d) outside CI [%.4f,%.4f] around %.4f",
				k, agg[k-1].Estimate(), agg[k-1].Trials, lo, hi, want)
		}
	}
}

func TestThinningMerge(t *testing.T) {
	a := &ThinningReport{Tasks: 10, PerTuple: []PerTuple{{K: 1, Held: 3, Cheated: 2, Detected: 1, Undetected: 1}}}
	b := &ThinningReport{Tasks: 5, PerTuple: []PerTuple{
		{K: 1, Held: 1, Cheated: 1, Detected: 1},
		{K: 2, Held: 2, Cheated: 2, Detected: 2},
	}}
	a.Merge(b)
	if a.Tasks != 15 || len(a.PerTuple) != 2 {
		t.Fatalf("merge shape wrong: %+v", a)
	}
	if a.PerTuple[0].Held != 4 || a.PerTuple[0].Detected != 2 || a.PerTuple[1].K != 2 {
		t.Errorf("merge tallies wrong: %+v", a.PerTuple)
	}
	if r, ok := DetectionRate(a.PerTuple, 1); !ok || math.Abs(r-2.0/3.0) > 1e-12 {
		t.Errorf("rate = %v ok=%v", r, ok)
	}
	if _, ok := DetectionRate(a.PerTuple, 5); ok {
		t.Error("missing k should be !ok")
	}
}

func TestTwoPhaseExpectedOverlap(t *testing.T) {
	// Appendix A: expected fully-controlled tasks is ≈ p²·N.
	const n, p, trials = 10_000, 0.05, 400
	res, err := TwoPhaseExperiment(n, p, trials, 77)
	if err != nil {
		t.Fatal(err)
	}
	want := p * p * n // 25
	se := res.Observed.StdErr()
	if math.Abs(res.Observed.Mean()-want) > 5*se+0.5 {
		t.Errorf("mean overlap %v ± %v, want ≈%v", res.Observed.Mean(), se, want)
	}
	if math.Abs(res.Expected-want) > 1e-9 {
		t.Errorf("Expected field %v", res.Expected)
	}
	if res.FreeCheatRate < 0.99 {
		t.Errorf("with E=25 controlled tasks the free-cheat rate should be ~1, got %v",
			res.FreeCheatRate)
	}
}

func TestTwoPhaseSqrtNThreshold(t *testing.T) {
	// At p = 1/sqrt(N) the expected overlap is 1, so a free cheat happens
	// in a substantial fraction of runs; at p far below it almost never.
	const n = 10_000
	at, err := TwoPhaseExperiment(n, dist.SqrtNClaimThreshold(n), 500, 5)
	if err != nil {
		t.Fatal(err)
	}
	if at.FreeCheatRate < 0.45 || at.FreeCheatRate > 0.80 {
		t.Errorf("rate at 1/sqrt(N) = %v, want ≈1−1/e ≈ 0.63", at.FreeCheatRate)
	}
	below, err := TwoPhaseExperiment(n, 0.001, 500, 6)
	if err != nil {
		t.Fatal(err)
	}
	if below.FreeCheatRate > 0.05 {
		t.Errorf("rate at p=0.001 = %v, want ≈0.01", below.FreeCheatRate)
	}
}

func TestTwoPhaseEdges(t *testing.T) {
	r := rng.New(1)
	if TwoPhaseFullyControlled(100, 0, r) != 0 {
		t.Error("p=0 should control nothing")
	}
	if TwoPhaseFullyControlled(100, 1, r) != 100 {
		t.Error("p=1 should control everything")
	}
	if _, err := TwoPhaseExperiment(100, 0.1, 0, 1); err == nil {
		t.Error("zero trials accepted")
	}
	for _, f := range []func(){
		func() { TwoPhaseFullyControlled(0, 0.1, r) },
		func() { TwoPhaseFullyControlled(10, -0.1, r) },
		func() { TwoPhaseFullyControlled(10, 1.5, r) },
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

// TestThinningHoldingsMatchAdversaryOdds ties the sampler's holding counts
// to the closed-form expectations of dist.AdversaryOdds: the observed
// number of tasks held at exactly k copies matches E[#k-holdings] =
// Σ_i C(i,k)p^k(1−p)^{i−k}·x_i.
func TestThinningHoldingsMatchAdversaryOdds(t *testing.T) {
	const eps, p = 0.5, 0.12
	d, err := dist.Balanced(100_000, eps)
	if err != nil {
		t.Fatal(err)
	}
	pl, err := plan.FromDistribution(d, eps)
	if err != nil {
		t.Fatal(err)
	}
	specs := pl.Tasks()
	odds := dist.AdversaryOdds(d, p, 3)
	var held [3]stats.Summary
	for trial := 0; trial < 12; trial++ {
		rep, err := Thinning(specs, p, nil, 9000+uint64(trial))
		if err != nil {
			t.Fatal(err)
		}
		for k := 0; k < 3 && k < len(rep.PerTuple); k++ {
			held[k].Add(float64(rep.PerTuple[k].Held))
		}
	}
	for k := 0; k < 3; k++ {
		want := odds[k].ExpectedKT
		se := held[k].StdErr() + 1
		if math.Abs(held[k].Mean()-want) > 6*se {
			t.Errorf("k=%d: observed %v ± %v holdings, closed form %v",
				k+1, held[k].Mean(), se, want)
		}
	}
}

// TestPaperScaleMillionTasks exercises the full pipeline at the paper's
// headline problem size (N = 10^6, ε = 0.75, the Figure-4 configuration):
// plan construction, audit, a thinning trial, and the closed-form damage
// check, all within laptop-scale time. Skipped under -short.
func TestPaperScaleMillionTasks(t *testing.T) {
	if testing.Short() {
		t.Skip("paper-scale run skipped in -short mode")
	}
	const n, eps, p = 1_000_000, 0.75, 0.1
	d, err := dist.Balanced(n, eps)
	if err != nil {
		t.Fatal(err)
	}
	pl, err := plan.FromDistribution(d, eps)
	if err != nil {
		t.Fatal(err)
	}
	if problems := pl.Audit(1e-6); len(problems) != 0 {
		t.Fatalf("audit: %v", problems)
	}
	if pl.TotalAssignments() < 1_848_000 || pl.TotalAssignments() > 1_849_000 {
		t.Fatalf("assignments = %d, want ≈1,848,440", pl.TotalAssignments())
	}
	rep, err := Thinning(pl.Tasks(), p, adversary.Always{}, 4242)
	if err != nil {
		t.Fatal(err)
	}
	var undetected int
	for _, pt := range rep.PerTuple {
		undetected += pt.Undetected
	}
	want := dist.ExpectedDamage(d, p)
	if math.Abs(float64(undetected)-want) > 0.02*want {
		t.Errorf("damage %d, closed form %v", undetected, want)
	}
	// Detection rate at k=2 within a percent of Proposition 3.
	if rate, ok := DetectionRate(rep.PerTuple, 2); !ok ||
		math.Abs(rate-dist.BalancedDetectionAt(eps, p)) > 0.01 {
		t.Errorf("k=2 rate %v, closed form %v", rate, dist.BalancedDetectionAt(eps, p))
	}
}
