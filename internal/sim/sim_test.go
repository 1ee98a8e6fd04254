package sim

import (
	"math"
	"reflect"
	"testing"

	"redundancy/internal/adversary"
	"redundancy/internal/dist"
	"redundancy/internal/plan"
	"redundancy/internal/sched"
	"redundancy/internal/stats"
)

func balancedPlan(t testing.TB, n int, eps float64) *plan.Plan {
	t.Helper()
	p, err := plan.Balanced(n, eps)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestHonestRunIsClean(t *testing.T) {
	rep, err := Run(Config{
		Plan:         balancedPlan(t, 5000, 0.5),
		Policy:       sched.Free,
		Participants: 200,
		Seed:         1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.MismatchDetections != 0 || rep.WrongAccepted != 0 {
		t.Errorf("honest run produced detections=%d wrong=%d",
			rep.MismatchDetections, rep.WrongAccepted)
	}
	if rep.Makespan <= 0 {
		t.Error("makespan should be positive")
	}
	if rep.Tasks == 0 || rep.Assignments == 0 {
		t.Error("nothing simulated")
	}
	if rep.BlacklistedMembers != 0 || rep.HonestBlacklisted != 0 {
		t.Error("honest run blacklisted someone")
	}
}

func TestRunIsSeedDeterministic(t *testing.T) {
	cfg := Config{
		Plan:                balancedPlan(t, 3000, 0.5),
		Policy:              sched.Free,
		Participants:        150,
		AdversaryProportion: 0.1,
		Strategy:            adversary.Always{},
		Seed:                42,
	}
	a, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Error("identical configs diverged")
	}
	cfg.Seed = 43
	c, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(a, c) {
		t.Error("different seeds produced identical reports (suspicious)")
	}
}

func TestPerTupleInvariants(t *testing.T) {
	rep, err := Run(Config{
		Plan:                balancedPlan(t, 20_000, 0.5),
		Policy:              sched.Free,
		Participants:        400,
		AdversaryProportion: 0.15,
		Strategy:            adversary.Always{},
		Seed:                7,
	})
	if err != nil {
		t.Fatal(err)
	}
	var cheated, undetected int
	for _, pt := range rep.PerTuple {
		if pt.Detected+pt.Undetected != pt.Cheated {
			t.Errorf("k=%d: detected %d + undetected %d != cheated %d",
				pt.K, pt.Detected, pt.Undetected, pt.Cheated)
		}
		if pt.Cheated > pt.Held {
			t.Errorf("k=%d: cheated %d > held %d", pt.K, pt.Cheated, pt.Held)
		}
		cheated += pt.Cheated
		undetected += pt.Undetected
	}
	if cheated == 0 {
		t.Fatal("Always strategy never cheated")
	}
	// Every undetected cheat is a certified wrong result and vice versa.
	if rep.WrongAccepted != undetected {
		t.Errorf("WrongAccepted=%d but ground-truth undetected=%d",
			rep.WrongAccepted, undetected)
	}
	// Measured control should be near the configured proportion.
	if math.Abs(rep.ControlledProportion-0.15) > 0.03 {
		t.Errorf("controlled proportion %v, want ≈0.15", rep.ControlledProportion)
	}
}

func TestSimpleRedundancyCollusion(t *testing.T) {
	// Against simple redundancy, a coalition attacking only fully-held
	// pairs is never detected; attacking single copies always is.
	p, err := plan.FromDistribution(dist.Simple(5000), 0.5)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Run(Config{
		Plan:                p,
		Policy:              sched.Free,
		Participants:        100,
		AdversaryProportion: 0.2,
		Strategy:            adversary.AtLeast{MinCopies: 2},
		Seed:                3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.PerTuple) < 2 || rep.PerTuple[1].Cheated == 0 {
		t.Fatal("no fully-held pairs at p=0.2 (expected ~4% of tasks)")
	}
	if rep.PerTuple[1].Detected != 0 {
		t.Errorf("full pairs detected %d times; simple redundancy cannot detect them",
			rep.PerTuple[1].Detected)
	}
	if rep.WrongAccepted != rep.PerTuple[1].Cheated {
		t.Errorf("wrong accepted %d != pair cheats %d", rep.WrongAccepted, rep.PerTuple[1].Cheated)
	}

	// Now the naive adversary who cheats on everything: all 1-tuples caught.
	rep2, err := Run(Config{
		Plan:                p,
		Policy:              sched.Free,
		Participants:        100,
		AdversaryProportion: 0.2,
		Strategy:            adversary.Always{},
		Seed:                4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep2.PerTuple[0].Cheated == 0 || rep2.PerTuple[0].Detected != rep2.PerTuple[0].Cheated {
		t.Errorf("1-tuple cheats: %d cheated, %d detected — all should be caught",
			rep2.PerTuple[0].Cheated, rep2.PerTuple[0].Detected)
	}
	if rep2.BlacklistedMembers == 0 {
		t.Error("blatant cheating should blacklist members")
	}
	// A real cost of simple redundancy: on a 1-vs-1 mismatch the
	// supervisor cannot tell which party lied, so honest participants are
	// implicated alongside cheaters.
	if rep2.HonestBlacklisted == 0 {
		t.Error("expected honest parties implicated by 2-way mismatches")
	}
}

func TestRingersCatchTailCheats(t *testing.T) {
	// Force a plan with a meaningful ringer count and an adversary that
	// cheats on everything: any cheat touching a ringer must be detected.
	p := balancedPlan(t, 50_000, 0.75)
	if p.Ringers == 0 {
		t.Skip("no ringers at these parameters")
	}
	rep, err := Run(Config{
		Plan:                p,
		Policy:              sched.Free,
		Participants:        50,
		AdversaryProportion: 0.3,
		Strategy:            adversary.Always{},
		Seed:                5,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Ringer catches are possible but not guaranteed in one run; the hard
	// invariant is that no wrong ringer value is ever accepted.
	if rep.RingersCaught > rep.MismatchDetections {
		t.Error("ringer catches exceed total detections")
	}
}

func TestPoliciesAllComplete(t *testing.T) {
	pl := balancedPlan(t, 2000, 0.5)
	for _, pol := range []sched.Policy{sched.Free, sched.OneOutstanding} {
		rep, err := Run(Config{
			Plan:                pl,
			Policy:              pol,
			Participants:        64,
			AdversaryProportion: 0.1,
			Strategy:            adversary.Always{},
			Seed:                11,
		})
		if err != nil {
			t.Fatalf("%v: %v", pol, err)
		}
		if rep.Tasks != pl.N+pl.Ringers {
			t.Errorf("%v: adjudicated %d tasks, want %d", pol, rep.Tasks, pl.N+pl.Ringers)
		}
	}
	// TwoPhase needs uniform multiplicity 2.
	sp, err := plan.FromDistribution(dist.Simple(1000), 0.5)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Run(Config{
		Plan:         sp,
		Policy:       sched.TwoPhase,
		Participants: 32,
		Seed:         12,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Tasks != 1000 {
		t.Errorf("two-phase adjudicated %d tasks", rep.Tasks)
	}
}

func TestOneOutstandingDoublesTaskTime(t *testing.T) {
	// §1: serializing the two copies of each task "doubles the time cost".
	// With far more participants than assignments, a task under free
	// scheduling finishes at max(E1, E2) (mean 1.5 service units), under
	// one-outstanding at E1 + E2 (mean 2.0), and with no redundancy at E1
	// (mean 1.0) — so one-outstanding doubles the single-assignment time.
	sp, err := plan.FromDistribution(dist.Simple(3000), 0.5)
	if err != nil {
		t.Fatal(err)
	}
	single, err := plan.FromDistribution(dist.Single(3000), 0.5)
	if err != nil {
		t.Fatal(err)
	}
	run := func(p *plan.Plan, pol sched.Policy) float64 {
		rep, err := Run(Config{Plan: p, Policy: pol, Participants: 50_000, Seed: 13})
		if err != nil {
			t.Fatal(err)
		}
		return rep.MeanTaskTime
	}
	base := run(single, sched.Free)         // ≈ 1.0
	free := run(sp, sched.Free)             // ≈ 1.5
	serial := run(sp, sched.OneOutstanding) // ≈ 2.0
	if math.Abs(base-1.0) > 0.1 || math.Abs(free-1.5) > 0.1 || math.Abs(serial-2.0) > 0.1 {
		t.Errorf("mean task times: single=%.3f free=%.3f serial=%.3f; want ≈1.0/1.5/2.0",
			base, free, serial)
	}
	if serial < 1.8*base {
		t.Errorf("one-outstanding (%.3f) does not double the single-copy time (%.3f)", serial, base)
	}
}

func TestRunConfigValidation(t *testing.T) {
	pl := balancedPlan(t, 100, 0.5)
	if _, err := Run(Config{Plan: nil, Participants: 1}); err == nil {
		t.Error("nil plan accepted")
	}
	if _, err := Run(Config{Plan: pl, Participants: 0}); err == nil {
		t.Error("zero participants accepted")
	}
	if _, err := Run(Config{Plan: pl, Participants: 10, AdversaryProportion: 1}); err == nil {
		t.Error("p=1 accepted")
	}
	if _, err := Run(Config{Plan: pl, Participants: 10, AdversaryProportion: -0.1}); err == nil {
		t.Error("negative p accepted")
	}
	// Worker ids and backlog indices are int32 and event seqs 32-bit, so
	// more workers or assignments than they can name are refused, before
	// a worker is allocated or the plan expanded, rather than truncated.
	if _, err := Run(Config{Plan: pl, Participants: math.MaxInt32 + 1}); err == nil {
		t.Error("MaxInt32+1 participants accepted")
	}
	huge := &plan.Plan{Epsilon: 0.5, N: math.MaxInt32 + 1, Counts: []int{math.MaxInt32 + 1}}
	if _, err := Run(Config{Plan: huge, Participants: 10}); err == nil {
		t.Error("MaxInt32+1 assignments accepted")
	}
}

func TestDetectionRateAccessor(t *testing.T) {
	rep := &Report{PerTuple: []PerTuple{{K: 1, Cheated: 4, Detected: 3}}}
	if r, ok := DetectionRate(rep.PerTuple, 1); !ok || r != 0.75 {
		t.Errorf("rate = %v ok=%v", r, ok)
	}
	if _, ok := DetectionRate(rep.PerTuple, 2); ok {
		t.Error("out-of-range k should report !ok")
	}
	if _, ok := DetectionRate(rep.PerTuple, 0); ok {
		t.Error("k=0 should report !ok")
	}
}

// TestEventSimMatchesClosedFormBalanced is the headline cross-validation:
// the empirical detection rate of the full discrete-event simulation on the
// Balanced plan matches Proposition 3's P_{k,p} = 1 − (1−ε)^{1−p}.
func TestEventSimMatchesClosedFormBalanced(t *testing.T) {
	const eps, p = 0.5, 0.1
	var agg [4]stats.Proportion
	pl := balancedPlan(t, 30_000, eps)
	for trial := 0; trial < 4; trial++ {
		rep, err := Run(Config{
			Plan:                pl,
			Policy:              sched.Free,
			Participants:        1000,
			AdversaryProportion: p,
			Strategy:            adversary.Always{},
			Seed:                100 + uint64(trial),
		})
		if err != nil {
			t.Fatal(err)
		}
		for k := 1; k <= len(agg); k++ {
			if k <= len(rep.PerTuple) {
				agg[k-1].Successes += rep.PerTuple[k-1].Detected
				agg[k-1].Trials += rep.PerTuple[k-1].Cheated
			}
		}
	}
	want := dist.BalancedDetectionAt(eps, p)
	for k := 1; k <= 2; k++ { // k=1,2 have plenty of samples
		got := agg[k-1].Estimate()
		lo, hi := agg[k-1].Wilson(0.999)
		if want < lo || want > hi {
			t.Errorf("k=%d: empirical %.4f (n=%d, CI [%.4f,%.4f]) vs closed form %.4f",
				k, got, agg[k-1].Trials, lo, hi, want)
		}
	}
}

// TestTwoPhaseEventSimMatchesAppendixA closes the loop between the
// Appendix-A counting experiment and the full event simulation. Two-phase
// distribution forces the coalition to commit at first-copy time, before it
// knows whether the second copy will arrive:
//
//   - the *cautious* pair-only attacker (AtLeast{2}) sees held=1 at decision
//     time and therefore never cheats — the phase split really does raise
//     the bar over free scheduling;
//   - the *gambling* attacker (Always) cheats on every first copy: she is
//     exposed on the ≈2p(1−p)·N split pairs but banks the Appendix-A
//     expectation of ≈p²·N undetected wrong results.
func TestTwoPhaseEventSimMatchesAppendixA(t *testing.T) {
	const n, prop = 10_000, 0.05
	sp, err := plan.FromDistribution(dist.Simple(n), 0.5)
	if err != nil {
		t.Fatal(err)
	}
	run := func(strat adversary.Strategy, seed uint64) *Report {
		rep, err := Run(Config{
			Plan:                sp,
			Policy:              sched.TwoPhase,
			Participants:        2_000,
			AdversaryProportion: prop,
			Strategy:            strat,
			Seed:                seed,
		})
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}

	cautious := run(adversary.AtLeast{MinCopies: 2}, 400)
	if cautious.WrongAccepted != 0 || cautious.MismatchDetections != 0 {
		t.Errorf("cautious attacker under two-phase: wrong=%d detections=%d, want 0/0",
			cautious.WrongAccepted, cautious.MismatchDetections)
	}

	var wrong, exposed stats.Summary
	for trial := 0; trial < 6; trial++ {
		rep := run(adversary.Always{}, 500+uint64(trial))
		wrong.Add(float64(rep.WrongAccepted))
		exposed.Add(float64(rep.MismatchDetections))
	}
	wantWrong := dist.ExpectedFullyControlled(n, prop) // p²N = 25
	if math.Abs(wrong.Mean()-wantWrong) > 5*wrong.StdErr()+2 {
		t.Errorf("gambler's wrong results %v ± %v, Appendix A predicts ≈%v",
			wrong.Mean(), wrong.StdErr(), wantWrong)
	}
	wantExposed := 2 * prop * (1 - prop) * n // split pairs ≈ 950
	if math.Abs(exposed.Mean()-wantExposed) > 0.1*wantExposed {
		t.Errorf("gambler's exposure %v, want ≈%v split pairs", exposed.Mean(), wantExposed)
	}
}

// TestServiceDistributions verifies each service-time law end to end: with
// ample workers the mean task time on single-copy tasks equals the law's
// mean, and the heavy-tailed laws stretch the makespan (stragglers).
func TestServiceDistributions(t *testing.T) {
	single, err := plan.FromDistribution(dist.Single(4000), 0.5)
	if err != nil {
		t.Fatal(err)
	}
	run := func(svc ServiceDist, shape float64) *Report {
		rep, err := Run(Config{
			Plan:         single,
			Policy:       sched.Free,
			Participants: 50_000,
			Service:      svc,
			ServiceShape: shape,
			Seed:         21,
		})
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	exp := run(ServiceExponential, 0)
	ln := run(ServiceLogNormal, 1)
	pareto := run(ServicePareto, 1.8)
	konst := run(ServiceConstant, 0)

	for name, rep := range map[string]*Report{
		"exponential": exp, "lognormal": ln, "pareto": pareto, "constant": konst,
	} {
		if math.Abs(rep.MeanTaskTime-1.0) > 0.15 {
			t.Errorf("%s: mean task time %v, want ≈1 (mean-normalized law)", name, rep.MeanTaskTime)
		}
	}
	// Constant service makes the makespan exactly the deepest backlog:
	// 4000 tasks dealt uniformly over 50k workers collide occasionally
	// (balls in bins), so it is a small whole number of service units.
	if konst.Makespan != math.Trunc(konst.Makespan) ||
		konst.Makespan < 1 || konst.Makespan > 6 {
		t.Errorf("constant service makespan %v, want a small integer (max backlog)", konst.Makespan)
	}
	// Heavy tails stretch the maximum: Pareto(α=1.8) should produce a far
	// longer makespan than exponential at the same mean.
	if pareto.Makespan < 1.5*exp.Makespan {
		t.Errorf("pareto makespan %v not clearly above exponential %v",
			pareto.Makespan, exp.Makespan)
	}
}

func TestServiceValidation(t *testing.T) {
	p := balancedPlan(t, 100, 0.5)
	if _, err := Run(Config{Plan: p, Participants: 4, Service: ServicePareto, ServiceShape: 0.9}); err == nil {
		t.Error("Pareto with shape <= 1 accepted")
	}
	if _, err := Run(Config{Plan: p, Participants: 4, Service: ServiceDist(99)}); err == nil {
		t.Error("unknown service law accepted")
	}
	// A non-finite law is refused up front: its draws would be NaN or
	// infinite times, which the event heap cannot order.
	for _, c := range []Config{
		{Plan: p, Participants: 4, MeanServiceTime: math.NaN()},
		{Plan: p, Participants: 4, MeanServiceTime: math.Inf(1)},
		{Plan: p, Participants: 4, Service: ServiceLogNormal, ServiceShape: math.NaN()},
		{Plan: p, Participants: 4, Service: ServicePareto, ServiceShape: math.Inf(1)},
	} {
		if _, err := Run(c); err == nil {
			t.Errorf("mean %v shape %v accepted", c.MeanServiceTime, c.ServiceShape)
		}
	}
}

// TestExpectedDamageMatchesSimulation ties dist.ExpectedDamage to the full
// event simulation: mean WrongAccepted over seeds ≈ Σ x_i p^i.
func TestExpectedDamageMatchesSimulation(t *testing.T) {
	const eps, p = 0.5, 0.15
	d, err := dist.Balanced(30_000, eps)
	if err != nil {
		t.Fatal(err)
	}
	pl, err := plan.FromDistribution(d, eps)
	if err != nil {
		t.Fatal(err)
	}
	var wrong stats.Summary
	for trial := 0; trial < 5; trial++ {
		rep, err := Run(Config{
			Plan:                pl,
			Policy:              sched.Free,
			Participants:        1500,
			AdversaryProportion: p,
			Strategy:            adversary.Always{},
			Seed:                700 + uint64(trial),
		})
		if err != nil {
			t.Fatal(err)
		}
		wrong.Add(float64(rep.WrongAccepted))
	}
	want := dist.ExpectedDamage(d, p)
	if math.Abs(wrong.Mean()-want) > 6*wrong.StdErr()+0.05*want {
		t.Errorf("mean wrong %v ± %v, closed form %v", wrong.Mean(), wrong.StdErr(), want)
	}
}
