// Command redsim runs the discrete-event volunteer-computation simulator:
// a supervisor distributes a redundancy plan to participants, a coalition
// controlling part of the pool cheats according to a strategy, and the
// verifier adjudicates every task. It prints ground-truth detection
// statistics per tuple size next to the paper's closed-form predictions.
//
// Usage:
//
//	redsim -scheme balanced -n 50000 -eps 0.5 -participants 1000 -p 0.1 \
//	       -strategy always -policy free -seed 1
//
// With -drift it instead runs the drifting-adversary scenario: the true
// coalition share steps from 2% to 15% mid-run, and the printed table
// compares the weakest per-class detection guarantee of the untouched
// static plan against a plan revised online by the adaptive controller
// (internal/adapt) from the same evidence stream.
//
// With -scenario <name> it runs one of the scenario lab's pathological
// adversary templates (use `-scenario list` for the vocabulary) and emits
// the JSON counter report; the exit status is nonzero when any of the
// template's expected counter bounds was violated:
//
//	redsim -scenario sleeper-agents -scenario-tasks 100000
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"

	"redundancy"
	"redundancy/internal/experiments"
	"redundancy/internal/report"
)

func main() {
	scheme := flag.String("scheme", "balanced", "balanced | gs | simple | minmult")
	n := flag.Float64("n", 50_000, "number of tasks")
	eps := flag.Float64("eps", 0.5, "detection threshold ε")
	m := flag.Int("m", 2, "minimum multiplicity for -scheme minmult")
	participants := flag.Int("participants", 1000, "registered participants")
	p := flag.Float64("p", 0.1, "fraction of participants the coalition controls")
	strategy := flag.String("strategy", "always", "always | never | rational | only-k | at-least")
	k := flag.Int("k", 1, "tuple size for only-k / at-least strategies")
	tolerance := flag.Float64("tolerance", 0.55, "max acceptable detection probability for the rational strategy")
	policy := flag.String("policy", "free", "free | one-outstanding | two-phase")
	seed := flag.Uint64("seed", 1, "random seed")
	drift := flag.Bool("drift", false, "run the drifting-adversary scenario instead: a static vs adaptive min_k P(k,p) comparison table")
	driftDecay := flag.Float64("drift-decay", 0.998, "estimator decay per observed assignment in -drift mode")
	scenario := flag.String("scenario", "", "run a scenario-lab template and emit its JSON counter report ('list' shows names, 'all' fans the whole registry out over -workers)")
	scenarioTasks := flag.Int("scenario-tasks", 0, "override the scenario scale (0 = template default)")
	scenarioParticipants := flag.Int("scenario-participants", 0, "override the scenario population (0 = same as -scenario-tasks)")
	workers := flag.Int("workers", 0, "worker pool for -scenario all and -tail (0 = all cores; output is identical for any value)")
	tail := flag.Bool("tail", false, "run the tail-latency sweep: completion-time quantiles per scheme per redundancy factor, speculation off and on")
	tailTasks := flag.Int("tail-tasks", 100_000, "tasks per trial in -tail mode")
	tailTrials := flag.Int("tail-trials", 0, "Monte-Carlo trials per sweep cell (0 = default)")
	tailParticipants := flag.Int("tail-participants", 0, "fleet size in -tail mode (0 = default)")
	scale := flag.Bool("scale", false, "with -tail, run the 10^7-task tier")
	flag.Parse()

	if *tail {
		cfg := tailSweepConfig(*tailTasks, *tailTrials, *tailParticipants, *workers, *eps, *seed, *scale)
		if err := runTail(cfg, os.Stdout); err != nil {
			fail(err)
		}
		return
	}

	if *scenario != "" {
		violations, err := runScenario(*scenario, *scenarioTasks, *scenarioParticipants, *workers, os.Stdout)
		if err != nil {
			fail(err)
		}
		if violations > 0 {
			fmt.Fprintf(os.Stderr, "redsim: scenario %q violated %d expected counter bound(s)\n",
				*scenario, violations)
			os.Exit(1)
		}
		return
	}

	if *drift {
		tbl, err := experiments.DriftTable(int(*n), *eps,
			experiments.DefaultDriftSteps(int(*n)/8), *driftDecay, *seed)
		if err != nil {
			fail(err)
		}
		fmt.Println(tbl.String())
		return
	}

	d, err := buildScheme(*scheme, *n, *eps, *m)
	if err != nil {
		fail(err)
	}
	pl, err := redundancy.PlanFor(d, *eps)
	if err != nil {
		fail(err)
	}
	pol, err := parsePolicy(*policy)
	if err != nil {
		fail(err)
	}
	strat, err := parseStrategy(*strategy, *k, *tolerance, d, *p)
	if err != nil {
		fail(err)
	}

	rep, err := redundancy.Simulate(redundancy.SimConfig{
		Plan:                pl,
		Policy:              pol,
		Participants:        *participants,
		AdversaryProportion: *p,
		Strategy:            strat,
		Seed:                *seed,
	})
	if err != nil {
		fail(err)
	}

	fmt.Printf("scheme: %s   plan: %s\n", d, pl)
	fmt.Printf("participants: %d   coalition: %.1f%% of participants (%.2f%% of assignments landed)\n",
		*participants, *p*100, rep.ControlledProportion*100)
	fmt.Printf("strategy: %s   policy: %s\n\n", strat.Name(), pol)

	t := report.NewTable("Per-tuple ground truth vs closed form",
		"k", "held", "cheated", "detected", "undetected", "empirical P", "closed-form P(k,p)")
	for _, pt := range rep.PerTuple {
		emp := "-"
		if pt.Cheated > 0 {
			emp = fmt.Sprintf("%.4f", float64(pt.Detected)/float64(pt.Cheated))
		}
		t.AddRowStrings(
			fmt.Sprintf("%d", pt.K), fmt.Sprintf("%d", pt.Held),
			fmt.Sprintf("%d", pt.Cheated), fmt.Sprintf("%d", pt.Detected),
			fmt.Sprintf("%d", pt.Undetected), emp,
			fmt.Sprintf("%.4f", redundancy.DetectionAt(d, pt.K, rep.ControlledProportion)))
	}
	fmt.Println(t.String())

	fmt.Printf("tasks adjudicated:    %d\n", rep.Tasks)
	fmt.Printf("mismatch detections:  %d (ringers: %d)\n", rep.MismatchDetections, rep.RingersCaught)
	fmt.Printf("wrong results passed: %d\n", rep.WrongAccepted)
	fmt.Printf("blacklisted members:  %d (honest implicated: %d)\n",
		rep.BlacklistedMembers, rep.HonestBlacklisted)
	fmt.Printf("virtual makespan:     %.2f   mean task time: %.2f\n", rep.Makespan, rep.MeanTaskTime)
}

// runScenario executes one scenario-lab template (or, for name "all", the
// whole registry fanned out over a worker pool) and writes the JSON
// counter report(s) to w, returning the number of violated counter bounds.
// tasks/participants of 0 keep the template's default scale.
func runScenario(name string, tasks, participants, workers int, w io.Writer) (violations int, err error) {
	if name == "list" {
		for _, n := range redundancy.ScenarioNames() {
			fmt.Fprintln(w, n)
		}
		return 0, nil
	}
	if name == "all" {
		return runScenarioSuite(tasks, participants, workers, w)
	}
	sc, ok := redundancy.ScenarioByName(name)
	if !ok {
		return 0, fmt.Errorf("unknown scenario %q (try -scenario list)", name)
	}
	if tasks > 0 {
		if participants <= 0 {
			participants = tasks
		}
		sc = sc.WithScale(tasks, participants)
	} else if participants > 0 {
		sc = sc.WithScale(sc.Config.Tasks, participants)
	}
	rep, err := redundancy.RunScenario(sc)
	if err != nil {
		return 0, err
	}
	b, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return 0, err
	}
	if _, err := fmt.Fprintf(w, "%s\n", b); err != nil {
		return 0, err
	}
	return len(rep.Violations), nil
}

// runScenarioSuite fans every registry template out over a worker pool and
// prints the reports in registry order. The per-template runs are
// single-threaded and seeded, so the concatenated output is byte-identical
// for any worker count.
func runScenarioSuite(tasks, participants, workers int, w io.Writer) (violations int, err error) {
	for _, res := range redundancy.RunScenarioSuite(tasks, participants, workers) {
		if res.Err != nil {
			return violations, fmt.Errorf("scenario %q: %w", res.Name, res.Err)
		}
		b, err := json.MarshalIndent(res.Report, "", "  ")
		if err != nil {
			return violations, err
		}
		if _, err := fmt.Fprintf(w, "%s\n", b); err != nil {
			return violations, err
		}
		violations += len(res.Report.Violations)
	}
	return violations, nil
}

func buildScheme(scheme string, n, eps float64, m int) (*redundancy.Distribution, error) {
	switch scheme {
	case "balanced":
		return redundancy.Balanced(n, eps)
	case "gs":
		return redundancy.GolleStubblebineForThreshold(n, eps)
	case "simple":
		return redundancy.Simple(n), nil
	case "minmult":
		return redundancy.MinMultiplicity(n, eps, m)
	default:
		return nil, fmt.Errorf("unknown scheme %q", scheme)
	}
}

func parsePolicy(s string) (redundancy.Policy, error) {
	switch s {
	case "free":
		return redundancy.PolicyFree, nil
	case "one-outstanding":
		return redundancy.PolicyOneOutstanding, nil
	case "two-phase":
		return redundancy.PolicyTwoPhase, nil
	default:
		return 0, fmt.Errorf("unknown policy %q", s)
	}
}

func parseStrategy(s string, k int, tol float64, d *redundancy.Distribution, p float64) (redundancy.Strategy, error) {
	switch s {
	case "always":
		return redundancy.StrategyAlways{}, nil
	case "never":
		return redundancy.StrategyNever{}, nil
	case "rational":
		return redundancy.NewRationalStrategy(d, p, tol), nil
	case "only-k":
		return redundancy.StrategyOnlyK{K: k}, nil
	case "at-least":
		return redundancy.StrategyAtLeast{MinCopies: k}, nil
	default:
		return nil, fmt.Errorf("unknown strategy %q", s)
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "redsim:", err)
	os.Exit(1)
}
