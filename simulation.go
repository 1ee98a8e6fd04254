package redundancy

import (
	"redundancy/internal/adversary"
	"redundancy/internal/sched"
	"redundancy/internal/sim"
)

// Scheduling policies for plans and simulations.
const (
	// PolicyFree shuffles all copies together and releases them freely —
	// the standard model and the one the paper's analysis assumes.
	PolicyFree = sched.Free
	// PolicyOneOutstanding keeps at most one copy of a task in flight
	// (§1's variation: doubles wall-clock cost, still collusion-prone).
	PolicyOneOutstanding = sched.OneOutstanding
	// PolicyTwoPhase releases every first copy, then every second copy
	// (the Appendix-A model; requires uniform multiplicity 2).
	PolicyTwoPhase = sched.TwoPhase
)

// Policy is an assignment-release discipline.
type Policy = sched.Policy

// Strategy decides, per task, whether the adversary coalition cheats given
// how many copies it holds.
type Strategy = adversary.Strategy

// Canonical adversary strategies.
type (
	// StrategyAlways cheats on every held task.
	StrategyAlways = adversary.Always
	// StrategyNever is an honest control coalition.
	StrategyNever = adversary.Never
	// StrategyOnlyK cheats exactly when holding K copies.
	StrategyOnlyK = adversary.OnlyK
	// StrategyAtLeast cheats when holding at least MinCopies copies.
	StrategyAtLeast = adversary.AtLeast
	// StrategyDrifting ramps the cheat rate over the run (scenario lab).
	StrategyDrifting = adversary.Drifting
	// StrategyProbabilistic cheats per task with a fixed probability.
	StrategyProbabilistic = adversary.Probabilistic
	// StrategySleeper behaves until it first holds a full tuple.
	StrategySleeper = adversary.Sleeper
	// StrategyStragglerCover cheats only where honest copies are delayed.
	StrategyStragglerCover = adversary.StragglerCover
	// StrategyPocket concentrates cheating on a slice of task space.
	StrategyPocket = adversary.Pocket
)

// NewRationalStrategy builds the paper's intelligent adversary: knowing
// scheme d and her proportion p, she cheats only at tuple sizes whose
// detection probability is at most maxDetection.
func NewRationalStrategy(d *Distribution, p, maxDetection float64) Strategy {
	return adversary.NewRational(d, p, maxDetection)
}

// SimConfig parameterizes a full discrete-event simulation of a volunteer
// computation (see Simulate).
type SimConfig = sim.Config

// ServiceDist selects the simulator's per-assignment compute-time law.
type ServiceDist = sim.ServiceDist

// Service-time laws for SimConfig.Service.
const (
	// ServiceExponential is the memoryless default.
	ServiceExponential = sim.ServiceExponential
	// ServiceLogNormal has a moderate right tail.
	ServiceLogNormal = sim.ServiceLogNormal
	// ServicePareto has a power-law tail: rare extreme stragglers.
	ServicePareto = sim.ServicePareto
	// ServiceConstant is deterministic.
	ServiceConstant = sim.ServiceConstant
)

// SimReport is the outcome of Simulate.
type SimReport = sim.Report

// PerTuple aggregates per-tuple-size outcomes in simulation reports.
type PerTuple = sim.PerTuple

// DetectionRate returns the empirical detection probability among cheats
// at tuple size k of a SimReport's or ThinningReport's PerTuple table, and
// ok=false if no such cheats occurred.
func DetectionRate(perTuple []PerTuple, k int) (rate float64, ok bool) {
	return sim.DetectionRate(perTuple, k)
}

// Simulate runs one full discrete-event simulation: a supervisor deals the
// plan's assignments to participants over virtual time, a coalition
// controlling a fraction of participants cheats per its strategy, and the
// verifier adjudicates every task. The report carries ground-truth
// detection statistics per tuple size for comparison with DetectionAt.
func Simulate(cfg SimConfig) (*SimReport, error) { return sim.Run(cfg) }

// Scenario is one named pathological adversary template of the scenario
// lab, with its counter expectations.
type Scenario = sim.Scenario

// ScenarioConfig parameterizes a scenario run.
type ScenarioConfig = sim.ScenarioConfig

// ScenarioReport is the JSON counter report of one scenario run.
type ScenarioReport = sim.ScenarioReport

// Scenarios returns the five registry templates at their default scale.
func Scenarios() []Scenario { return sim.Scenarios() }

// ScenarioNames lists the registry template names in stable order.
func ScenarioNames() []string { return sim.ScenarioNames() }

// ScenarioByName looks up a registry template.
func ScenarioByName(name string) (Scenario, bool) { return sim.ScenarioByName(name) }

// RunScenario executes one scenario end to end; the returned report's
// Violations list is empty when every expected counter bound held.
func RunScenario(sc Scenario) (*ScenarioReport, error) { return sim.RunScenario(sc) }

// SuiteResult is one scenario's outcome in a parallel suite run.
type SuiteResult = sim.SuiteResult

// RunScenarios fans the given scenarios out across workers (each template
// runs single-threaded; reports are byte-identical for any worker count)
// and returns results in input order.
func RunScenarios(scs []Scenario, workers int) []SuiteResult { return sim.RunScenarios(scs, workers) }

// RunScenarioSuite runs the full scenario registry at the given scale
// (tasks <= 0 keeps template defaults) on a pool of workers.
func RunScenarioSuite(tasks, participants, workers int) []SuiteResult {
	return sim.RunScenarioSuite(tasks, participants, workers)
}

// CampaignConfig parameterizes a multi-round campaign (see Campaign).
type CampaignConfig = sim.CampaignConfig

// CampaignReport is the outcome of Campaign.
type CampaignReport = sim.CampaignReport

// Campaign runs successive computations against the same adversary pool,
// removing implicated members between rounds: how much damage does a
// determined adversary do before her identities burn out?
func Campaign(cfg CampaignConfig) (*CampaignReport, error) { return sim.Campaign(cfg) }

// ThinningReport is the outcome of SampleThinning.
type ThinningReport = sim.ThinningReport

// SampleThinning runs the fast Monte-Carlo model used in the paper's
// proofs: each copy of each task independently lands with the adversary
// with probability p. It is the high-replication twin of Simulate.
func SampleThinning(specs []TaskSpec, p float64, strat Strategy, seed uint64) (*ThinningReport, error) {
	return sim.Thinning(specs, p, strat, seed)
}

// TwoPhaseResult is the outcome of the Appendix-A experiment.
type TwoPhaseResult = sim.TwoPhaseResult

// TwoPhaseExperiment measures how many tasks an adversary controlling
// proportion p of participants fully controls under two-phase simple
// redundancy (Appendix A: expectation ≈ p²·n, so p ≥ 1/sqrt(n) suffices to
// expect a free cheat).
func TwoPhaseExperiment(n int, p float64, trials int, seed uint64) (*TwoPhaseResult, error) {
	return sim.TwoPhaseExperiment(n, p, trials, seed)
}
