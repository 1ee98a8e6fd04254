package sim

import (
	"fmt"
	"math"

	"redundancy/internal/adapt"
	"redundancy/internal/adversary"
	"redundancy/internal/dist"
	"redundancy/internal/plan"
	"redundancy/internal/sched"
	"redundancy/internal/verify"
)

// The scenario lab packages named pathological adversary templates as
// reproducible regression scenarios. Each template drives the *production*
// components — plan.Balanced, sched.Queue, verify.Collector,
// adapt.Estimator, adversary.Coalition — through the discrete-event engine
// via runWithHooks; the lab only observes and steers (deal throttling,
// Sybil churn), it never forks the simulation logic. Every scenario carries
// counter expectations derived from the paper's Proposition 2/3 bounds,
// checked by Scenario.Check and pinned by golden reports.

// Template names, the -scenario vocabulary of cmd/redsim and the test
// suite.
const (
	// TemplateDrifting ramps the coalition's cheat rate mid-run: harmless
	// while the estimator converges, hostile afterwards.
	TemplateDrifting = "drifting-coalition"
	// TemplateSybilChurn re-registers implicated identities as fresh
	// Sybils after the supervisor blocks them.
	TemplateSybilChurn = "sybil-churn"
	// TemplateSleeper behaves until the coalition first holds a full
	// k-tuple, then strikes on every sufficiently-held task.
	TemplateSleeper = "sleeper-agents"
	// TemplateStragglerCover cheats only on tasks none of whose honest
	// copies have returned yet.
	TemplateStragglerCover = "stragglers-as-cover"
	// TemplatePocket concentrates all cheating on a contiguous slice of
	// the task-ID space.
	TemplatePocket = "colluding-pocket"
)

// Default registry scale: every named scenario is built at this size and
// rescaled by WithScale (the test suite runs 10^5 by default and 10^6
// behind -scale).
const (
	DefaultScenarioTasks        = 100_000
	DefaultScenarioParticipants = 100_000
)

// Validation ceilings. They bound fuzzing and hostile configs, not honest
// use: 5e6 tasks is well past the 10^6 -scale runs.
const (
	maxScenarioTasks        = 5_000_000
	maxScenarioParticipants = 5_000_000
)

// ScenarioConfig parameterizes one scenario run. Zero values of the
// optional fields take documented defaults; Validate rejects hostile
// values (NaN, infinities, negatives, absurd sizes) with an error and
// never panics, which FuzzScenarioConfig enforces.
type ScenarioConfig struct {
	// Template selects the adversary template (Template* constants).
	Template string
	// Tasks is the number of real tasks handed to plan.Balanced.
	Tasks int
	// Participants is the registered population size.
	Participants int
	// Epsilon is the Proposition 2 detection floor in (0,1).
	Epsilon float64
	// AdversaryProportion is the coalition share p in [0,1).
	AdversaryProportion float64
	// Seed makes the run reproducible; it also salts per-task cheat coins.
	Seed uint64

	// MeanServiceTime, Service and ServiceShape select the compute-time
	// law exactly as in Config (zero values mean 1, exponential, default
	// shape).
	MeanServiceTime float64
	Service         ServiceDist
	ServiceShape    float64

	// DealFraction throttles the supervisor's release window to this
	// fraction of the population (0 = hand out everything the policy
	// allows at once). Throttling makes coalition holdings accrue over
	// virtual time, which is what gives sleeper agents a sleep phase and
	// churned Sybils work to receive.
	DealFraction float64

	// StartRate and EndRate bound the drifting-coalition ramp.
	StartRate, EndRate float64
	// CheatRate is the per-task cheat probability of the Sybil-churn
	// template.
	CheatRate float64
	// MaxChurn caps how many fresh identities the adversary may register
	// after blocks.
	MaxChurn int
	// TriggerK arms the sleeper template (0 normalizes to 2).
	TriggerK int
	// MinHeld is the straggler-cover holding floor (0 normalizes to 1).
	MinHeld int
	// PocketLo and PocketHi bound the attacked slice of normalized task
	// IDs for the pocket template.
	PocketLo, PocketHi float64

	// EstimatorZ and EstimatorDecay parameterize the adapt.Estimator the
	// lab feeds with every verdict (0 = adapt defaults; decay < 1 tracks
	// drift).
	EstimatorZ, EstimatorDecay float64
}

func finite(x float64) bool { return !math.IsNaN(x) && !math.IsInf(x, 0) }

// unit reports x ∈ [0,1] and finite. The comparisons are written so NaN
// (which fails every comparison) is rejected.
func unit(x float64) bool { return x >= 0 && x <= 1 }

// Validate checks the configuration. Hostile inputs — NaN or infinite
// rates, negative sizes, unbounded churn — return descriptive errors;
// nothing in the scenario path panics or hangs on them.
func (c ScenarioConfig) Validate() error {
	switch c.Template {
	case TemplateDrifting, TemplateSybilChurn, TemplateSleeper,
		TemplateStragglerCover, TemplatePocket:
	default:
		return fmt.Errorf("scenario: unknown template %q", c.Template)
	}
	if c.Tasks < 1 || c.Tasks > maxScenarioTasks {
		return fmt.Errorf("scenario: tasks must lie in [1,%d], got %d", maxScenarioTasks, c.Tasks)
	}
	if c.Participants < 1 || c.Participants > maxScenarioParticipants {
		return fmt.Errorf("scenario: participants must lie in [1,%d], got %d", maxScenarioParticipants, c.Participants)
	}
	if !(c.Epsilon > 0 && c.Epsilon < 1) {
		return fmt.Errorf("scenario: epsilon must lie in (0,1), got %v", c.Epsilon)
	}
	if !(c.AdversaryProportion >= 0 && c.AdversaryProportion < 1) {
		return fmt.Errorf("scenario: adversary proportion must lie in [0,1), got %v", c.AdversaryProportion)
	}
	if !finite(c.MeanServiceTime) || c.MeanServiceTime < 0 || c.MeanServiceTime > 1e9 {
		return fmt.Errorf("scenario: mean service time must lie in [0,1e9], got %v", c.MeanServiceTime)
	}
	if c.Service < ServiceExponential || c.Service > ServiceConstant {
		return fmt.Errorf("scenario: unknown service distribution %d", c.Service)
	}
	if !finite(c.ServiceShape) || c.ServiceShape < 0 || c.ServiceShape > 1e6 {
		return fmt.Errorf("scenario: service shape must lie in [0,1e6], got %v", c.ServiceShape)
	}
	if c.Service == ServicePareto && c.ServiceShape != 0 && c.ServiceShape <= 1 {
		return fmt.Errorf("scenario: Pareto service needs shape > 1, got %v", c.ServiceShape)
	}
	if !unit(c.DealFraction) {
		return fmt.Errorf("scenario: deal fraction must lie in [0,1], got %v", c.DealFraction)
	}
	if !unit(c.StartRate) || !unit(c.EndRate) {
		return fmt.Errorf("scenario: drift rates must lie in [0,1], got %v->%v", c.StartRate, c.EndRate)
	}
	if !unit(c.CheatRate) {
		return fmt.Errorf("scenario: cheat rate must lie in [0,1], got %v", c.CheatRate)
	}
	if c.MaxChurn < 0 || c.MaxChurn > maxScenarioParticipants {
		return fmt.Errorf("scenario: max churn must lie in [0,%d], got %d", maxScenarioParticipants, c.MaxChurn)
	}
	if c.TriggerK < 0 || c.TriggerK > 64 {
		return fmt.Errorf("scenario: trigger k must lie in [0,64], got %d", c.TriggerK)
	}
	if c.MinHeld < 0 || c.MinHeld > 64 {
		return fmt.Errorf("scenario: min held must lie in [0,64], got %d", c.MinHeld)
	}
	if !unit(c.PocketLo) || !unit(c.PocketHi) {
		return fmt.Errorf("scenario: pocket bounds must lie in [0,1], got [%v,%v)", c.PocketLo, c.PocketHi)
	}
	if c.Template == TemplatePocket && !(c.PocketLo < c.PocketHi) {
		return fmt.Errorf("scenario: pocket needs lo < hi, got [%v,%v)", c.PocketLo, c.PocketHi)
	}
	if !finite(c.EstimatorZ) || c.EstimatorZ < 0 || c.EstimatorZ > 10 {
		return fmt.Errorf("scenario: estimator z must lie in [0,10], got %v", c.EstimatorZ)
	}
	if !unit(c.EstimatorDecay) {
		return fmt.Errorf("scenario: estimator decay must lie in [0,1], got %v", c.EstimatorDecay)
	}
	return nil
}

// buildStrategy constructs the template's adversary strategy. The seed
// salts the per-task cheat coins so distinct seeds decorrelate decisions.
func (c ScenarioConfig) buildStrategy() adversary.Strategy {
	switch c.Template {
	case TemplateDrifting:
		return adversary.Drifting{StartRate: c.StartRate, EndRate: c.EndRate, Salt: c.Seed}
	case TemplateSybilChurn:
		return adversary.Probabilistic{Rate: c.CheatRate, Salt: c.Seed}
	case TemplateSleeper:
		return adversary.Sleeper{TriggerK: c.TriggerK}
	case TemplateStragglerCover:
		return adversary.StragglerCover{MinHeld: c.MinHeld}
	case TemplatePocket:
		return adversary.Pocket{Lo: c.PocketLo, Hi: c.PocketHi}
	}
	return adversary.Never{}
}

// Expectations are the counter assertions a scenario carries: the bounds
// the run's ScenarioReport must satisfy. Zero-valued checks are skipped, so
// each template enables exactly the assertions its threat model derives
// (EXPERIMENTS.md, "Scenario lab").
type Expectations struct {
	// MinCheatedTasks requires the adversary to actually show up.
	MinCheatedTasks int
	// TupleBoundSlack > 0 checks, for every tuple size with at least
	// MinCheatsPerK cheats, that the empirical detection rate is at least
	// the Proposition 2/3 bound (DetectionAtSplit at the measured share)
	// minus this slack.
	TupleBoundSlack float64
	MinCheatsPerK   int
	// MaxWrongFrac and MinWrongFrac bound WrongAccepted/Tasks.
	MaxWrongFrac float64
	MinWrongFrac float64
	// MaxHonestBlacklistedFrac bounds false implications relative to the
	// population.
	MaxHonestBlacklistedFrac float64
	// MinChurned requires the Sybil-churn loop to have cycled identities.
	MinChurned int
	// RequireStrike asserts the sleeper armed and struck, no earlier than
	// MinStrikeProgress of the run.
	RequireStrike     bool
	MinStrikeProgress float64
	// NoOutsidePocketCheats pins the pocket template's footprint.
	NoOutsidePocketCheats bool
	// MaxDetectionAtK1, when > 0, asserts a conditional-evasion ceiling:
	// the empirical detection rate at k=1 stays below it even though the
	// unconditional bound P(1,p) is far higher. The pocket (ID-order
	// leakage) and straggler-cover (timing conditioning) templates pin
	// their evasion with it — the regression test documents the gap
	// instead of pretending the average-case bound holds.
	MaxDetectionAtK1 float64
	// PHatRises asserts the estimator's final-quarter p̂ exceeds the
	// first-quarter p̂ (drift became visible).
	PHatRises bool
	// PHatFinalMin/Max envelope the final point estimate when Max > 0.
	PHatFinalMin, PHatFinalMax float64
	// MaxIntervalWidth, when > 0, asserts the Wilson interval converged.
	MaxIntervalWidth float64
}

// Scenario is one named pathological template: a config plus the counter
// expectations its threat model implies.
type Scenario struct {
	// Name is the registry key (Template* constant).
	Name string
	// Threat is a one-line statement of the threat model.
	Threat string
	Config ScenarioConfig
	Expect Expectations
}

// TupleCounter is the per-tuple-size slice of a scenario report: the
// ground-truth counters of Report.PerTuple plus the Proposition 2/3 bound
// evaluated at the measured coalition share.
type TupleCounter struct {
	K          int
	Held       int
	Cheated    int
	Detected   int
	Undetected int
	// Rate is the empirical detection probability Detected/Cheated
	// (0 when no cheats).
	Rate float64
	// Bound is DetectionAtSplit(k, p̂_measured) for the deployed plan.
	Bound float64
}

// PHatTrace is the estimator's convergence trajectory over the run.
type PHatTrace struct {
	// Quarters holds p̂ after 25/50/75/100% of adjudications.
	Quarters [4]float64
	// Final, Lower, Upper and Samples snapshot the last estimate.
	Final, Lower, Upper float64
	Samples             float64
	// TrueBadFrac is the ground-truth suspect share of all credited
	// copies; LastQuarterBadFrac restricts it to the final quarter.
	TrueBadFrac        float64
	LastQuarterBadFrac float64
}

// ScenarioReport is the JSON counter report of one scenario run. All
// floating-point fields are rounded to six decimals so reports are
// byte-stable across platforms and suitable as golden files.
type ScenarioReport struct {
	Scenario string
	Strategy string
	Config   ScenarioConfig

	PlannedTasks         int
	Tasks                int
	Assignments          int
	Participants         int // final population, including churned identities
	AdversaryAssignments int
	ControlledProportion float64
	Makespan             float64
	MeanTaskTime         float64

	FirstDetectionTime        float64
	TasksBeforeFirstDetection int

	PerTuple []TupleCounter

	CheatedTasks     int
	DetectedCheats   int
	UndetectedCheats int
	// FullyHeldCheats counts cheated non-ringer tasks of which the
	// coalition held every copy — the only cheats full-quorum adjudication
	// can certify (UndetectedCheats must equal it exactly).
	FullyHeldCheats int
	// PartialTupleCheats/Detected count cheats on tuples with at least one
	// honest copy; full-quorum adjudication detects all of them.
	PartialTupleCheats   int
	PartialTupleDetected int

	WrongAccepted      int
	MismatchDetections int
	RingersCaught      int
	BlacklistedMembers int
	HonestBlacklisted  int

	// ChurnedIdentities counts fresh Sybil registrations after blocks.
	ChurnedIdentities int
	// StrikeProgress/StrikeTime locate the first cheated submission
	// (-1 when the coalition never struck) — the sleeper latency counters.
	StrikeProgress float64
	StrikeTime     float64
	// OutsidePocketCheats counts cheats outside the configured slice.
	OutsidePocketCheats int

	PHat PHatTrace

	// Violations lists every expectation the run failed (empty = green).
	Violations []string
}

func round6(x float64) float64 {
	if !finite(x) {
		return x
	}
	return math.Round(x*1e6) / 1e6
}

// labState is the scenario lab's accumulator threaded through the hooks.
type labState struct {
	// co is the run's coalition, captured on the first verdict. It is the
	// one piece of the runtime the report needs after the run, so the lab
	// holds it alone and the rest (queue, collector, backlogs) can go.
	co *adversary.Coalition

	last        adapt.Estimate
	adjudicated int
	qBounds     [4]int
	qPhat       [4]float64
	credits     int
	badCredits  int
	q4credits   int
	q4bad       int

	// task holds, per task ID, the census facts its verdict settled
	// (taskDetected, taskRinger, taskPartial), one byte a task.
	task []uint8

	strikeProgress float64
	strikeTime     float64

	// Sybil-churn pool: active lists ids the supervisor still deals to,
	// pos[id] is the id's index in active (-1 = blocked/never admitted).
	// Participant IDs are int32 (runWithHooks refuses more).
	active  []int32
	pos     []int32
	churned int
}

// Census facts of a task, set from its verdict.
const (
	taskDetected uint8 = 1 << iota // the verdict exposed a mismatch
	taskRinger                     // a ringer task
	taskPartial                    // the coalition held fewer copies than the task has
)

func (l *labState) isActive(id int) bool { return id < len(l.pos) && l.pos[id] >= 0 }

func (l *labState) admit(id int) {
	for len(l.pos) <= id {
		l.pos = append(l.pos, -1)
	}
	l.pos[id] = int32(len(l.active))
	l.active = append(l.active, int32(id))
}

func (l *labState) block(id int) {
	i := l.pos[id]
	last := len(l.active) - 1
	moved := l.active[last]
	l.active[i] = moved
	l.pos[moved] = i
	l.active = l.active[:last]
	l.pos[id] = -1
}

// RunScenario executes one scenario end to end and returns its counter
// report, with Violations already populated from the scenario's
// expectations. The run is fully deterministic in the config (including
// the seed): identical configs produce byte-identical JSON reports.
func RunScenario(sc Scenario) (*ScenarioReport, error) {
	cfg := sc.Config
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	pl, err := plan.Balanced(cfg.Tasks, cfg.Epsilon)
	if err != nil {
		return nil, err
	}
	total := pl.TotalTasks() + pl.TotalRingers()

	z := cfg.EstimatorZ
	if z == 0 {
		z = adapt.DefaultZ
	}
	decay := cfg.EstimatorDecay
	if decay == 0 {
		decay = adapt.DefaultDecay
	}
	est := adapt.NewEstimator(z, decay)

	lab := &labState{
		task:           make([]uint8, total),
		strikeProgress: -1,
		strikeTime:     -1,
		qBounds: [4]int{
			(total + 3) / 4, (total + 1) / 2, (3*total + 3) / 4, total,
		},
	}
	est.SetObserver(func(e adapt.Estimate) { lab.last = e })

	churn := cfg.Template == TemplateSybilChurn
	var h hooks
	if churn {
		lab.active = make([]int32, 0, cfg.Participants)
		lab.pos = make([]int32, 0, cfg.Participants)
		for i := 0; i < cfg.Participants; i++ {
			lab.admit(i)
		}
		h.pickWorker = func(rt *runtime) int {
			return int(lab.active[rt.rDeal.Intn(len(lab.active))])
		}
	}
	if cfg.DealFraction > 0 {
		window := int(cfg.DealFraction * float64(cfg.Participants))
		if window < 64 {
			window = 64
		}
		h.dealGate = func(rt *runtime) bool { return rt.queue.Outstanding() < window }
	}
	h.onSubmit = func(rt *runtime, w int, a sched.Assignment, cheated bool) {
		if cheated && lab.strikeProgress < 0 {
			lab.strikeProgress = rt.progress()
			lab.strikeTime = rt.now
		}
	}
	h.onVerdict = func(rt *runtime, v *verify.Verdict) {
		lab.co = rt.coalition
		est.Observe(v.Copies, len(v.Suspects))
		lab.credits += v.Copies
		lab.badCredits += len(v.Suspects)
		lab.adjudicated++
		if lab.adjudicated > lab.qBounds[2] {
			lab.q4credits += v.Copies
			lab.q4bad += len(v.Suspects)
		}
		for i, b := range lab.qBounds {
			if lab.adjudicated == b {
				lab.qPhat[i] = lab.last.PHat
			}
		}
		if v.TaskID < len(lab.task) {
			// A verdict comes after every copy was dealt, so the
			// coalition's holding of the task is final here.
			var f uint8
			if v.MismatchDetected {
				f |= taskDetected
			}
			if v.Ringer {
				f |= taskRinger
			}
			if rt.coalition.CopiesHeld(v.TaskID) < v.Copies {
				f |= taskPartial
			}
			lab.task[v.TaskID] = f
		}
		if churn {
			// The supervisor blocks every implicated identity; the
			// coalition re-registers a fresh Sybil for each blocked
			// member while its churn budget lasts. A safety floor keeps
			// at least half the population dealable so a pathological
			// blacklist cannot starve the run.
			for _, s := range v.Suspects {
				if !lab.isActive(s) || len(lab.active) <= cfg.Participants/2 {
					continue
				}
				lab.block(s)
				if rt.coalition.Controls(s) && lab.churned < cfg.MaxChurn {
					id := rt.addParticipant()
					rt.coalition.AddMember(id)
					lab.admit(id)
					lab.churned++
				}
			}
		}
	}

	mean := cfg.MeanServiceTime
	rep, err := runWithHooks(Config{
		Plan:                pl,
		Policy:              sched.Free,
		Participants:        cfg.Participants,
		AdversaryProportion: cfg.AdversaryProportion,
		Strategy:            cfg.buildStrategy(),
		MeanServiceTime:     mean,
		Service:             cfg.Service,
		ServiceShape:        cfg.ServiceShape,
		Seed:                cfg.Seed,
	}, h)
	if err != nil {
		return nil, err
	}

	out := &ScenarioReport{
		Scenario:                  sc.Name,
		Strategy:                  cfg.buildStrategy().Name(),
		Config:                    cfg,
		PlannedTasks:              total,
		Tasks:                     rep.Tasks,
		Assignments:               rep.Assignments,
		Participants:              cfg.Participants + lab.churned,
		AdversaryAssignments:      rep.AdversaryAssignments,
		ControlledProportion:      round6(rep.ControlledProportion),
		Makespan:                  round6(rep.Makespan),
		MeanTaskTime:              round6(rep.MeanTaskTime),
		FirstDetectionTime:        round6(rep.FirstDetectionTime),
		TasksBeforeFirstDetection: rep.TasksBeforeFirstDetection,
		WrongAccepted:             rep.WrongAccepted,
		MismatchDetections:        rep.MismatchDetections,
		RingersCaught:             rep.RingersCaught,
		BlacklistedMembers:        rep.BlacklistedMembers,
		HonestBlacklisted:         rep.HonestBlacklisted,
		ChurnedIdentities:         lab.churned,
		StrikeProgress:            round6(lab.strikeProgress),
		StrikeTime:                round6(lab.strikeTime),
	}

	// Per-tuple counters with the Proposition 2/3 bound at the measured
	// share.
	regD, ringD := pl.SplitDistribution()
	p := rep.ControlledProportion
	out.PerTuple = make([]TupleCounter, len(rep.PerTuple))
	for i, pt := range rep.PerTuple {
		tc := TupleCounter{
			K: pt.K, Held: pt.Held, Cheated: pt.Cheated,
			Detected: pt.Detected, Undetected: pt.Undetected,
		}
		if pt.Cheated > 0 {
			tc.Rate = round6(float64(pt.Detected) / float64(pt.Cheated))
		}
		if p >= 0 && p < 1 {
			tc.Bound = round6(dist.DetectionAtSplit(regD, ringD, pt.K, p))
		}
		out.PerTuple[i] = tc
	}

	// Ground-truth cheat census over the coalition's holdings.
	if co := lab.co; co != nil {
		for _, t := range co.HeldTasks() {
			if !co.CheatsOn(t) {
				continue
			}
			out.CheatedTasks++
			var f uint8
			if t < len(lab.task) {
				f = lab.task[t]
			}
			det := f&taskDetected != 0
			if det {
				out.DetectedCheats++
			} else {
				out.UndetectedCheats++
			}
			if f&taskPartial != 0 {
				out.PartialTupleCheats++
				if det {
					out.PartialTupleDetected++
				}
			} else if f&taskRinger == 0 {
				out.FullyHeldCheats++
			}
			if cfg.Template == TemplatePocket {
				frac := float64(t) / float64(total)
				if frac < cfg.PocketLo || frac >= cfg.PocketHi {
					out.OutsidePocketCheats++
				}
			}
		}
	}

	// Estimator trajectory.
	for i, q := range lab.qPhat {
		out.PHat.Quarters[i] = round6(q)
	}
	out.PHat.Final = round6(lab.last.PHat)
	out.PHat.Lower = round6(lab.last.Lower)
	out.PHat.Upper = round6(lab.last.Upper)
	out.PHat.Samples = round6(lab.last.Samples)
	if lab.credits > 0 {
		out.PHat.TrueBadFrac = round6(float64(lab.badCredits) / float64(lab.credits))
	}
	if lab.q4credits > 0 {
		out.PHat.LastQuarterBadFrac = round6(float64(lab.q4bad) / float64(lab.q4credits))
	}

	out.Violations = sc.Check(out)
	return out, nil
}

// Check evaluates the scenario's expectations against a finished report
// and returns one message per violated assertion (empty = all bounds
// hold). The universal invariants — adjudication completeness and the
// full-quorum guarantee that only fully-held non-ringer tuples escape —
// are checked for every template.
func (s Scenario) Check(r *ScenarioReport) []string {
	var out []string
	fail := func(format string, a ...any) { out = append(out, fmt.Sprintf(format, a...)) }
	e := s.Expect
	cfg := s.Config

	if r.Tasks != r.PlannedTasks {
		fail("adjudicated %d of %d planned tasks", r.Tasks, r.PlannedTasks)
	}
	if d := math.Abs(r.ControlledProportion - cfg.AdversaryProportion); d > 0.03 {
		fail("measured share %.4f strays %.4f from configured p=%.4f",
			r.ControlledProportion, d, cfg.AdversaryProportion)
	}
	if r.UndetectedCheats != r.FullyHeldCheats {
		fail("full-quorum invariant broken: %d undetected cheats vs %d fully-held tuples",
			r.UndetectedCheats, r.FullyHeldCheats)
	}
	if r.PartialTupleCheats != r.PartialTupleDetected {
		fail("partial-tuple invariant broken: %d cheats on tuples with honest copies, only %d detected",
			r.PartialTupleCheats, r.PartialTupleDetected)
	}

	if r.CheatedTasks < e.MinCheatedTasks {
		fail("adversary too quiet: %d cheated tasks < %d expected", r.CheatedTasks, e.MinCheatedTasks)
	}
	if e.TupleBoundSlack > 0 {
		for _, tc := range r.PerTuple {
			if tc.Cheated < e.MinCheatsPerK {
				continue
			}
			if tc.Rate < tc.Bound-e.TupleBoundSlack {
				fail("detection at k=%d is %.4f, below bound %.4f - slack %.4f (%d cheats)",
					tc.K, tc.Rate, tc.Bound, e.TupleBoundSlack, tc.Cheated)
			}
		}
	}
	if r.Tasks > 0 {
		wrong := float64(r.WrongAccepted) / float64(r.Tasks)
		if e.MaxWrongFrac > 0 && wrong > e.MaxWrongFrac {
			fail("wrong-accepted fraction %.5f exceeds %.5f", wrong, e.MaxWrongFrac)
		}
		if wrong < e.MinWrongFrac {
			fail("wrong-accepted fraction %.5f below expected floor %.5f", wrong, e.MinWrongFrac)
		}
	}
	if e.MaxHonestBlacklistedFrac > 0 && cfg.Participants > 0 {
		if f := float64(r.HonestBlacklisted) / float64(cfg.Participants); f > e.MaxHonestBlacklistedFrac {
			fail("honest-blacklisted fraction %.5f exceeds %.5f", f, e.MaxHonestBlacklistedFrac)
		}
	}
	if e.MinChurned > 0 && r.ChurnedIdentities < e.MinChurned {
		fail("only %d identities churned, expected at least %d", r.ChurnedIdentities, e.MinChurned)
	}
	if e.RequireStrike {
		if r.StrikeProgress < 0 {
			fail("sleeper never struck")
		} else if r.StrikeProgress < e.MinStrikeProgress {
			fail("sleeper struck at progress %.5f, before the %.5f sleep floor",
				r.StrikeProgress, e.MinStrikeProgress)
		}
	}
	if e.NoOutsidePocketCheats && r.OutsidePocketCheats > 0 {
		fail("%d cheats leaked outside the pocket slice", r.OutsidePocketCheats)
	}
	if e.MaxDetectionAtK1 > 0 && len(r.PerTuple) > 0 {
		if tc := r.PerTuple[0]; tc.Cheated >= e.MinCheatsPerK && tc.Rate > e.MaxDetectionAtK1 {
			fail("1-tuple detection %.4f exceeds evasion ceiling %.4f (unconditional bound %.4f)",
				tc.Rate, e.MaxDetectionAtK1, tc.Bound)
		}
	}
	if e.PHatRises && !(r.PHat.Quarters[3] > r.PHat.Quarters[0]) {
		fail("p-hat did not rise: quarters %v", r.PHat.Quarters)
	}
	if e.PHatFinalMax > 0 && (r.PHat.Final < e.PHatFinalMin || r.PHat.Final > e.PHatFinalMax) {
		fail("final p-hat %.5f outside envelope [%.5f,%.5f]",
			r.PHat.Final, e.PHatFinalMin, e.PHatFinalMax)
	}
	if e.MaxIntervalWidth > 0 && r.PHat.Upper-r.PHat.Lower > e.MaxIntervalWidth {
		fail("Wilson interval [%.5f,%.5f] wider than %.5f",
			r.PHat.Lower, r.PHat.Upper, e.MaxIntervalWidth)
	}
	return out
}
