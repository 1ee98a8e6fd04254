// Package sim provides the Monte-Carlo machinery that cross-validates the
// paper's closed-form probabilities:
//
//   - a discrete-event simulation (virtual clock + typed event heap) of a
//     full supervisor/participant volunteer computation under a chosen
//     distribution plan, scheduling policy, and adversary coalition;
//   - a fast binomial-thinning sampler matching the exact probabilistic
//     model used in the paper's proofs, for high-replication experiments;
//   - the Appendix-A two-phase experiment measuring how many tasks a
//     p-proportion adversary fully controls under simple redundancy.
package sim

import (
	"fmt"
	"math"

	"redundancy/internal/adversary"
	"redundancy/internal/plan"
	"redundancy/internal/rng"
	"redundancy/internal/sched"
	"redundancy/internal/verify"
)

// HonestValue is the deterministic "work function" of the simulated
// computation: the correct result of a task is a hash of its ID. Any
// collision-free mixing works; the verifier only compares values.
func HonestValue(taskID int) uint64 { return rng.Mix64(uint64(taskID) + 0x9E3779B97F4A7C15) }

// Config parameterizes one full discrete-event run of a volunteer
// computation.
type Config struct {
	// Plan is the deployed distribution plan (real tasks + ringers).
	Plan *plan.Plan
	// Policy is the assignment-release discipline.
	Policy sched.Policy
	// Participants is the number of registered participants (honest +
	// coalition members).
	Participants int
	// AdversaryProportion is the fraction of participants the coalition
	// controls. Because each assignment lands on a participant drawn at
	// random, all equally likely, this is also the expected fraction of
	// assignments it holds — the paper's p.
	AdversaryProportion float64
	// Strategy drives the coalition's cheat decisions. Nil means a fully
	// honest run.
	Strategy adversary.Strategy
	// MeanServiceTime is the mean per-assignment compute time (virtual
	// time units). Zero means 1.
	MeanServiceTime float64
	// Service selects the compute-time law (default ServiceExponential).
	// Volunteer hosts are famously heterogeneous; the heavy-tailed laws
	// model stragglers.
	Service ServiceDist
	// ServiceShape parameterizes the law: σ of the underlying normal for
	// log-normal (default 1), tail index α for Pareto (default 2.5).
	ServiceShape float64
	// Seed makes the run reproducible.
	Seed uint64
}

// ServiceDist selects the per-assignment compute-time distribution.
type ServiceDist int

// Available service-time laws.
const (
	// ServiceExponential is the memoryless default.
	ServiceExponential ServiceDist = iota
	// ServiceLogNormal has a moderate right tail.
	ServiceLogNormal
	// ServicePareto has a power-law tail: rare extreme stragglers.
	ServicePareto
	// ServiceConstant is deterministic (useful for exact-time tests).
	ServiceConstant
)

// PerTuple aggregates ground-truth outcomes for tasks of which the
// coalition held exactly K copies.
type PerTuple struct {
	K          int
	Held       int // tasks with exactly K copies held
	Cheated    int // of those, tasks the coalition cheated on
	Detected   int // cheats exposed (mismatch or ringer)
	Undetected int // cheats certified as correct results
}

// Report is the outcome of one simulated computation.
type Report struct {
	Makespan     float64 // virtual completion time
	MeanTaskTime float64 // mean virtual time at which tasks were certified
	Assignments  int
	Tasks        int // real + ringer tasks adjudicated
	// FirstDetectionTime is the virtual time of the first exposed cheat
	// (-1 if none): how quickly an active adversary alerts the supervisor.
	FirstDetectionTime float64
	// TasksBeforeFirstDetection counts tasks certified before the first
	// exposure (equal to Tasks if none occurred).
	TasksBeforeFirstDetection int
	AdversaryAssignments      int
	ControlledProportion      float64 // measured fraction of assignments held
	PerTuple                  []PerTuple
	WrongAccepted             int // certified results that are in fact wrong
	MismatchDetections        int
	RingersCaught             int
	BlacklistedMembers        int
	HonestBlacklisted         int // honest participants falsely implicated
}

// DetectionRate returns the empirical detection probability among cheats
// at tuple size k in a PerTuple table (a Report's or a ThinningReport's),
// and ok=false if no such cheats occurred.
func DetectionRate(perTuple []PerTuple, k int) (rate float64, ok bool) {
	if k < 1 || k > len(perTuple) {
		return 0, false
	}
	pt := perTuple[k-1]
	if pt.Cheated == 0 {
		return 0, false
	}
	return float64(pt.Detected) / float64(pt.Cheated), true
}

// simWorker is the per-participant state of a run in 12 bytes: a FIFO
// backlog each (an intrusive list through the run's shared assignment
// arena, so a million workers cost no per-worker allocations), and the
// arena index of the assignment in service. A worker with cur >= 0 is
// busy and has a completion event in flight for that entry.
type simWorker struct {
	head, tail int32 // backlog list through runtime.nextOf (-1 = empty)
	cur        int32 // backlogA index in service (-1 = idle)
}

func (wk *simWorker) busy() bool { return wk.cur >= 0 }

// runtime is the live state of one discrete-event run, exposed to the
// scenario lab's hooks. It wires the real production components together:
// the virtual clock, the sched queue, the verify collector and the
// adversary coalition — the scenario layer only observes and steers.
type runtime struct {
	now       float64 // virtual clock: the time of the event in progress
	queue     *sched.Queue
	coalition *adversary.Coalition
	workers   []simWorker

	// backlogA/nextOf form the shared backlog arena, 12 bytes an
	// assignment: dealt assignments append to backlogA in sched's 8-byte
	// slot, nextOf threads each worker's FIFO through it. Entries are
	// never removed, so an index names its assignment for the whole run.
	backlogA []sched.Slot
	nextOf   []int32

	// submitted counts results returned to the supervisor so far; with
	// queue.Total() it is the coalition's progress clock.
	submitted int
	// honestReturned[taskID] counts results returned by non-coalition
	// participants, the straggler-cover observable.
	honestReturned []int32
	// maxHeld is the coalition's largest holding of any single task, the
	// sleeper-agent trigger observable.
	maxHeld int

	rDeal *rng.Source
}

// addParticipant registers a fresh identity mid-run (Sybil churn) and
// returns its ID. The new participant is idle with an empty backlog; the
// caller decides whether it joins the coalition and whether the supervisor
// will deal to it.
func (rt *runtime) addParticipant() int {
	rt.workers = append(rt.workers, simWorker{head: -1, tail: -1, cur: -1})
	return len(rt.workers) - 1
}

// enqueue appends assignment a to worker w's backlog via the shared arena.
func (rt *runtime) enqueue(w int, a sched.Assignment) {
	idx := int32(len(rt.backlogA))
	s, _ := sched.Pack(a) // every copy the queue deals fits its slot
	rt.backlogA = append(rt.backlogA, s)
	rt.nextOf = append(rt.nextOf, -1)
	wk := &rt.workers[w]
	if wk.tail >= 0 {
		rt.nextOf[wk.tail] = idx
	} else {
		wk.head = idx
	}
	wk.tail = idx
}

// dequeue pops the head of worker w's backlog and returns its arena
// index, -1 when the backlog is empty.
func (rt *runtime) dequeue(w int) int32 {
	wk := &rt.workers[w]
	i := wk.head
	if i >= 0 {
		wk.head = rt.nextOf[i]
		if wk.head < 0 {
			wk.tail = -1
		}
	}
	return i
}

// progress returns the fraction of all assignments already submitted.
func (rt *runtime) progress() float64 {
	if t := rt.queue.Total(); t > 0 {
		return float64(rt.submitted) / float64(t)
	}
	return 0
}

// hooks are the scenario lab's observation and steering points. Every hook
// is optional; the zero value reproduces plain Run exactly (same rng
// streams, same event order).
type hooks struct {
	// pickWorker selects the recipient of an assignment. Default: a draw
	// over the configured participant count, each equally likely.
	pickWorker func(rt *runtime) int
	// dealGate, when set, is consulted before each hand-out; returning
	// false pauses dealing until the next completion re-opens the loop.
	// Scenarios use it to throttle the supervisor's release window so
	// holdings accrue over virtual time instead of all at t=0.
	dealGate func(rt *runtime) bool
	// onSubmit observes every returned result; cheated reports whether
	// the returned value differs from the honest one.
	onSubmit func(rt *runtime, w int, a sched.Assignment, cheated bool)
	// onVerdict observes every adjudication, after the report's standard
	// bookkeeping.
	onVerdict func(rt *runtime, v *verify.Verdict)
}

// Run executes one full discrete-event simulation.
func Run(cfg Config) (*Report, error) { return runWithHooks(cfg, hooks{}) }

// expandPlan builds a run's queue and collector from the plan's runs and
// returns how many tasks it holds.
func expandPlan(p *plan.Plan, policy sched.Policy, r *rng.Source) (*sched.Queue, *verify.Collector, int, error) {
	runs := p.Runs()
	queue, err := sched.NewRunQueue(runs, policy, r)
	if err != nil {
		return nil, nil, 0, err
	}
	collector := verify.NewCollector(HonestValue)
	collector.ExpectAll(runs)
	tasks := 0
	for _, run := range runs {
		tasks += run.Count
	}
	return queue, collector, tasks, nil
}

// runWithHooks is the instrumented core shared by Run and the scenario
// lab. The hot path is identical to the historical Run loop; hooks add
// observability without forking the logic.
func runWithHooks(cfg Config, h hooks) (*Report, error) {
	if cfg.Plan == nil {
		return nil, fmt.Errorf("sim: nil plan")
	}
	if cfg.Participants < 1 || cfg.Participants > math.MaxInt32 {
		return nil, fmt.Errorf("sim: participants must lie in [1,%d], got %d", math.MaxInt32, cfg.Participants)
	}
	// Every assignment takes one backlog entry, named by an int32 index,
	// and one event push, numbered by the heap's 32-bit seq; the int32
	// bound is the tighter. The plan counts its assignments without
	// expanding itself, so an unpackable run is refused before it costs
	// anything.
	if n := cfg.Plan.TotalAssignments(); n > math.MaxInt32 {
		return nil, fmt.Errorf("sim: %d assignments exceed the run's int32 arena (at most %d)", n, math.MaxInt32)
	}
	if cfg.AdversaryProportion < 0 || cfg.AdversaryProportion >= 1 {
		return nil, fmt.Errorf("sim: adversary proportion must lie in [0,1), got %v", cfg.AdversaryProportion)
	}
	// ScenarioConfig.Validate refuses a non-finite law, and so must a raw
	// Config: its draws could be NaN, a time the event heap refuses.
	if !finite(cfg.MeanServiceTime) || !finite(cfg.ServiceShape) {
		return nil, fmt.Errorf("sim: service mean %v and shape %v must be finite", cfg.MeanServiceTime, cfg.ServiceShape)
	}
	mean := cfg.MeanServiceTime
	if mean <= 0 {
		mean = 1
	}
	shape := cfg.ServiceShape
	if shape <= 0 {
		switch cfg.Service {
		case ServicePareto:
			shape = 2.5
		default:
			shape = 1
		}
	}
	if cfg.Service == ServicePareto && shape <= 1 {
		return nil, fmt.Errorf("sim: Pareto service needs shape > 1, got %v", shape)
	}

	root := rng.New(cfg.Seed)
	rQueue := root.Split(1)
	rDeal := root.Split(2)
	rService := root.Split(3)
	rMembers := root.Split(4)

	queue, collector, nTasks, err := expandPlan(cfg.Plan, cfg.Policy, rQueue)
	if err != nil {
		return nil, err
	}

	strategy := cfg.Strategy
	if strategy == nil {
		strategy = adversary.Never{}
	}
	coalition := adversary.NewCoalition(strategy)
	nMembers := int(math.Round(cfg.AdversaryProportion * float64(cfg.Participants)))
	if nMembers > 0 {
		for _, m := range rMembers.SampleWithoutReplacement(cfg.Participants, nMembers) {
			coalition.AddMember(m)
		}
	}

	report := &Report{Assignments: queue.Total(), FirstDetectionTime: -1}
	rt := &runtime{
		queue:          queue,
		coalition:      coalition,
		workers:        make([]simWorker, cfg.Participants),
		backlogA:       make([]sched.Slot, 0, queue.Total()),
		nextOf:         make([]int32, 0, queue.Total()),
		honestReturned: make([]int32, nTasks),
		rDeal:          rDeal,
	}
	for w := range rt.workers {
		rt.workers[w] = simWorker{head: -1, tail: -1, cur: -1}
	}
	// Context-aware strategies (the scenario lab's pathological templates)
	// see the run-time observables; plain strategies ignore the provider.
	coalition.SetContext(func(taskID, held int) adversary.Context {
		honest := 0
		if taskID >= 0 && taskID < len(rt.honestReturned) {
			honest = int(rt.honestReturned[taskID])
		}
		return adversary.Context{
			TaskID:         taskID,
			CopiesHeld:     held,
			Tasks:          nTasks,
			Progress:       rt.progress(),
			HonestReturned: honest,
			MaxHeldAnyTask: rt.maxHeld,
		}
	})

	var taskTimeSum float64
	adjudicated := 0
	// verdict holds the verdict the latest result completed. It lives
	// beside the closures, so handing its address to the hook allocates
	// nothing per verdict.
	var verdict verify.Verdict

	var serviceTime func() float64
	switch cfg.Service {
	case ServiceLogNormal:
		serviceTime = func() float64 { return rService.LogNormal(mean, shape) }
	case ServicePareto:
		serviceTime = func() float64 { return rService.Pareto(mean, shape) }
	case ServiceConstant:
		serviceTime = func() float64 { return mean }
	case ServiceExponential:
		serviceTime = func() float64 { return rService.Exponential(mean) }
	default:
		return nil, fmt.Errorf("sim: unknown service distribution %d", cfg.Service)
	}

	var startNext func(w int)
	submit := func(w int, a sched.Assignment) {
		honest := HonestValue(a.TaskID)
		value := honest
		if coalition.Controls(w) {
			value = coalition.Value(a, honest) // cheat decision point
		}
		rt.submitted++
		if a.TaskID < len(rt.honestReturned) && !coalition.Controls(w) {
			rt.honestReturned[a.TaskID]++
		}
		if h.onSubmit != nil {
			h.onSubmit(rt, w, a, value != honest)
		}
		var done bool
		var err error
		if verdict, done, err = collector.Submit(verify.Result{Assignment: a, Participant: w, Value: value}); err != nil {
			panic("sim: " + err.Error()) // invariant: plan and queue agree
		}
		if done {
			taskTimeSum += rt.now
			adjudicated++
			if verdict.MismatchDetected && report.FirstDetectionTime < 0 {
				report.FirstDetectionTime = rt.now
				report.TasksBeforeFirstDetection = adjudicated - 1
			}
			if h.onVerdict != nil {
				h.onVerdict(rt, &verdict)
			}
		}
		queue.Complete(a)
	}

	// deal drains every currently-available assignment to random workers.
	deal := func() {
		for {
			if h.dealGate != nil && !h.dealGate(rt) {
				return
			}
			a, ok := queue.Next()
			if !ok {
				return
			}
			var w int
			if h.pickWorker != nil {
				w = h.pickWorker(rt)
			} else {
				w = rDeal.Intn(cfg.Participants)
			}
			if coalition.Controls(w) {
				coalition.Observe(a)
				report.AdversaryAssignments++
				if held := coalition.CopiesHeld(a.TaskID); held > rt.maxHeld {
					rt.maxHeld = held
				}
			}
			rt.enqueue(w, a)
			if !rt.workers[w].busy() {
				startNext(w)
			}
		}
	}

	// Completion events go through a typed min-heap keyed by worker id —
	// the worker's in-service assignment is the backlog entry its
	// simWorker.cur names — so the hot loop schedules no closures and
	// allocates nothing. Events pop in (time, then insertion seq) order.
	// Only a busy worker has an event in flight, so the heap never holds
	// more than min(participants, assignments) of them and never grows
	// (save for Sybil identities the scenario lab adds mid-run).
	events := newEventHeap(min(cfg.Participants, queue.Total()) + 1)
	startNext = func(w int) {
		wk := &rt.workers[w]
		if wk.cur = rt.dequeue(w); wk.busy() {
			events.push(rt.now+serviceTime(), 0, int32(w))
		}
	}

	// Kick off: distribute everything the policy allows at t=0, then run
	// the event loop dry.
	deal()
	for {
		at, _, arg, ok := events.pop()
		if !ok {
			break
		}
		rt.now = at
		w := int(arg)
		submit(w, rt.backlogA[rt.workers[w].cur].Assignment())
		// Completion may release held-back copies (one-outstanding,
		// phase two); hand them out before continuing.
		deal()
		startNext(w)
	}
	report.Makespan = rt.now
	// Every held task's cheat decision is memoized by now (a member
	// returned each copy it held), so the context provider is done with.
	// Dropped, it no longer pins the runtime to a coalition that outlives
	// the run.
	coalition.SetContext(nil)

	if !queue.Done() {
		return nil, fmt.Errorf("sim: queue not drained (%d of %d issued)", queue.Issued(), queue.Total())
	}

	// Ground-truth bookkeeping.
	report.ControlledProportion =
		float64(report.AdversaryAssignments) / float64(report.Assignments)
	for i := range collector.NumVerdicts() {
		v := collector.VerdictAt(i)
		report.Tasks++
		if v.MismatchDetected {
			report.MismatchDetections++
			if v.Ringer {
				report.RingersCaught++
			}
		}
		if v.Accepted && v.Value != HonestValue(v.TaskID) {
			report.WrongAccepted++
		}
	}
	if report.Tasks > 0 {
		report.MeanTaskTime = taskTimeSum / float64(report.Tasks)
	}
	if report.FirstDetectionTime < 0 {
		report.TasksBeforeFirstDetection = report.Tasks
	}

	// rt.maxHeld tracked the running maximum across every Observe, so the
	// tuple table needs no extra pass to size itself.
	report.PerTuple = make([]PerTuple, rt.maxHeld)
	for k := range report.PerTuple {
		report.PerTuple[k].K = k + 1
	}
	for _, t := range coalition.HeldTasks() {
		k := coalition.CopiesHeld(t)
		pt := &report.PerTuple[k-1]
		pt.Held++
		if coalition.CheatsOn(t) {
			pt.Cheated++
			if v, ok := collector.VerdictFor(t); ok && v.MismatchDetected {
				pt.Detected++
			} else {
				pt.Undetected++
			}
		}
	}

	for _, m := range collector.Blacklist() {
		if coalition.Controls(m) {
			report.BlacklistedMembers++
		} else {
			report.HonestBlacklisted++
		}
	}
	return report, nil
}
