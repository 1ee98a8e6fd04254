package main

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"time"

	"redundancy"
	"redundancy/internal/adapt"
	"redundancy/internal/agg"
	"redundancy/internal/experiments"
	"redundancy/internal/plan"
	"redundancy/internal/platform"
	"redundancy/internal/ring"
	"redundancy/internal/rng"
	"redundancy/internal/sched"
	"redundancy/internal/sim"
	"redundancy/internal/stats"
	"redundancy/internal/verify"
)

// The replays feed a workload's own generated inputs through one layer at
// a time, from bench/ only, by calling the layer's exported functions. What
// they cost in isolation is what the budget row subtracts from the
// process's CPU per assignment; what is left is the server residual.

// sink defeats dead-code elimination of replayed pure calls.
var sink uint64

// perOp times fn over n operations and returns nanoseconds per operation.
func perOp(n int, fn func()) float64 {
	start := time.Now()
	fn()
	return float64(time.Since(start)) / float64(max(n, 1))
}

type codecCost struct {
	encodeNs, decodeNs, allocs, wireBytes float64 // per assignment
}

// leaseMessages is the message mix one lease of `batch` assignments puts on
// the wire: the worker's request and result, the supervisor's work and ack.
func leaseMessages(batch, taskBase int) []platform.Message {
	const pid = 1
	if batch <= 1 {
		seed := platform.TaskSeed(taskBase)
		return []platform.Message{
			{Type: platform.MsgRequestWork, ParticipantID: pid},
			{Type: platform.MsgWork, TaskID: taskBase, Copy: 1, Kind: workKind, Seed: seed, Iters: iters},
			{Type: platform.MsgResult, ParticipantID: pid, TaskID: taskBase, Copy: 1, Value: platform.HashChain(seed, iters)},
			{Type: platform.MsgAck},
		}
	}
	work := make([]platform.WorkItem, batch)
	results := make([]platform.ResultItem, batch)
	acks := make([]platform.ResultAck, batch)
	for i := range work {
		id, cp := taskBase+i*7, i%2
		seed := platform.TaskSeed(id)
		work[i] = platform.WorkItem{TaskID: id, Copy: cp, Seed: seed}
		results[i] = platform.ResultItem{TaskID: id, Copy: cp, Value: platform.HashChain(seed, iters)}
		acks[i] = platform.ResultAck{TaskID: id, Copy: cp, OK: true}
	}
	return []platform.Message{
		{Type: platform.MsgGetWork, ParticipantID: pid, Batch: batch},
		{Type: platform.MsgWorkBatch, Kind: workKind, Iters: iters, Work: work},
		{Type: platform.MsgResultBatch, ParticipantID: pid, Results: results},
		{Type: platform.MsgBatchAck, Acks: acks},
	}
}

// replayCodec frames `assignments` worth of leases through a Codec over a
// buffer, in the workload's own proto and batch size. Each message is
// encoded once and decoded once, which is the two ends' total.
func replayCodec(proto string, batch, assignments, tasks int) (codecCost, error) {
	batch = max(batch, 1)
	leases := max(assignments/batch, 1)
	n := leases * batch
	msgs := leaseMessages(batch, tasks/2)
	var buf bytes.Buffer
	c := platform.NewCodec(&buf)
	if proto == redundancy.ProtoBinary {
		c.EnableBinary()
	}
	for _, m := range msgs { // size the buffer from one lease
		if err := c.Send(m); err != nil {
			return codecCost{}, err
		}
	}
	perLease := buf.Len()
	for range msgs {
		if _, err := c.Recv(); err != nil {
			return codecCost{}, err
		}
	}
	buf.Reset()
	buf.Grow(perLease * leases)

	var cost codecCost
	var err error
	allocs := mallocsDuring(func() {
		cost.encodeNs = perOp(n, func() {
			for l := 0; l < leases && err == nil; l++ {
				for _, m := range msgs {
					if err = c.Send(m); err != nil {
						break
					}
				}
			}
		})
		cost.wireBytes = float64(buf.Len()) / float64(n)
		cost.decodeNs = perOp(n, func() {
			for i := 0; i < leases*len(msgs) && err == nil; i++ {
				var m platform.Message
				m, err = c.Recv()
				sink += uint64(len(m.Work) + len(m.Results) + len(m.Acks))
			}
		})
	})
	cost.allocs = float64(allocs) / float64(n)
	return cost, err
}

type schedVerifyCost struct {
	newQueueMs                        float64
	nextBatchNs, completeNs, submitNs float64 // per assignment
	submitAllocs                      float64
}

// replaySchedVerify deals the plan's whole queue in leases of `batch`,
// completes every assignment, and submits every (honest) result to a
// collector: the calls the supervisor makes per assignment, without the
// supervisor. reserve pre-sizes the collector as the simulator does.
func replaySchedVerify(specs []plan.TaskSpec, seed uint64, batch int, reserve bool) (schedVerifyCost, error) {
	var cost schedVerifyCost
	batch = max(batch, 1)
	start := time.Now()
	q, err := sched.NewQueue(specs, sched.Free, rng.New(seed))
	if err != nil {
		return cost, err
	}
	cost.newQueueMs = float64(time.Since(start)) / 1e6
	total := q.Total()
	order := make([]sched.Assignment, 0, total)
	cost.nextBatchNs = perOp(total, func() {
		for {
			before := len(order)
			order = q.NextBatch(order, batch)
			if len(order) == before {
				return
			}
		}
	})
	if len(order) != total {
		return cost, fmt.Errorf("replay.sched: dealt %d of %d assignments", len(order), total)
	}
	cost.completeNs = perOp(total, func() {
		for _, a := range order {
			q.Complete(a)
		}
	})
	if !q.Done() {
		return cost, fmt.Errorf("replay.sched: queue not done after completing every assignment")
	}

	col := verify.NewCollector(truthValue)
	for _, sp := range specs {
		col.Expect(sp.ID, sp.Copies)
	}
	if reserve {
		col.Reserve(total)
	}
	results := make([]verify.Result, len(order))
	for i, a := range order {
		results[i] = verify.Result{Assignment: a, Participant: i % nWorkers, Value: truthValue(a.TaskID)}
	}
	allocs := mallocsDuring(func() {
		cost.submitNs = perOp(total, func() {
			for i := range results {
				if _, _, err = col.Submit(results[i]); err != nil {
					return
				}
			}
		})
	})
	if err != nil {
		return cost, fmt.Errorf("replay.verify: %w", err)
	}
	if st := col.Stats(); st.Accepted != len(specs) {
		return cost, fmt.Errorf("replay.verify: accepted %d of %d tasks", st.Accepted, len(specs))
	}
	cost.submitAllocs = float64(allocs) / float64(total)
	return cost, nil
}

// replayPlan times building the workload's own plan (returned) and expanding
// its tasks, and asserts the paper's claim at the workload's size: the
// theoretical Balanced scheme has
// min P_k = ε at redundancy factor ln(1/(1−ε))/ε, and the integer plan
// audits clean within rounding of that factor.
func replayPlan(build func() (*plan.Plan, error), tasks int, eps float64, rec *recorder) (own *plan.Plan, buildMs float64, err error) {
	start := time.Now()
	own, err = build()
	if err != nil {
		return nil, 0, err
	}
	sink += uint64(len(own.Tasks()))
	buildMs = float64(time.Since(start)) / 1e6

	p, err := plan.Balanced(tasks, eps)
	if err != nil {
		return own, buildMs, err
	}
	problems := p.Audit(1e-9)
	rec.check(len(problems) == 0, "plan.Balanced(%d, %g) audit: %v", tasks, eps, problems)
	d, err := redundancy.Balanced(float64(tasks), eps)
	if err != nil {
		return own, buildMs, err
	}
	minP, k := redundancy.MinDetection(d, 0)
	rec.check(math.Abs(minP-eps) < 1e-9, "Balanced min P_k = %.12f at k=%d, want ε = %g", minP, k, eps)
	wantRF := redundancy.BalancedRedundancyFactor(eps)
	rec.check(math.Abs(d.RedundancyFactor()-wantRF) < 1e-9, "Balanced RF = %.12f, want ln(1/(1−ε))/ε = %.12f", d.RedundancyFactor(), wantRF)
	rec.check(math.Abs(p.RedundancyFactor()-wantRF) < 0.01*wantRF, "integer plan RF = %.6f strays over 1%% from %.6f", p.RedundancyFactor(), wantRF)
	return own, buildMs, nil
}

// replayWork times the worker's compute per assignment.
func replayWork(n int) float64 {
	return perOp(n, func() {
		for i := 0; i < n; i++ {
			sink += platform.HashChain(platform.TaskSeed(i), iters)
		}
	})
}

// ringOf rebuilds the ring a cluster routes by from its published shard
// map: same vnodes, same seed, same shard names.
func ringOf(m redundancy.ShardMap) (*ring.Ring, []string, error) {
	shards := make([]string, len(m.Shards))
	for i, s := range m.Shards {
		shards[i] = s.Name
	}
	r, err := ring.New(ring.Config{VNodes: m.VNodes, Seed: m.Seed}, shards...)
	return r, shards, err
}

// replayRing looks every task of the plan up on the cluster's own ring,
// as NewCluster does to partition them.
func replayRing(specs []plan.TaskSpec, m redundancy.ShardMap) (lookupNs float64, err error) {
	r, _, err := ringOf(m)
	if err != nil {
		return 0, err
	}
	return perOp(len(specs), func() {
		for _, sp := range specs {
			owner, _ := r.LookupUint64(uint64(sp.ID))
			sink += uint64(len(owner))
		}
	}), nil
}

// replayJournal makes a traced round's own sequence of Write and Sync calls
// on a fresh journal file while nothing else runs, and returns the process
// CPU they cost. The fsync is a real one; the time it spends waiting for the
// disk is not CPU and is not counted.
func replayJournal(path string, ops []int) (cpu time.Duration, err error) {
	longest := 0
	for _, n := range ops {
		longest = max(longest, n)
	}
	buf := make([]byte, longest)
	os.Remove(path)
	jf, err := redundancy.OpenJournalFile(path)
	if err != nil {
		return 0, err
	}
	defer os.Remove(path)
	before := readUsage()
	for _, n := range ops {
		if n == journalSyncOp {
			err = jf.Sync()
		} else {
			_, err = jf.Write(buf[:n])
		}
		if err != nil {
			break
		}
	}
	cpu = readUsage().since(before).cpu()
	if cerr := jf.Close(); err == nil {
		err = cerr
	}
	return cpu, err
}

// replayAgg times merging the shards' exports.
func replayAgg(exports []agg.ShardExport) float64 {
	const reps = 200
	return perOp(reps, func() {
		for i := 0; i < reps; i++ {
			sink += uint64(agg.Merge(exports, 0).Assignments)
		}
	}) / 1e3
}

type tailCost struct {
	arenaMs, trialNsPerCompletion, allocsPerTrial, parSpeedup float64
}

// balancedTailCell is the replays' input: the sweep's balanced cell with
// speculation on, i.e. plan.Balanced flattened into the tail engine's
// multiplicity histogram under the sweep's own fleet parameters.
func balancedTailCell(cfg experiments.TailSweepConfig) (sim.TailConfig, error) {
	p, err := plan.Balanced(cfg.Tasks, cfg.Epsilon)
	if err != nil {
		return sim.TailConfig{}, err
	}
	var classes []sim.TailClass
	for i, c := range p.Counts {
		if c > 0 {
			classes = append(classes, sim.TailClass{Copies: i + 1, Tasks: c})
		}
	}
	if p.TailTasks > 0 {
		classes = append(classes, sim.TailClass{Copies: p.TailMultiplicity, Tasks: p.TailTasks})
	}
	if p.Ringers > 0 {
		classes = append(classes, sim.TailClass{Copies: p.RingerMultiplicity, Tasks: p.Ringers})
	}
	return sim.TailConfig{
		Classes: classes, Participants: cfg.Participants,
		SpeedBase: cfg.SpeedBase, SpeedJitter: cfg.SpeedJitter, SpeedSpread: cfg.SpeedSpread,
		StragglerP: cfg.StragglerP, StragglerDelay: cfg.StragglerDelay,
		Speculate: true, SpeculatePct: cfg.SpeculatePct, Seed: cfg.Seed,
	}, nil
}

// replayTail builds one engine arena for the balanced cell, runs it trial
// by trial, then the same trials on one and on two pool workers.
func replayTail(cfg experiments.TailSweepConfig) (tailCost, error) {
	var cost tailCost
	tc, err := balancedTailCell(cfg)
	if err != nil {
		return cost, err
	}
	start := time.Now()
	e, err := sim.NewTailEngine(tc)
	if err != nil {
		return cost, err
	}
	cost.arenaMs = float64(time.Since(start)) / 1e6
	e.RunTrial(0) // first trial grows the sketches; steady state is what a sweep pays
	const trials = 3
	completions := 0
	start = time.Now()
	allocs := mallocsDuring(func() {
		for i := 0; i < trials; i++ {
			completions += e.RunTrial(i).Completions
		}
	})
	cost.trialNsPerCompletion = float64(time.Since(start)) / float64(completions)
	cost.allocsPerTrial = float64(allocs) / trials

	timeTrials := func(workers int) (time.Duration, error) {
		start := time.Now()
		_, err := sim.RunTailTrials(tc, 4, workers)
		return time.Since(start), err
	}
	one, err := timeTrials(1)
	if err != nil {
		return cost, err
	}
	two, err := timeTrials(simWorkers)
	if err != nil {
		return cost, err
	}
	cost.parSpeedup = float64(one) / float64(two)
	return cost, nil
}

// replaySketch times the quantile sketch on tail-shaped latencies.
func replaySketch() (addNs, mergeNs float64) {
	const n = 1 << 20
	r := rng.New(7)
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = 1 + r.Exponential(1)
	}
	a, b := stats.NewSketch(), stats.NewSketch()
	addNs = perOp(n, func() {
		for i, x := range xs {
			if i%2 == 0 {
				a.Add(x)
			} else {
				b.Add(x)
			}
		}
	})
	const merges = 2000
	mergeNs = perOp(merges, func() {
		for i := 0; i < merges; i++ {
			c := a.Clone()
			c.Merge(b)
			sink += uint64(c.Count())
		}
	})
	return addNs, mergeNs
}

// replayScenarioTemplates runs each template alone, single-threaded, and
// returns nanoseconds per task by template name, allocations per task over
// the five, and the sequential total for the pool-speedup ratio.
func replayScenarioTemplates(scs []redundancy.Scenario, rec *recorder, tr *tracer, parent int) (perTask map[string]float64, allocsPerTask float64, sequential time.Duration) {
	perTask = make(map[string]float64, len(scs))
	tasks := 0
	allocs := mallocsDuring(func() {
		for _, sc := range scs {
			span := tr.begin("replay.scenario."+sc.Name, parent)
			res := redundancy.RunScenarios([]redundancy.Scenario{sc}, 1)
			d := tr.end(span)
			checkScenarioReports(rec, replaysRound, []redundancy.Scenario{sc}, res)
			perTask[sc.Name] = float64(d) / float64(sc.Config.Tasks)
			sequential += d
			tasks += sc.Config.Tasks
		}
	})
	return perTask, float64(allocs) / float64(tasks), sequential
}

// replayAdapt times the estimator's per-verdict update and one controller
// tick over a 10^5-task state slice shaped like a half-dealt Balanced plan.
func replayAdapt() (observeNs, replanUs float64, err error) {
	const n = 1 << 20
	est := adapt.NewEstimator(adapt.DefaultZ, 0.9995)
	observeNs = perOp(n, func() {
		for i := 0; i < n; i++ {
			est.Observe(1+i%3, i%17/16)
		}
	})
	sink += uint64(est.Estimate().Samples)

	p, err := plan.Balanced(100_000, 0.5)
	if err != nil {
		return 0, 0, err
	}
	specs := p.Tasks()
	states := make([]adapt.TaskState, len(specs))
	for i, sp := range specs {
		states[i] = adapt.TaskState{ID: sp.ID, Copies: sp.Copies, Ringer: sp.Ringer, Eligible: i%2 == 0}
	}
	const reps = 5
	replanUs = perOp(reps, func() {
		for i := 0; i < reps; i++ {
			rev, _ := adapt.Replan(states, len(specs), 0.5, 0.05)
			sink += uint64(len(rev.Promotions) + len(rev.Minted))
		}
	}) / 1e3
	return observeNs, replanUs, nil
}
