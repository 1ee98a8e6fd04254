package main

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"redundancy/internal/plan"
)

// A traced run alternates untraced and traced rounds in one process: the
// end-to-end metrics always come from the untraced rounds, the per-layer
// ones from the traced rounds and the replays, and the gap between the two
// kinds of round is bench.trace_overhead_pct. The replays get the rest of
// the time budget.
const tracedRoundShare = 0.8

// warmupRound numbers the one round every workload runs and checks before
// its clock starts, and whose timings are discarded: a fresh process runs
// its first second or so of two-thread work at well under full speed here
// (the second vCPU comes up late), and page faults and lazy set-up land in
// it too.
const warmupRound = -1

// tracerFor hands the tracer to the odd rounds of a traced run and nil to
// every other round.
func tracerFor(tr *tracer, round int) *tracer {
	if round%2 == 1 {
		return tr
	}
	return nil
}

// roundBudget decides when a workload has measured for --seconds: rounds
// are a fixed amount of work each, so the time budget only sets how many
// of them feed the medians.
type roundBudget struct {
	start     time.Time
	budget    time.Duration
	minRounds int
	done      int
}

func newRoundBudget(budget time.Duration, minRounds int) *roundBudget {
	return &roundBudget{start: time.Now(), budget: budget, minRounds: minRounds}
}

// next reports whether another round fits: the minimum is always run, and
// after that a round is started only if the average round so far would
// end inside the budget.
func (b *roundBudget) next() bool {
	if b.done < b.minRounds {
		b.done++
		return true
	}
	elapsed := time.Since(b.start)
	avg := elapsed / time.Duration(b.done)
	if elapsed+avg > b.budget {
		return false
	}
	b.done++
	return true
}

func roundsBudget(opt options) *roundBudget {
	if opt.trace {
		return newRoundBudget(time.Duration(tracedRoundShare*float64(opt.seconds)*float64(time.Second)), 4)
	}
	return newRoundBudget(time.Duration(opt.seconds)*time.Second, 3)
}

// replaysRound labels the spans and failures of the isolated replays that
// follow a traced run's rounds.
const replaysRound = -2

// measureRounds is the loop every workload shares: the warm-up round, then
// rounds until the time budget is spent, the odd ones traced on a traced
// run. round runs round n (with a nil tracer when untraced), records its own
// observations unless n is warmupRound, and returns the round's throughput.
// On a traced run measureRounds reports bench.trace_overhead_pct and
// returns the untraced rounds' throughputs.
func measureRounds(opt options, rec *recorder, res *result, tr *tracer, round func(n int, tr *tracer) (float64, error)) ([]float64, error) {
	if _, err := round(warmupRound, nil); err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	settle()
	var untraced, traced []float64
	for b, n := roundsBudget(opt), 0; b.next(); n++ {
		roundTracer := tracerFor(tr, n)
		throughput, err := round(n, roundTracer)
		if err != nil {
			return nil, fmt.Errorf("round %d: %w", n, err)
		}
		if roundTracer == nil {
			untraced = append(untraced, throughput)
		} else {
			traced = append(traced, throughput)
		}
		res.Rounds++
		settle()
	}
	if tr != nil {
		rec.observe("bench.trace_overhead_pct", (median(untraced)/median(traced)-1)*100)
		rec.note("bench.trace_overhead_pct", fmt.Sprintf("%d untraced vs %d traced rounds, interleaved", len(untraced), len(traced)))
		tr.setRound(replaysRound)
	}
	return untraced, nil
}

func observeSchedVerify(rec *recorder, sv schedVerifyCost) {
	rec.observe("sched.new_queue_ms", sv.newQueueMs)
	rec.observe("sched.next_batch_ns_per_assignment", sv.nextBatchNs)
	rec.observe("sched.complete_ns_per_assignment", sv.completeNs)
	rec.observe("verify.submit_ns_per_result", sv.submitNs)
	rec.observe("verify.allocs_per_result", sv.submitAllocs)
}

func runPlatform(w platformSpec, opt options, rec *recorder, res *result, tr *tracer) error {
	p, err := w.buildPlan()
	if err != nil {
		return err
	}
	res.Params = w.params(p)
	assignments := float64(p.TotalAssignments())

	var cpuNs []float64
	var lastTraced *roundOut
	untracedAPS, err := measureRounds(opt, rec, res, tr, func(n int, roundTracer *tracer) (float64, error) {
		out, err := w.runRound(opt, n, roundTracer, rec)
		if err != nil {
			return 0, err
		}
		aps := assignments / out.serve.Seconds()
		switch {
		case n == warmupRound:
		case roundTracer == nil:
			observePlatformEndToEnd(w, rec, out, aps)
		default:
			cpu := float64(out.use.cpu()) / assignments
			cpuNs = append(cpuNs, cpu)
			observePlatformTraced(w, rec, out, assignments, cpu)
			lastTraced = &out
		}
		return aps, nil
	})
	if err != nil || tr == nil {
		return err
	}
	return w.replays(opt, p, rec, res, tr, lastTraced, median(cpuNs), 1e9/median(untracedAPS))
}

func observePlatformEndToEnd(w platformSpec, rec *recorder, out roundOut, aps float64) {
	rec.observe("setup_s", out.setup.Seconds())
	rec.observe("assignments_per_s", aps)
	us := durationsToMicros(out.leases)
	q := tailQuantile(len(us))
	rec.observe("lease_p50_us", quantileSorted(us, 0.5))
	rec.observe("lease_p99_us", quantileSorted(us, q))
	rec.note("lease_p50_us", fmt.Sprintf("%d leases per round", len(us)))
	rec.note("lease_p99_us", fmt.Sprintf("p%g of %d leases per round", q*100, len(us)))
	if w.durable {
		rec.observe("restore_s", out.restore.Seconds())
	}
}

func observePlatformTraced(w platformSpec, rec *recorder, out roundOut, assignments, cpuNs float64) {
	rec.observe("proc.cpu_ns_per_assignment", cpuNs)
	rec.observe("proc.sys_share", float64(out.use.sys)/float64(out.use.cpu()))
	rec.observe("proc.allocs_per_assignment", float64(out.use.mallocs)/assignments)
	rec.observe("proc.gc_pause_ms_total", float64(out.use.gcPause)/1e6)

	// Every request gets exactly one reply, so where the server side of the
	// sockets cannot be wrapped (ClusterConfig has no WrapListener) it is
	// taken to mirror the client side.
	cw, cr := float64(out.client.writes.Load()), float64(out.client.reads.Load())
	sw, sr := float64(out.server.writes.Load()), float64(out.server.reads.Load())
	if w.shards > 0 {
		sw, sr = cw, cr
		rec.note("server.syscalls_per_assignment", "socket Read+Write calls, client side doubled (server side not wrappable on a cluster)")
	} else {
		rec.note("server.syscalls_per_assignment", "socket Read+Write calls on both ends; each is at least one syscall")
	}
	rec.observe("server.msgs_per_assignment", (cw+sw)/assignments)
	rec.observe("server.syscalls_per_assignment", (cw+cr+sw+sr)/assignments)
	rec.observe("server.lease_wait_ms_total", out.leaseWaitSec*1e3)
	if w.batch <= 1 {
		rec.note("server.lease_wait_ms_total", "the single-item handlers do not observe redundancy_lease_wait_seconds")
	}
	if w.shards > 0 {
		rec.observe("cluster.imbalance_pct", out.imbalancePct)
	}
	if w.durable {
		rec.observe("journal.replay_ns_per_result", float64(out.restore)/assignments)
		rec.note("journal.replay_ns_per_result", "restore_s / results, supervisor construction included")
	}
	if j := out.journal; j != nil {
		syncs := durationsToMicros(j.syncs)
		q := tailQuantile(len(syncs))
		rec.observe("journal.write_ns_per_assignment", float64(j.writeNs)/assignments)
		rec.observe("journal.sync_p50_us", quantileSorted(syncs, 0.5))
		rec.observe("journal.sync_p99_us", quantileSorted(syncs, q))
		rec.note("journal.sync_p99_us", fmt.Sprintf("p%g of %d fsyncs per round", q*100, len(syncs)))
		rec.observe("journal.syncs_per_assignment", float64(len(syncs))/assignments)
		rec.observe("journal.bytes_per_assignment", float64(j.bytes)/assignments)
	}
}

// replays feeds the workload's inputs through each layer in isolation and
// assembles the budget row.
func (w platformSpec) replays(opt options, p *plan.Plan, rec *recorder, res *result, tr *tracer,
	last *roundOut, cpuNs, wallNs float64) error {
	root := tr.begin("replays", -1)
	defer tr.end(root)
	replay := func(name string, fn func() error) error {
		span := tr.begin(name, root)
		defer tr.end(span)
		if err := fn(); err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		return nil
	}
	assignments := p.TotalAssignments()
	specs := p.Tasks()
	var codec codecCost
	var sv schedVerifyCost
	var workNs, journalNs float64

	if err := replay("replay.codec", func() (err error) {
		codec, err = replayCodec(w.proto, w.batch, min(assignments, 400_000), w.tasks)
		return err
	}); err != nil {
		return err
	}
	rec.observe("codec.encode_ns_per_assignment", codec.encodeNs)
	rec.observe("codec.decode_ns_per_assignment", codec.decodeNs)
	rec.observe("codec.allocs_per_assignment", codec.allocs)
	rec.observe("codec.wire_bytes_per_assignment", codec.wireBytes)

	if err := replay("replay.sched+verify", func() (err error) {
		sv, err = replaySchedVerify(specs, opt.seed, w.batch, false)
		return err
	}); err != nil {
		return err
	}
	observeSchedVerify(rec, sv)

	if err := replay("replay.plan", func() error {
		_, ms, err := replayPlan(w.buildPlan, w.tasks, 0.5, rec)
		rec.observe("plan.build_ms", ms)
		return err
	}); err != nil {
		return err
	}
	_ = replay("replay.work", func() error {
		workNs = replayWork(assignments)
		return nil
	})
	rec.observe("client.work_ns_per_assignment", workNs)

	if w.shards > 0 {
		if err := replay("replay.ring", func() error {
			lookupNs, err := replayRing(specs, last.shardMap)
			rec.observe("ring.lookup_ns", lookupNs)
			return err
		}); err != nil {
			return err
		}
		_ = replay("replay.agg", func() error {
			rec.observe("agg.merge_us", replayAgg(last.exports))
			return nil
		})
	}
	if last.journal != nil {
		if err := replay("replay.journal.write", func() error {
			path := filepath.Join(opt.tmpDir(), fmt.Sprintf("%s-%d-replay.journal", w.name, os.Getpid()))
			cpu, err := replayJournal(path, last.journal.ops)
			journalNs = float64(cpu) / float64(assignments)
			return err
		}); err != nil {
			return err
		}
	}

	b := &budgetRow{
		Codec:   codec.encodeNs + codec.decodeNs,
		Sched:   sv.nextBatchNs + sv.completeNs,
		Verify:  sv.submitNs,
		Journal: journalNs,
		Work:    workNs,
		Total:   cpuNs,
		WallNs:  wallNs,
	}
	b.Residual = b.Total - (b.Codec + b.Sched + b.Verify + b.Journal + b.Work)
	res.Budget = b
	rec.observe("server.residual_ns_per_assignment", b.Residual)
	if b.Residual < 0 {
		// A measurement artefact, not a failed operation: the layers were
		// timed alone and the total under contention, on different rounds.
		rec.note("server.residual_ns_per_assignment", "NEGATIVE: the layers' isolated costs exceed proc.cpu_ns_per_assignment; run longer")
	}
	return nil
}

// observeColdCall reports a simulator's set-up. TailSweep and RunScenarios
// build their plans, arenas and queues inside the call and expose no seam to
// time them apart, so what can be measured without copying their internals
// is the first, cold call of the real entry point: the warm-up round, which
// the throughput medians discard. It happens once per process.
func observeColdCall(rec *recorder, d time.Duration) {
	rec.observe("setup_s", d.Seconds())
	rec.note("setup_s", "the cold first call; set-up is inside the call, no seam")
}

func runTailSim(opt options, rec *recorder, res *result, tr *tracer) error {
	return runTailSimAt(tailSimTasks, "tail-sim", opt, rec, res, tr)
}

// runTailSimAt is runTailSim at a chosen size; the smoke test runs it small.
func runTailSimAt(tasks int, digestKey string, opt options, rec *recorder, res *result, tr *tracer) error {
	cfg := tailSweepConfig(tasks, opt.seed)
	res.Params = map[string]any{
		"tasks": tasks, "trials_per_cell": cfg.Trials, "cells": 6, "participants": cfg.Participants,
		"epsilon": cfg.Epsilon, "workers": cfg.Workers, "sweep_seed": cfg.Seed,
	}
	dc := &digestChecker{}
	if opt.seed == 1 { // the seed the pinned digest was taken at
		dc.key = digestKey
	}
	_, err := measureRounds(opt, rec, res, tr, func(n int, roundTracer *tracer) (float64, error) {
		run, completions, err := tailSimRound(cfg, n, rec, dc, roundTracer)
		if err != nil {
			return 0, err
		}
		cps := float64(completions) / run.Seconds()
		switch {
		case n == warmupRound:
			observeColdCall(rec, run)
		case roundTracer == nil:
			rec.observe("sim_completions_per_s", cps)
			rec.observe("assignments_per_s", cps)
			rec.note("sim_completions_per_s", fmt.Sprintf("%d completions per round", completions))
		}
		return cps, nil
	})
	if err != nil || tr == nil {
		return err
	}
	span := tr.begin("replay.tail", -1)
	cost, err := replayTail(cfg)
	tr.end(span)
	if err != nil {
		return err
	}
	rec.observe("tail.arena_build_ms", cost.arenaMs)
	rec.observe("tail.trial_ns_per_completion", cost.trialNsPerCompletion)
	rec.observe("tail.allocs_per_trial", cost.allocsPerTrial)
	rec.observe("tail.par_speedup", cost.parSpeedup)
	rec.note("tail.par_speedup", fmt.Sprintf("4 trials of the balanced cell on 1 vs %d pool workers", simWorkers))
	span = tr.begin("replay.sketch", -1)
	addNs, mergeNs := replaySketch()
	tr.end(span)
	rec.observe("stats.sketch_add_ns", addNs)
	rec.observe("stats.sketch_merge_ns", mergeNs)
	return nil
}

func runScenarioLab(opt options, rec *recorder, res *result, tr *tracer) error {
	tasks := scenarioLabTasks
	scs := scenarioSuite(tasks)
	res.Params = map[string]any{"tasks_per_template": tasks, "participants": tasks, "templates": len(scs), "workers": simWorkers}
	dc := &digestChecker{key: "scenario-lab"}
	var suiteSeconds []float64
	_, err := measureRounds(opt, rec, res, tr, func(n int, roundTracer *tracer) (float64, error) {
		run, assignments := scenarioLabRound(scs, n, rec, dc, roundTracer)
		tps := float64(len(scs)*tasks) / run.Seconds()
		switch {
		case n == warmupRound:
			observeColdCall(rec, run)
		case roundTracer == nil:
			rec.observe("sim_tasks_per_s", tps)
			rec.observe("assignments_per_s", float64(assignments)/run.Seconds())
			rec.note("assignments_per_s", fmt.Sprintf("%d simulated assignments per round", assignments))
		}
		if n != warmupRound {
			suiteSeconds = append(suiteSeconds, run.Seconds())
		}
		return tps, nil
	})
	if err != nil || tr == nil {
		return err
	}
	root := tr.begin("replays", -1)
	defer tr.end(root)

	perTask, allocsPerTask, sequential := replayScenarioTemplates(scs, rec, tr, root)
	for name, ns := range perTask {
		rec.observe("scenario."+name+".ns_per_task", ns)
	}
	rec.observe("scenario.allocs_per_task", allocsPerTask)
	rec.observe("scenario.par_speedup", sequential.Seconds()/median(suiteSeconds))
	rec.note("scenario.par_speedup", fmt.Sprintf("five templates one by one vs the suite on %d pool workers", simWorkers))

	span := tr.begin("replay.plan", root)
	p, buildMs, err := replayPlan(func() (*plan.Plan, error) { return plan.Balanced(tasks, 0.5) }, tasks, 0.5, rec)
	tr.end(span)
	if err != nil {
		return err
	}
	rec.observe("plan.build_ms", buildMs)

	span = tr.begin("replay.sched+verify", root)
	sv, err := replaySchedVerify(p.Tasks(), scs[0].Config.Seed, 1, true)
	tr.end(span)
	if err != nil {
		return err
	}
	observeSchedVerify(rec, sv)
	rec.note("verify.submit_ns_per_result", "honest results into a Reserve'd collector, as sim.Run sizes it")

	span = tr.begin("replay.adapt", root)
	observeNs, replanUs, err := replayAdapt()
	tr.end(span)
	if err != nil {
		return err
	}
	rec.observe("adapt.observe_ns", observeNs)
	rec.observe("adapt.replan_us", replanUs)
	return nil
}
