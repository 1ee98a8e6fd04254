// Command platformbench measures the wire-protocol hot path along two
// axes. The batch sweep runs the same computation to completion over
// loopback at several lease sizes with a fixed worker count and reports
// assignments per second for each: with one round trip per assignment
// (-batch 1, the single-item verbs) the run is RTT-bound, and batched
// leasing amortizes that round trip over the whole lease. The worker
// sweep holds the lease size fixed and scales the number of concurrent
// workers (-workers accepts a comma-separated list), reporting
// assignments per second plus p50/p99 lease latency per step — the axis
// where supervisor lock contention lives or dies.
//
// Usage:
//
//	platformbench                                 # batch sweep table
//	platformbench -workers 1,8,32,128             # plus the worker sweep
//	platformbench -out BENCH_pr5.json             # also write the artifact
//	platformbench -adapt                          # plus an adaptive run
//	platformbench -baseline-aps32 41000           # embed pre-change ref
//
// `make bench-save` runs the committed configurations.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"runtime"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"redundancy"
	"redundancy/internal/dist"
	"redundancy/internal/plan"
)

type result struct {
	Batch             int     `json:"batch"`
	Proto             string  `json:"proto,omitempty"`
	Assignments       int     `json:"assignments"`
	Seconds           float64 `json:"seconds"`
	AssignmentsPerSec float64 `json:"assignments_per_sec"`
	Adaptive          bool    `json:"adaptive,omitempty"`
	Revisions         int     `json:"revisions,omitempty"`
}

// latencyResult is one run of the latency mode: a full computation under
// a straggler-mixed fleet, reporting completion-latency percentiles (the
// copy's first issue to its acceptance, the supervisor-side view) with
// speculative reissue off or on.
type latencyResult struct {
	Scheme      string  `json:"scheme"`
	Speculative bool    `json:"speculative"`
	Assignments int     `json:"assignments"`
	Seconds     float64 `json:"seconds"`
	P50Ms       float64 `json:"p50_ms"`
	P99Ms       float64 `json:"p99_ms"`
	P999Ms      float64 `json:"p999_ms"`
	// Clone accounting for the speculative runs: issued duplicates, races
	// the clone won, and duplicate results adjudicated as wasted.
	SpeculativeIssued float64 `json:"speculative_issued,omitempty"`
	SpeculativeWins   float64 `json:"speculative_wins,omitempty"`
	SpeculativeWasted float64 `json:"speculative_wasted,omitempty"`
	// P99CutPct, on speculative rows, is how much of the off-run's p99 the
	// speculative run removed (positive = faster).
	P99CutPct float64 `json:"p99_cut_vs_off_pct,omitempty"`
}

// sweepResult is one step of the worker sweep: the same workload run with
// a given number of concurrent workers, with lease-latency percentiles
// observed from the worker side (WorkerConfig.OnLeaseRTT).
type sweepResult struct {
	Workers           int     `json:"workers"`
	Batch             int     `json:"batch"`
	Assignments       int     `json:"assignments"`
	Seconds           float64 `json:"seconds"`
	AssignmentsPerSec float64 `json:"assignments_per_sec"`
	LeaseP50Micros    float64 `json:"lease_p50_us"`
	LeaseP99Micros    float64 `json:"lease_p99_us"`
}

// shardResult is one step of the shard sweep: the same plan and total
// worker count served by a consistent-hash cluster of the given shard
// count, with the per-shard adjudicated-assignment imbalance from the
// aggregator's merged export.
type shardResult struct {
	Shards            int     `json:"shards"`
	Workers           int     `json:"workers"`
	Batch             int     `json:"batch"`
	Assignments       int     `json:"assignments"`
	Seconds           float64 `json:"seconds"`
	AssignmentsPerSec float64 `json:"assignments_per_sec"`
	ImbalancePct      float64 `json:"per_shard_imbalance_pct"`
	SpeedupVs1Shard   float64 `json:"speedup_vs_1_shard,omitempty"`
}

type report struct {
	GoVersion string `json:"go_version"`
	GOOS      string `json:"goos"`
	GOARCH    string `json:"goarch"`
	NumCPU    int    `json:"num_cpu"`
	Tasks     int    `json:"tasks"`
	Iters     int    `json:"iters"`
	// Workers is the worker count of the batch sweep (the first -workers
	// entry) — the field earlier BENCH_pr*.json artifacts carry, kept for
	// trajectory comparison.
	Workers    int      `json:"workers"`
	Results    []result `json:"results,omitempty"`
	SpeedupVs1 float64  `json:"speedup_max_batch_vs_1,omitempty"`
	Speedup16  float64  `json:"speedup_batch16_vs_1,omitempty"`
	// BinVsJSONMaxBatch divides the binary codec's throughput by JSON's at
	// the largest lease size the -protos sweep ran both codecs at.
	BinVsJSONMaxBatch float64 `json:"bin_vs_json_speedup_max_batch,omitempty"`
	// BaselineAPS is a recorded pre-change assignments/sec figure at the
	// largest lease size (passed in via -baseline-aps so the artifact
	// carries both sides of the comparison); SpeedupVsBaseline divides the
	// binary codec's max-batch throughput by it.
	BaselineAPS       float64 `json:"baseline_assignments_per_sec,omitempty"`
	SpeedupVsBaseline float64 `json:"speedup_vs_baseline,omitempty"`
	// WorkerSweep scales concurrent workers at a fixed lease size; one
	// entry per -workers value, with lease-latency percentiles.
	WorkerSweep []sweepResult `json:"worker_sweep,omitempty"`
	// BaselineAPS32 is the pre-change supervisor's assignments/sec at 32
	// workers on the same workload (passed in via -baseline-aps32 so the
	// artifact records both sides of the comparison); SpeedupVsBaseline32
	// divides this run's 32-worker throughput by it.
	BaselineAPS32       float64 `json:"baseline_assignments_per_sec_32_workers,omitempty"`
	SpeedupVsBaseline32 float64 `json:"speedup_vs_baseline_32_workers,omitempty"`
	// Adaptive, when -adapt is set, is the same computation with the
	// adaptive control plane ticking; AdaptiveOverheadPct compares its
	// throughput against the plain run at the same lease size.
	Adaptive            *result `json:"adaptive,omitempty"`
	AdaptiveOverheadPct float64 `json:"adaptive_overhead_pct,omitempty"`
	// ShardSweep, when -shards is set, holds the sharded-cluster scaling
	// runs: the same workload and total worker count served by 1..N
	// supervisor shards on a consistent-hash ring.
	ShardSweep []shardResult `json:"shard_sweep,omitempty"`
	// ShardSpeedupMaxVs1 divides the largest shard count's aggregate
	// throughput by the 1-shard run's (both measured in this sweep).
	ShardSpeedupMaxVs1 float64 `json:"shard_speedup_max_vs_1,omitempty"`
	RingVNodes         int     `json:"ring_vnodes,omitempty"`
	// CommitLatencyMS, when nonzero, is the modeled journal commit
	// latency every shard (including the 1-shard baseline) ran with:
	// the sweep then measures durability-bound coordination throughput,
	// the regime where per-shard journals are independent commit streams.
	CommitLatencyMS float64 `json:"shard_commit_latency_ms,omitempty"`
	// LatencySweep, when -latency is set, holds per-scheme completion
	// latency percentiles under a straggler mix, speculation off vs on.
	LatencySweep []latencyResult `json:"latency_sweep,omitempty"`
	// Latency-mode knobs, recorded so the artifact is self-describing.
	StragglerP       float64 `json:"straggler_p,omitempty"`
	StragglerDelayMs float64 `json:"straggler_delay_ms,omitempty"`
	SpeculatePct     float64 `json:"speculate_pct,omitempty"`
	DeadlineMs       float64 `json:"deadline_ms,omitempty"`
	GeneratedAt      string  `json:"generated_at"`
}

func parseIntList(flagName, s string) []int {
	var out []int
	for _, f := range strings.Split(s, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil || v < 1 {
			log.Fatalf("platformbench: bad %s entry %q", flagName, f)
		}
		out = append(out, v)
	}
	return out
}

func main() {
	n := flag.Int("n", 2000, "tasks per run (multiplicity 1 plus ringers)")
	iters := flag.Int("iters", 1, "work-function iterations; 1 keeps runs RTT-bound")
	workersFlag := flag.String("workers", "1", "comma-separated concurrent-worker counts; the first runs the batch sweep, the full list runs the worker sweep")
	batches := flag.String("batches", "1,16,64", "comma-separated lease sizes for the batch sweep")
	sweepBatch := flag.Int("sweep-batch", 16, "lease size held fixed during the worker sweep")
	protosFlag := flag.String("protos", "json", "comma-separated wire codecs for the batch sweep (json, bin)")
	adaptRun := flag.Bool("adapt", false, "also measure a run with the adaptive control plane ticking (at the largest lease size)")
	baselineAPS32 := flag.Float64("baseline-aps32", 0, "pre-change assignments/sec at 32 workers, recorded in the artifact for comparison")
	baselineAPS := flag.Float64("baseline-aps", 0, "pre-change assignments/sec at the largest lease size; the binary codec's throughput is compared against it")
	latency := flag.Bool("latency", false, "latency mode: completion-latency percentiles per -schemes under a straggler mix, speculation off vs on (skips the throughput sweeps)")
	schemesFlag := flag.String("schemes", "simple,balanced", "comma-separated redundancy schemes for -latency (simple, balanced)")
	stragglerP := flag.Float64("straggler-p", 0.02, "latency mode: per-assignment straggler probability in the worker speed model")
	stragglerDelay := flag.Duration("straggler-delay", 600*time.Millisecond, "latency mode: extra delay a straggler episode adds")
	speedBase := flag.Duration("speed-base", 2*time.Millisecond, "latency mode: base compute time per assignment")
	speedJitter := flag.Duration("speed-jitter", time.Millisecond, "latency mode: uniform extra delay in [0, jitter) per assignment")
	deadlineFlag := flag.Duration("deadline", 800*time.Millisecond, "latency mode: supervisor lease deadline (the sweeper that drives speculation runs at a quarter of it)")
	speculatePct := flag.Float64("speculate-pct", 0.85, "latency mode: completion-time percentile past which a live lease is speculatively cloned (for the spec-on runs)")
	shardsFlag := flag.String("shards", "", "shard mode: comma-separated supervisor shard counts (e.g. 1,2,4); runs the whole workload per count with the first -workers entry as the TOTAL worker count, skipping the other sweeps")
	ringVNodes := flag.Int("ring-vnodes", 0, "virtual nodes per shard on the consistent-hash ring (0 = library default)")
	commitLatency := flag.Duration("commit-latency", 0, "shard mode: journal every shard and model this much commit latency per commit window — a slow durable store; the regime where shards are independent commit streams")
	journal := flag.String("journal", "", "journal accepted results to this file during every run (file is truncated per run)")
	journalSync := flag.Bool("journal-sync", false, "fsync journal records before acking (requires -journal)")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile of the whole sweep to this file")
	out := flag.String("out", "", "also write the JSON report to this file (empty = stdout table only)")
	flag.Parse()

	sizes := parseIntList("-batches", *batches)
	workerCounts := parseIntList("-workers", *workersFlag)
	var protos []string
	for _, p := range strings.Split(*protosFlag, ",") {
		p = strings.TrimSpace(p)
		if p != "json" && p != "bin" {
			log.Fatalf("platformbench: bad -protos entry %q (want json or bin)", p)
		}
		protos = append(protos, p)
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			log.Fatal(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			log.Fatal(err)
		}
		defer pprof.StopCPUProfile()
	}

	rc := runConfig{journal: *journal, journalSync: *journalSync}
	rep := report{
		GoVersion: runtime.Version(), GOOS: runtime.GOOS, GOARCH: runtime.GOARCH,
		NumCPU: runtime.NumCPU(),
		Tasks:  *n, Iters: *iters, Workers: workerCounts[0],
		GeneratedAt: time.Now().UTC().Format(time.RFC3339),
	}
	if *shardsFlag != "" {
		rep.RingVNodes = *ringVNodes
		rep.CommitLatencyMS = float64(commitLatency.Microseconds()) / 1000
		fmt.Printf("%-8s %-8s %-8s %-14s %-10s %-16s %-12s %s\n",
			"shards", "workers", "batch", "assignments", "seconds", "assignments/sec", "imbalance%", "speedup vs 1")
		for _, w := range workerCounts {
			var oneShard float64
			for _, s := range parseIntList("-shards", *shardsFlag) {
				r, err := runShardCluster(*n, *iters, w, *sweepBatch, s, *ringVNodes, *commitLatency)
				if err != nil {
					log.Fatalf("platformbench: %d shards x %d workers: %v", s, w, err)
				}
				if s == 1 {
					oneShard = r.AssignmentsPerSec
				}
				if oneShard > 0 && s > 1 {
					r.SpeedupVs1Shard = r.AssignmentsPerSec / oneShard
					if r.SpeedupVs1Shard > rep.ShardSpeedupMaxVs1 {
						rep.ShardSpeedupMaxVs1 = r.SpeedupVs1Shard
					}
				}
				rep.ShardSweep = append(rep.ShardSweep, r)
				fmt.Printf("%-8d %-8d %-8d %-14d %-10.3f %-16.0f %-12.1f %.2fx\n",
					r.Shards, r.Workers, r.Batch, r.Assignments, r.Seconds,
					r.AssignmentsPerSec, r.ImbalancePct, r.SpeedupVs1Shard)
			}
		}
		writeReport(*out, rep)
		return
	}

	if *latency {
		lc := latencyConfig{
			stragglerP: *stragglerP, stragglerDelay: *stragglerDelay,
			base: *speedBase, jitter: *speedJitter,
			deadline: *deadlineFlag, speculatePct: *speculatePct,
		}
		rep.StragglerP = lc.stragglerP
		rep.StragglerDelayMs = lc.stragglerDelay.Seconds() * 1e3
		rep.SpeculatePct = lc.speculatePct
		rep.DeadlineMs = lc.deadline.Seconds() * 1e3
		fmt.Printf("%-10s %-6s %-14s %-10s %-10s %-10s %-10s %s\n",
			"scheme", "spec", "assignments", "seconds", "p50 ms", "p99 ms", "p999 ms", "clones (won/wasted)")
		for _, scheme := range strings.Split(*schemesFlag, ",") {
			scheme = strings.TrimSpace(scheme)
			var off latencyResult
			for _, spec := range []bool{false, true} {
				r, err := lc.run(scheme, *n, *iters, workerCounts[0], spec)
				if err != nil {
					log.Fatalf("platformbench: latency %s spec=%v: %v", scheme, spec, err)
				}
				if spec {
					if off.P99Ms > 0 {
						r.P99CutPct = (1 - r.P99Ms/off.P99Ms) * 100
					}
				} else {
					off = r
				}
				rep.LatencySweep = append(rep.LatencySweep, r)
				fmt.Printf("%-10s %-6v %-14d %-10.3f %-10.2f %-10.2f %-10.2f %.0f (%.0f/%.0f)\n",
					r.Scheme, r.Speculative, r.Assignments, r.Seconds,
					r.P50Ms, r.P99Ms, r.P999Ms,
					r.SpeculativeIssued, r.SpeculativeWins, r.SpeculativeWasted)
				if spec && r.P99CutPct != 0 {
					fmt.Printf("%-10s speculation cut p99 by %.1f%%\n", r.Scheme, r.P99CutPct)
				}
			}
		}
		writeReport(*out, rep)
		return
	}

	fmt.Printf("%-8s %-8s %-14s %-10s %s\n", "proto", "batch", "assignments", "seconds", "assignments/sec")
	for _, proto := range protos {
		for _, b := range sizes {
			r, _, err := rc.run(*n, *iters, workerCounts[0], b, proto, false)
			if err != nil {
				log.Fatalf("platformbench: proto %s batch %d: %v", proto, b, err)
			}
			rep.Results = append(rep.Results, r)
			fmt.Printf("%-8s %-8d %-14d %-10.3f %.0f\n", r.Proto, r.Batch, r.Assignments, r.Seconds, r.AssignmentsPerSec)
		}
	}

	// Speedups within the first codec's sweep (batch-amortization trend,
	// comparable to earlier BENCH_pr*.json artifacts).
	base := rep.Results[0]
	for _, r := range rep.Results {
		if r.Batch == 1 && r.Proto == protos[0] {
			base = r
		}
	}
	for _, r := range rep.Results {
		if r.Proto != protos[0] {
			continue
		}
		if s := r.AssignmentsPerSec / base.AssignmentsPerSec; s > rep.SpeedupVs1 {
			rep.SpeedupVs1 = s
		}
		if r.Batch == 16 {
			rep.Speedup16 = r.AssignmentsPerSec / base.AssignmentsPerSec
		}
	}
	fmt.Printf("\nspeedup vs batch 1: %.2fx (batch 16: %.2fx)\n", rep.SpeedupVs1, rep.Speedup16)

	// Codec comparison at the largest shared lease size.
	maxBatch := sizes[len(sizes)-1]
	var jsonAPS, binAPS float64
	for _, r := range rep.Results {
		if r.Batch != maxBatch {
			continue
		}
		switch r.Proto {
		case "json":
			jsonAPS = r.AssignmentsPerSec
		case "bin":
			binAPS = r.AssignmentsPerSec
		}
	}
	if jsonAPS > 0 && binAPS > 0 {
		rep.BinVsJSONMaxBatch = binAPS / jsonAPS
		fmt.Printf("binary vs JSON at batch %d: %.2fx\n", maxBatch, rep.BinVsJSONMaxBatch)
	}
	if *baselineAPS > 0 && binAPS > 0 {
		rep.BaselineAPS = *baselineAPS
		rep.SpeedupVsBaseline = binAPS / *baselineAPS
		fmt.Printf("binary at batch %d vs recorded baseline (%.0f/sec): %.2fx\n",
			maxBatch, rep.BaselineAPS, rep.SpeedupVsBaseline)
	}

	if len(workerCounts) > 1 {
		fmt.Printf("\n%-8s %-8s %-14s %-16s %-12s %s\n",
			"workers", "batch", "assignments", "assignments/sec", "p50 lease", "p99 lease")
		for _, w := range workerCounts {
			r, lat, err := rc.run(*n, *iters, w, *sweepBatch, protos[0], false)
			if err != nil {
				log.Fatalf("platformbench: %d workers: %v", w, err)
			}
			sr := sweepResult{
				Workers: w, Batch: r.Batch, Assignments: r.Assignments,
				Seconds: r.Seconds, AssignmentsPerSec: r.AssignmentsPerSec,
				LeaseP50Micros: lat.p50.Seconds() * 1e6,
				LeaseP99Micros: lat.p99.Seconds() * 1e6,
			}
			rep.WorkerSweep = append(rep.WorkerSweep, sr)
			fmt.Printf("%-8d %-8d %-14d %-16.0f %-12v %v\n",
				w, sr.Batch, sr.Assignments, sr.AssignmentsPerSec, lat.p50, lat.p99)
			if w == 32 && *baselineAPS32 > 0 {
				rep.BaselineAPS32 = *baselineAPS32
				rep.SpeedupVsBaseline32 = sr.AssignmentsPerSec / *baselineAPS32
			}
		}
		if rep.SpeedupVsBaseline32 > 0 {
			fmt.Printf("\n32-worker speedup vs pre-change baseline (%.0f/sec): %.2fx\n",
				rep.BaselineAPS32, rep.SpeedupVsBaseline32)
		}
	}

	if *adaptRun {
		ab := sizes[len(sizes)-1]
		r, _, err := rc.run(*n, *iters, workerCounts[0], ab, protos[0], true)
		if err != nil {
			log.Fatalf("platformbench: adaptive batch %d: %v", ab, err)
		}
		rep.Adaptive = &r
		for _, plain := range rep.Results {
			if plain.Batch == ab && plain.AssignmentsPerSec > 0 {
				rep.AdaptiveOverheadPct = (1 - r.AssignmentsPerSec/plain.AssignmentsPerSec) * 100
			}
		}
		fmt.Printf("adaptive (batch %d): %d assignments in %.3fs, %.0f/sec, %d revision(s), overhead %.1f%%\n",
			r.Batch, r.Assignments, r.Seconds, r.AssignmentsPerSec, r.Revisions, rep.AdaptiveOverheadPct)
	}

	writeReport(*out, rep)
}

func writeReport(path string, rep report) {
	if path == "" {
		return
	}
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		log.Fatal(err)
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("wrote %s\n", path)
}

// latencyConfig carries the latency-mode knobs: the fleet's heterogeneous
// speed model and the supervisor's speculation settings.
type latencyConfig struct {
	stragglerP     float64
	stragglerDelay time.Duration
	base, jitter   time.Duration
	deadline       time.Duration
	speculatePct   float64
}

// run drives one full computation with a straggler-mixed fleet and
// returns supervisor-side completion-latency percentiles. The off and on
// runs differ only in SpeculatePct, so the p99 delta is the speculative
// tier's doing; the deadline sweeper (a cruder straggler remedy) runs in
// both.
func (lc latencyConfig) run(scheme string, n, iters, workers int, spec bool) (latencyResult, error) {
	var p *plan.Plan
	var err error
	switch scheme {
	case "simple":
		p, err = plan.FromDistribution(dist.Simple(float64(n)), 0.5)
	case "balanced":
		p, err = plan.Balanced(n, 0.5)
	default:
		return latencyResult{}, fmt.Errorf("unknown scheme %q (want simple or balanced)", scheme)
	}
	if err != nil {
		return latencyResult{}, err
	}
	reg := redundancy.NewMetricsRegistry()
	cfg := redundancy.SupervisorConfig{
		Plan: p, WorkKind: "hashchain", Iters: iters, Seed: 1, MaxBatch: 2,
		Metrics:  reg,
		Deadline: lc.deadline,
		// The health roster's latency window is the percentile source; size
		// it to hold every completion so p999 is exact, not windowed.
		Health: &redundancy.HealthConfig{LatencyWindow: p.TotalAssignments() + 1024},
	}
	if spec {
		cfg.SpeculatePct = lc.speculatePct
	}
	sup, err := redundancy.NewSupervisor(cfg)
	if err != nil {
		return latencyResult{}, err
	}
	defer sup.Close()
	addr, err := sup.Start("127.0.0.1:0")
	if err != nil {
		return latencyResult{}, err
	}

	start := time.Now()
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			wc := redundancy.WorkerConfig{
				Addr: addr, Name: fmt.Sprintf("bench-%d", i),
				BatchSize: 2, Seed: uint64(i + 1),
				// Tolerate a lease reclaimed mid-straggle (the copy is someone
				// else's now) instead of dying on the rejected ack.
				Reconnect: true,
				Speed: &redundancy.SpeedModel{
					Base: lc.base, Jitter: lc.jitter,
					StragglerP: lc.stragglerP, StragglerDelay: lc.stragglerDelay,
				},
			}
			if _, err := redundancy.RunWorker(wc); err != nil {
				errs <- err
			}
		}(i)
	}
	wg.Wait()
	sup.Wait()
	elapsed := time.Since(start)
	close(errs)
	for err := range errs {
		return latencyResult{}, err
	}

	quant := func(q float64) float64 {
		d, ok := sup.CompletionQuantile(q)
		if !ok {
			return 0
		}
		return d.Seconds() * 1e3
	}
	snap := reg.Snapshot()
	counter := func(name string) float64 {
		v, _ := snap.Value(name)
		return v
	}
	return latencyResult{
		Scheme:            scheme,
		Speculative:       spec,
		Assignments:       p.TotalAssignments(),
		Seconds:           elapsed.Seconds(),
		P50Ms:             quant(0.50),
		P99Ms:             quant(0.99),
		P999Ms:            quant(0.999),
		SpeculativeIssued: counter("redundancy_speculative_issued_total"),
		SpeculativeWins:   counter("redundancy_speculative_wins_total"),
		SpeculativeWasted: counter("redundancy_speculative_wasted_total"),
	}, nil
}

// latencySummary holds lease-latency percentiles over one run.
type latencySummary struct{ p50, p99 time.Duration }

// latencyRecorder collects per-lease round-trip samples from every worker
// goroutine of a run.
type latencyRecorder struct {
	mu      sync.Mutex
	samples []time.Duration
}

func (l *latencyRecorder) observe(d time.Duration) {
	l.mu.Lock()
	l.samples = append(l.samples, d)
	l.mu.Unlock()
}

// summary computes p50/p99 by nearest-rank over the collected samples.
func (l *latencyRecorder) summary() latencySummary {
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.samples) == 0 {
		return latencySummary{}
	}
	sort.Slice(l.samples, func(i, j int) bool { return l.samples[i] < l.samples[j] })
	rank := func(q float64) time.Duration {
		i := int(q * float64(len(l.samples)-1))
		return l.samples[i]
	}
	return latencySummary{p50: rank(0.50), p99: rank(0.99)}
}

// runConfig carries the per-invocation knobs shared by every run.
type runConfig struct {
	journal     string
	journalSync bool
}

// run drives one full computation over loopback at the given lease size
// and worker count and returns its throughput plus lease-latency
// percentiles. With adaptive set, the control plane ticks throughout the
// run: honest workers keep p̂ near zero, so this measures the
// estimator/controller overhead on the hot path, not re-planning.
func (rc runConfig) run(n, iters, workers, batch int, proto string, adaptive bool) (result, latencySummary, error) {
	p, err := plan.FromDistribution(dist.Simple(float64(n)), 0.5)
	if err != nil {
		return result{}, latencySummary{}, err
	}
	cfg := redundancy.SupervisorConfig{
		Plan: p, WorkKind: "hashchain", Iters: iters, Seed: 1, MaxBatch: batch,
	}
	if rc.journal != "" {
		f, err := os.Create(rc.journal)
		if err != nil {
			return result{}, latencySummary{}, err
		}
		defer f.Close()
		cfg.Journal = f
		cfg.JournalSync = rc.journalSync
	}
	if adaptive {
		cfg.Adapt = &redundancy.AdaptConfig{
			TargetEpsilon: 0.5, Interval: 5 * time.Millisecond, MinSamples: 32,
		}
	}
	sup, err := redundancy.NewSupervisor(cfg)
	if err != nil {
		return result{}, latencySummary{}, err
	}
	defer sup.Close()
	addr, err := sup.Start("127.0.0.1:0")
	if err != nil {
		return result{}, latencySummary{}, err
	}

	lat := &latencyRecorder{samples: make([]time.Duration, 0, 2*n)}
	start := time.Now()
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			wc := redundancy.WorkerConfig{
				Addr: addr, Name: fmt.Sprintf("bench-%d", i),
				BatchSize: batch, Seed: uint64(i + 1),
				OnLeaseRTT: lat.observe,
			}
			if proto == "bin" {
				wc.Proto = proto
			}
			_, err := redundancy.RunWorker(wc)
			if err != nil {
				errs <- err
			}
		}(i)
	}
	wg.Wait()
	sup.Wait()
	elapsed := time.Since(start)
	close(errs)
	for err := range errs {
		return result{}, latencySummary{}, err
	}

	total := p.TotalAssignments() // includes copies a revision added mid-run
	return result{
		Batch:             batch,
		Proto:             proto,
		Assignments:       total,
		Seconds:           elapsed.Seconds(),
		AssignmentsPerSec: float64(total) / elapsed.Seconds(),
		Adaptive:          adaptive,
		Revisions:         sup.RevisionsApplied(),
	}, lat.summary(), nil
}

// runShardCluster drives one full computation through a consistent-hash
// cluster of the given shard count: the plan's task IDs partition across
// shards by ring lookup, the worker fleet routes with RunShardedWorker
// (home shard first), and the aggregator's merged export supplies the
// per-shard adjudicated-assignment imbalance. The total worker count is
// held fixed across shard counts, so the sweep isolates what sharding
// itself buys: less contention per supervisor, same fleet, same work.
func runShardCluster(n, iters, workers, batch, shards, vnodes int, commitLatency time.Duration) (shardResult, error) {
	p, err := plan.FromDistribution(dist.Simple(float64(n)), 0.5)
	if err != nil {
		return shardResult{}, err
	}
	ccfg := redundancy.ClusterConfig{
		Plan: p, Shards: shards, VNodes: vnodes, Seed: 1,
		WorkKind: "hashchain", Iters: iters, MaxBatch: batch,
	}
	if commitLatency > 0 {
		dir, err := os.MkdirTemp("", "platformbench-shards")
		if err != nil {
			return shardResult{}, err
		}
		defer os.RemoveAll(dir)
		ccfg.JournalDir = dir
		ccfg.CommitLatency = commitLatency
	}
	c, err := redundancy.NewCluster(ccfg)
	if err != nil {
		return shardResult{}, err
	}
	defer c.Close()

	start := time.Now()
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, err := redundancy.RunShardedWorker(redundancy.WorkerConfig{
				Name: fmt.Sprintf("bench-%d", i), BatchSize: batch,
				Seed: uint64(i + 1), Proto: redundancy.ProtoBinary,
			}, c.ShardMap)
			if err != nil {
				errs <- err
			}
		}(i)
	}
	c.Wait()
	wg.Wait()
	elapsed := time.Since(start)
	close(errs)
	for err := range errs {
		return shardResult{}, err
	}

	merged := c.Aggregate()
	total := p.TotalAssignments()
	if merged.Assignments != total {
		return shardResult{}, fmt.Errorf("cluster adjudicated %d of %d assignments", merged.Assignments, total)
	}
	return shardResult{
		Shards:            shards,
		Workers:           workers,
		Batch:             batch,
		Assignments:       total,
		Seconds:           elapsed.Seconds(),
		AssignmentsPerSec: float64(total) / elapsed.Seconds(),
		ImbalancePct:      merged.ImbalancePct,
	}, nil
}
