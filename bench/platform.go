package main

import (
	"fmt"
	"net"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"sync"
	"time"

	"redundancy"
	"redundancy/internal/agg"
	"redundancy/internal/platform"
)

// End-to-end platform code drives the root package only, and sets only the
// SupervisorConfig and WorkerConfig fields ISSUE 13 lists, so it keeps
// compiling when ROADMAP item 3 collapses the platform's parallel paths.
// internal/platform is imported for the two pure functions the
// correctness check recomputes results with.

const (
	workKind = "hashchain"
	iters    = 1
	nWorkers = 2 // nproc on the reference box: one load-generating connection each
)

// clusterSeed fixes the cluster's ring placement (ClusterConfig.Seed seeds
// the ring and the shards' queue shuffles together). Left to --seed, the
// two shards' share of the plan swings between 4% and 12% off even, and
// peak RSS with it by a quarter, which is a different workload per seed,
// not noise about one. With seed 1 the partition is fixed; --seed still
// feeds the workers' own streams.
const clusterSeed = 1

// platformSpec pins one platform workload. Sizes are fixed so a round is a
// fixed amount of work; see bench/README.md for how they were chosen.
type platformSpec struct {
	name   string
	tasks  int
	simple bool // simple redundancy (every task twice) instead of plan.Balanced(tasks, 0.5)
	proto  string
	batch  int
	// durable journals to a file with a real fsync per result batch, then
	// restores from it.
	durable bool
	shards  int // > 0 runs NewCluster with that many shards
}

var platformWorkloads = []platformSpec{
	{name: "lease-rtt", tasks: 20_000, simple: true, proto: redundancy.ProtoJSON, batch: 1},
	{name: "bulk-bin", tasks: 250_000, proto: redundancy.ProtoBinary, batch: 64},
	{name: "durable", tasks: 10_000, proto: redundancy.ProtoBinary, batch: 16, durable: true},
	{name: "cluster-2shard", tasks: 200_000, proto: redundancy.ProtoBinary, batch: 16, shards: 2},
}

func (w platformSpec) buildPlan() (*redundancy.Plan, error) {
	if w.simple {
		return redundancy.PlanFor(redundancy.Simple(float64(w.tasks)), 0.5)
	}
	return redundancy.NewPlan(w.tasks, 0.5)
}

func (w platformSpec) params(p *redundancy.Plan) map[string]any {
	scheme := "balanced(eps=0.5)"
	if w.simple {
		scheme = "simple(x2)"
	}
	return map[string]any{
		"tasks": w.tasks, "scheme": scheme, "proto": w.proto, "batch": w.batch,
		"workers": nWorkers, "work": workKind, "iters": iters,
		"assignments_per_round": p.TotalAssignments(), "ringers": p.TotalRingers(),
		"durable": w.durable, "shards": w.shards,
	}
}

// roundOut is what one platform round measured.
type roundOut struct {
	setup       time.Duration
	serve       time.Duration
	restore     time.Duration
	assignments int
	leases      []time.Duration
	use         usage // process counters over the serve phase

	// traced rounds only
	client, server *netCounters
	journal        *tracedJournal
	leaseWaitSec   float64
	imbalancePct   float64
	exports        []agg.ShardExport   // the shards' audit exports, for replay.agg
	shardMap       redundancy.ShardMap // the cluster's ring parameters, for replay.ring
}

// leaseLog collects OnLeaseRTT samples; each worker goroutine owns one.
type leaseLog struct {
	samples []time.Duration
	tr      *tracer
}

func (l *leaseLog) observe(d time.Duration) {
	l.samples = append(l.samples, d)
	if l.tr != nil {
		l.tr.leaf("client.lease", time.Now().Add(-d), d)
	}
}

// runRound serves the whole plan once over loopback and checks the
// outcome. tr is nil on an untraced round; on a traced one the socket,
// journal and lease seams are wrapped and spans recorded.
func (w platformSpec) runRound(opt options, round int, tr *tracer, rec *recorder) (roundOut, error) {
	out := roundOut{client: &netCounters{}, server: &netCounters{}}
	tr.setRound(round)
	rootSpan := tr.begin("round", -1)
	defer tr.end(rootSpan)

	setupSpan := tr.begin("setup.plan", rootSpan)
	setupStart := time.Now()
	p, err := w.buildPlan()
	if err != nil {
		return out, err
	}
	tr.end(setupSpan)
	setupSpan = tr.begin("setup.supervisor", rootSpan)
	out.assignments = p.TotalAssignments()
	reg := redundancy.NewMetricsRegistry()

	var (
		sup     *redundancy.Supervisor
		cluster *redundancy.Cluster
		jf      *redundancy.JournalFile
		jpath   string
		addr    string
		// closeSup closes sup once: the durable path closes it before
		// reading the journal back, every other path on return.
		closeSup func() error
	)
	supCfg := redundancy.SupervisorConfig{
		Plan: p, WorkKind: workKind, Iters: iters, Seed: opt.seed, MaxBatch: w.batch, Metrics: reg,
	}
	switch {
	case w.shards > 0:
		cluster, err = redundancy.NewCluster(redundancy.ClusterConfig{
			Plan: p, Shards: w.shards, Seed: clusterSeed,
			WorkKind: workKind, Iters: iters, MaxBatch: w.batch, Metrics: reg,
		})
		if err != nil {
			return out, err
		}
		defer cluster.Close()
	default:
		if w.durable {
			jpath = filepath.Join(opt.tmpDir(), fmt.Sprintf("%s-%d-r%d.journal", w.name, os.Getpid(), round))
			os.Remove(jpath)
			if jf, err = redundancy.OpenJournalFile(jpath); err != nil {
				return out, err
			}
			defer os.Remove(jpath)
			supCfg.Journal = jf
			supCfg.JournalSync = true
			if tr != nil {
				out.journal = &tracedJournal{inner: jf, tr: tr}
				supCfg.Journal = out.journal
			}
		}
		if tr != nil {
			supCfg.WrapListener = func(ln net.Listener) net.Listener {
				return &tracedListener{Listener: ln, tr: tr, ctr: out.server}
			}
		}
		if sup, err = redundancy.NewSupervisor(supCfg); err != nil {
			return out, err
		}
		closeSup = sync.OnceValue(sup.Close)
		defer closeSup()
		if addr, err = sup.Start("127.0.0.1:0"); err != nil {
			return out, err
		}
	}
	out.setup = time.Since(setupStart)
	tr.end(setupSpan)

	// Serve: two closed-loop workers, each asking for its next lease only
	// after the last is acked.
	serveSpan := tr.begin("serve", rootSpan)
	tr.setLeafParent(serveSpan)
	logs := make([]*leaseLog, nWorkers)
	errs := make([]error, nWorkers)
	var wg sync.WaitGroup
	before := readUsage()
	serveStart := time.Now()
	names, err := workerNames(cluster)
	if err != nil {
		return out, err
	}
	for i := 0; i < nWorkers; i++ {
		logs[i] = &leaseLog{samples: make([]time.Duration, 0, out.assignments/w.batch/nWorkers+64), tr: tr}
		wc := redundancy.WorkerConfig{
			Addr: addr, Name: names[i], BatchSize: w.batch, Proto: w.proto,
			Seed: opt.seed*16 + uint64(i) + 1, OnLeaseRTT: logs[i].observe,
		}
		if tr != nil {
			wc.Dial = func(a string) (net.Conn, error) {
				c, err := net.Dial("tcp", a)
				if err != nil {
					return nil, err
				}
				return &tracedConn{Conn: c, tr: tr, ctr: out.client}, nil
			}
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if cluster != nil {
				_, errs[i] = redundancy.RunShardedWorker(wc, cluster.ShardMap)
			} else {
				_, errs[i] = redundancy.RunWorker(wc)
			}
		}(i)
	}
	if cluster != nil {
		cluster.Wait()
	} else {
		sup.Wait()
	}
	out.serve = time.Since(serveStart)
	out.use = readUsage().since(before)
	wg.Wait()
	tr.end(serveSpan)

	rec.attempt(out.assignments)
	for i, err := range errs {
		if err != nil {
			rec.fail(1, "round %d worker %d: %v", round, i, err)
		}
	}
	for _, l := range logs {
		out.leases = append(out.leases, l.samples...)
	}
	snap := reg.Snapshot()
	for _, f := range snap.Families {
		switch f.Name {
		case "redundancy_lease_wait_seconds":
			for _, m := range f.Metrics {
				out.leaseWaitSec += m.Sum
			}
		case "redundancy_results_rejected_total":
			for _, m := range f.Metrics {
				rec.fail(int(m.Value), "round %d: %v results rejected (%v)", round, m.Value, m.LabelValues)
			}
		}
	}

	if cluster != nil {
		w.checkCluster(round, p, cluster, rec, &out)
		return out, nil
	}
	live := sup.Summary()
	checkSummary(rec, fmt.Sprintf("round %d", round), p, live)
	ids := sampleTaskIDs(p.TotalTasks()+p.TotalRingers(), 32)
	checkCertified(rec, fmt.Sprintf("round %d", round), ids, sup.CertifiedValue)

	if w.durable {
		if err := closeSup(); err != nil {
			return out, err
		}
		if err := jf.Close(); err != nil {
			return out, err
		}
		if err := w.restoreAndCompare(opt, round, p, jpath, live, ids, sup, tr, rootSpan, rec, &out); err != nil {
			return out, err
		}
	}
	return out, nil
}

// workerNames names the workers. A sharded worker starts on its home
// shard, the ring owner of its name; with two workers a seed would put both
// on the same first shard half the time, which is a different regime
// (two connections on one supervisor, then on the other) from the one the
// ring is meant to give (one each). Names are chosen so that worker i's home
// is shard i mod shards, whatever the seed.
func workerNames(c *redundancy.Cluster) ([]string, error) {
	names := make([]string, nWorkers)
	if c == nil {
		for i := range names {
			names[i] = fmt.Sprintf("bench-%d", i)
		}
		return names, nil
	}
	r, shards, err := ringOf(c.ShardMap())
	if err != nil {
		return nil, err
	}
	for i := range names {
		for k := 0; names[i] == ""; k++ {
			name := fmt.Sprintf("bench-%d-%d", i, k)
			if home, _ := r.Lookup(name); home == shards[i%len(shards)] {
				names[i] = name
			}
		}
	}
	return names, nil
}

// checkSummary asserts the round certified every task with the true value
// and credited every assignment exactly once.
func checkSummary(rec *recorder, where string, p *redundancy.Plan, sum platform.Summary) {
	tasks := p.TotalTasks() + p.TotalRingers()
	rec.check(sum.Verify.Tasks == tasks, "%s: adjudicated %d of %d tasks", where, sum.Verify.Tasks, tasks)
	if un := tasks - sum.Verify.Accepted; un != 0 {
		rec.fail(abs(un), "%s: %d tasks uncertified", where, un)
	}
	rec.fail(sum.WrongResults, "%s: %d certified values differ from HashChain(TaskSeed(id), iters)", where, sum.WrongResults)
	rec.fail(sum.Verify.MismatchDetected, "%s: %d mismatches among honest workers", where, sum.Verify.MismatchDetected)
	credits := 0
	for _, c := range sum.Credits {
		credits += c.Credit
	}
	rec.check(credits == p.TotalAssignments(), "%s: credit sum %d != %d assignments", where, credits, p.TotalAssignments())
}

// checkCertified recomputes the work function for a spread of task IDs and
// compares it with what the supervisor certified. Summary.WrongResults
// already covers every task; this goes through the public per-task getter
// (a linear scan each, hence the sample) and is the hook the corruption
// test drives.
func checkCertified(rec *recorder, where string, ids []int, get func(int) (uint64, bool)) {
	for _, id := range ids {
		got, ok := get(id)
		want := truthValue(id)
		rec.check(ok && got == want, "%s: task %d certified %#x (present=%v), want %#x", where, id, got, ok, want)
	}
}

// truthValue is what an honest worker computes for a task.
func truthValue(taskID int) uint64 { return platform.HashChain(platform.TaskSeed(taskID), iters) }

func sampleTaskIDs(tasks, n int) []int {
	if n > tasks {
		n = tasks
	}
	ids := make([]int, n)
	for i := range ids {
		ids[i] = i * (tasks - 1) / max(n-1, 1)
	}
	return ids
}

// restoreAndCompare replays the journal the round just wrote into a fresh
// supervisor, times it, and asserts the restored state equals the live one.
func (w platformSpec) restoreAndCompare(opt options, round int, p *redundancy.Plan, jpath string, live platform.Summary, ids []int,
	liveSup *redundancy.Supervisor, tr *tracer, rootSpan int, rec *recorder, out *roundOut) error {
	f, err := os.Open(jpath)
	if err != nil {
		return err
	}
	defer f.Close()
	span := tr.begin("replay.journal", rootSpan)
	start := time.Now()
	restored, err := redundancy.NewSupervisor(redundancy.SupervisorConfig{
		Plan: p, WorkKind: workKind, Iters: iters, Seed: opt.seed, MaxBatch: w.batch, Restore: f,
	})
	out.restore = time.Since(start)
	tr.end(span)
	if err != nil {
		return fmt.Errorf("restore: %w", err)
	}
	defer restored.Close()
	got := restored.Summary()
	where := fmt.Sprintf("round %d restore", round)
	rec.check(got.Restored == p.TotalAssignments(), "%s: restored %d of %d results", where, got.Restored, p.TotalAssignments())
	rec.check(got.Verify == live.Verify, "%s: verify stats %+v != live %+v", where, got.Verify, live.Verify)
	rec.check(reflect.DeepEqual(got.Credits, live.Credits), "%s: credit ledger differs from live", where)
	rec.check(got.WrongResults == 0, "%s: %d wrong certified values", where, got.WrongResults)
	for _, id := range ids {
		lv, lok := liveSup.CertifiedValue(id)
		rv, rok := restored.CertifiedValue(id)
		rec.check(lok == rok && lv == rv, "%s: task %d certified %#x live, %#x restored", where, id, lv, rv)
	}
	return nil
}

func (w platformSpec) checkCluster(round int, p *redundancy.Plan, c *redundancy.Cluster, rec *recorder, out *roundOut) {
	where := fmt.Sprintf("round %d cluster", round)
	merged := c.Aggregate()
	out.imbalancePct = merged.ImbalancePct
	out.exports = c.Export()
	out.shardMap = c.ShardMap()
	tasks := p.TotalTasks() + p.TotalRingers()
	rec.check(merged.Assignments == p.TotalAssignments(), "%s: merged %d of %d assignments", where, merged.Assignments, p.TotalAssignments())
	rec.check(merged.Tasks == tasks, "%s: merged %d of %d tasks", where, merged.Tasks, tasks)
	if un := tasks - merged.Accepted; un != 0 {
		rec.fail(abs(un), "%s: %d tasks uncertified", where, un)
	}
	rec.fail(merged.Mismatches, "%s: %d mismatches among honest workers", where, merged.Mismatches)
	credits := 0
	for _, v := range merged.Credits {
		credits += v
	}
	rec.check(credits == p.TotalAssignments(), "%s: credit sum %d != %d assignments", where, credits, p.TotalAssignments())
	// The merge is exact when it equals the plain sum of the shards' own
	// summaries, and every shard certified only true values.
	shardTasks, shardAccepted := 0, 0
	ids := sampleTaskIDs(tasks, 32)
	found := make(map[int]uint64, len(ids))
	for i := 0; i < w.shards; i++ {
		sum := c.Supervisor(i).Summary()
		shardTasks += sum.Verify.Tasks
		shardAccepted += sum.Verify.Accepted
		rec.fail(sum.WrongResults, "%s: shard %d certified %d wrong values", where, i, sum.WrongResults)
		for _, id := range ids {
			if v, ok := c.Supervisor(i).CertifiedValue(id); ok {
				found[id] = v
			}
		}
	}
	rec.check(shardTasks == merged.Tasks && shardAccepted == merged.Accepted,
		"%s: merge (%d tasks, %d accepted) != shard sums (%d, %d)", where, merged.Tasks, merged.Accepted, shardTasks, shardAccepted)
	checkCertified(rec, where, ids, func(id int) (uint64, bool) { v, ok := found[id]; return v, ok })
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

// settle returns the heap to a comparable state between rounds, outside
// every timed section, so one round's garbage is not the next round's GC
// work.
func settle() { runtime.GC() }
