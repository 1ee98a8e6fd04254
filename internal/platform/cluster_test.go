package platform

import (
	"bytes"
	"errors"
	"fmt"
	"io/fs"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"redundancy/internal/adapt"
	"redundancy/internal/agg"
	"redundancy/internal/faults"
	"redundancy/internal/health"
	"redundancy/internal/obs"
	"redundancy/internal/plan"
	"redundancy/internal/ring"
	"redundancy/internal/rng"
	"redundancy/internal/sched"
)

// TestClusterPartition pins the sharding invariants everything else rests
// on: every global task lands on exactly one shard (disjoint and covering),
// under a dense local ID that maps back to it, the partition is a pure
// function of (plan, shards, vnodes, seed), and it matches what an
// independent ring rebuild — the worker's view — computes.
func TestClusterPartition(t *testing.T) {
	p := mustClusterPlan(t, 200)
	c, err := NewCluster(ClusterConfig{
		Plan: p, Shards: 4, Seed: 42, WorkKind: "hashchain", Iters: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	seen := make(map[int]int)
	specs := p.Tasks()
	for i, part := range c.parts {
		ids := c.ids[i]
		for _, sp := range plan.Expand(part) {
			g := ids.global(sp.ID)
			if prev, dup := seen[g]; dup {
				t.Fatalf("task %d on shards %d and %d", g, prev, i)
			}
			seen[g] = i
			if l := ids.local(g); l != sp.ID {
				t.Fatalf("shard %d: local %d maps to global %d, which maps back to %d", i, sp.ID, g, l)
			}
			// The shard's runs carry the plan's spec verbatim under the
			// local ID, or TaskSeed/ringer truth would diverge across shards.
			if want := specs[g]; want.ID != g || want.Copies != sp.Copies || want.Ringer != sp.Ringer {
				t.Fatalf("shard %d local %d is %+v, the plan's task %d is %+v", i, sp.ID, sp, g, want)
			}
		}
	}
	if len(seen) != len(specs) {
		t.Fatalf("partition covers %d of %d tasks", len(seen), len(specs))
	}
	// A shard translates no ID it does not own: another shard's task, one
	// past the plan, a negative one.
	for g, owner := range seen {
		for i, ids := range c.ids {
			if i != owner && ids.local(g) != -1 {
				t.Fatalf("shard %d translates shard %d's task %d to %d", i, owner, g, ids.local(g))
			}
		}
	}
	for _, g := range []int{-1, len(specs), len(specs) + 7} {
		if l := c.ids[0].local(g); l != -1 {
			t.Fatalf("shard 0 translates task %d, outside the plan, to %d", g, l)
		}
	}

	// The worker's independently rebuilt ring must agree on every owner.
	m := c.ShardMap()
	r, err := ring.New(ring.Config{VNodes: m.VNodes, Seed: m.Seed}, shardNames(m)...)
	if err != nil {
		t.Fatal(err)
	}
	for _, sp := range specs {
		owner, _ := r.LookupUint64(uint64(sp.ID))
		if owner != ShardName(seen[sp.ID]) {
			t.Fatalf("task %d: worker ring says %s, cluster put it on %s",
				sp.ID, owner, ShardName(seen[sp.ID]))
		}
	}
}

// ringShard returns the shard c's ring puts global task id on.
func ringShard(t *testing.T, c *Cluster, id int) int {
	t.Helper()
	name, ok := c.ring.LookupUint64(uint64(id))
	if !ok {
		t.Fatal("ring lookup failed")
	}
	var i int
	if _, err := fmt.Sscanf(name, "shard-%d", &i); err != nil {
		t.Fatal(err)
	}
	return i
}

// TestClusterPartsAreTaskPartition: each shard's local IDs map, in order,
// onto exactly the global tasks the per-task partition gives it (the plan's
// tasks in order, each appended to its ring owner's list), and its runs
// expand to those tasks' specs, one run per global run it has tasks in,
// for several shard counts.
func TestClusterPartsAreTaskPartition(t *testing.T) {
	p := mustClusterPlan(t, 3_000)
	runs := p.Runs()
	for _, shards := range []int{1, 2, 3, 5} {
		c, err := NewCluster(ClusterConfig{
			Plan: p, Shards: shards, Seed: 42, WorkKind: "hashchain", Iters: 5,
		})
		if err != nil {
			t.Fatal(err)
		}
		want := make([][]plan.TaskSpec, shards)
		inRuns := make([]int, shards)
		for _, run := range runs {
			has := make([]bool, shards)
			for _, sp := range plan.Expand([]plan.Run{run}) {
				i := ringShard(t, c, sp.ID)
				want[i] = append(want[i], sp)
				has[i] = true
			}
			for i, h := range has {
				if h {
					inRuns[i]++
				}
			}
		}
		for i, part := range c.parts {
			got := plan.Expand(part)
			for l := range got {
				if got[l].ID != l {
					t.Fatalf("%d shards: shard %d's runs skip local ID %d", shards, i, l)
				}
				got[l].ID = c.ids[i].global(l)
			}
			if !slices.Equal(got, want[i]) {
				t.Errorf("%d shards: shard %d's %d runs expand to %d tasks, the per-task partition gives it %d",
					shards, i, len(part), len(got), len(want[i]))
			}
			if len(part) != inRuns[i] {
				t.Errorf("%d shards: shard %d has %d runs, it has tasks in %d of the plan's", shards, i, len(part), inRuns[i])
			}
		}
		c.Close()
	}
}

// TestClusterShardsDealTheParentSequence: a shard dealt over its local IDs
// hands out, copy for copy, the (global task, copy) sequence of a queue
// built as a shard's was before local IDs: over the stretches of each
// global run the shard owns, under the plan's own IDs, with the shard's
// seed. Each item's seed is the global task's.
func TestClusterShardsDealTheParentSequence(t *testing.T) {
	p := mustClusterPlan(t, 2_000)
	for _, policy := range []sched.Policy{sched.Free, sched.OneOutstanding} {
		c, err := NewCluster(ClusterConfig{
			Plan: p, Shards: 3, Seed: 11, Policy: policy, WorkKind: "hashchain", Iters: 5,
		})
		if err != nil {
			t.Fatal(err)
		}
		for i := range c.ids {
			var ref []plan.Run // the global-ID runs the shard was once given
			for _, run := range p.Runs() {
				for id := run.First; id < run.End(); id++ {
					if ringShard(t, c, id) != i {
						continue
					}
					if n := len(ref); n > 0 && ref[n-1].End() == id && ref[n-1].Copies == run.Copies && ref[n-1].Ringer == run.Ringer {
						ref[n-1].Count++
					} else {
						ref = append(ref, plan.Run{First: id, Count: 1, Copies: run.Copies, Ringer: run.Ringer})
					}
				}
			}
			rq, err := sched.NewRunQueue(ref, policy, rng.New(11+uint64(i)))
			if err != nil {
				t.Fatal(err)
			}
			sup := c.Supervisor(i)
			var got []WorkItem
			sup.withState(func() {
				for _, a := range sup.lease.Queue().NextBatch(nil, sup.lease.Queue().Total()) {
					got = append(got, sup.workItem(a))
				}
			})
			want := rq.NextBatch(nil, rq.Total())
			if len(got) != len(want) || len(got) == 0 {
				t.Fatalf("%v shard %d deals %d copies, the reference %d", policy, i, len(got), len(want))
			}
			for k, a := range want {
				if w := (WorkItem{TaskID: a.TaskID, Copy: a.Copy, Seed: TaskSeed(a.TaskID)}); got[k] != w {
					t.Fatalf("%v shard %d copy %d: dealt %+v, the reference %+v", policy, i, k, got[k], w)
				}
			}
		}
		c.Close()
	}
}

// TestClusterRefusesForeignResults: a result batch naming another shard's
// task, a task past the plan or a negative task ID is refused as
// unassigned, each ack under the ID the worker sent, and the reply's bytes
// are the ones a shard answered with before it kept local IDs (every ack
// refused "unassigned"), over both protocols.
func TestClusterRefusesForeignResults(t *testing.T) {
	p := mustClusterPlan(t, 200)
	c, err := NewCluster(ClusterConfig{Plan: p, Shards: 2, Seed: 3, WorkKind: "hashchain", Iters: 5})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	total := p.N + p.Ringers
	for i := range c.ids {
		foreign := slices.IndexFunc(c.ids[1-i].globals, func(g int32) bool { return g > 0 })
		results := []ResultItem{
			{TaskID: int(c.ids[1-i].globals[foreign]), Copy: 0, Value: 1},
			{TaskID: total, Copy: 0, Value: 2},
			{TaskID: total + 1000, Copy: 1, Value: 3},
			{TaskID: -3, Copy: 0, Value: 4},
		}
		want := Message{Type: MsgBatchAck}
		for _, r := range results {
			want.Acks = append(want.Acks, ResultAck{TaskID: r.TaskID, Copy: r.Copy, Reason: ReasonUnassigned, Error: "result for unassigned work"})
		}
		for _, proto := range []string{"", ProtoBinary} {
			var read bytes.Buffer
			w := dialRaw(t, func(a string) (net.Conn, error) {
				conn, err := net.Dial("tcp", a)
				return &teeConn{Conn: conn, r: &read}, err
			}, c.Addr(i), batchVerbs, proto)
			from := read.Len()
			w.exchange(Message{Type: MsgResultBatch, ParticipantID: w.id, Results: results})
			var buf bytes.Buffer
			enc := NewCodec(&buf)
			if proto == ProtoBinary {
				enc.EnableBinary()
			}
			if err := enc.Send(want); err != nil {
				t.Fatal(err)
			}
			if got := read.Bytes()[from:]; !bytes.Equal(got, buf.Bytes()) {
				t.Errorf("shard %d over %s acked\n%q\nwant\n%q", i, proto, got, buf.Bytes())
			}
		}
	}
}

// TestClusterConfigValidation pins the guard rails between the two
// constructors of one config: NewCluster refuses what shards cannot share
// (one mutable Plan under Adapt, one Journal or Restore stream), and
// NewSupervisor refuses the fields only a cluster uses.
func TestClusterConfigValidation(t *testing.T) {
	p := mustClusterPlan(t, 50)
	var journal bytes.Buffer
	for _, tc := range []struct {
		name    string
		cluster bool
		cfg     SupervisorConfig
		errWant string
	}{
		{"cluster without shards", true, SupervisorConfig{Plan: p}, "shard"},
		{"cluster without a plan", true, SupervisorConfig{Shards: 2}, "plan"},
		{"cluster with Adapt", true, SupervisorConfig{Plan: p, Shards: 2,
			Adapt: &adapt.Config{TargetEpsilon: 0.5}}, "Adapt"},
		{"cluster with Journal", true, SupervisorConfig{Plan: p, Shards: 2,
			Journal: &journal}, "JournalDir"},
		{"cluster with Restore", true, SupervisorConfig{Plan: p, Shards: 2,
			Restore: strings.NewReader("")}, "JournalDir"},
		{"supervisor with Shards", false, SupervisorConfig{Plan: p, Shards: 2}, "NewCluster"},
		{"supervisor with JournalDir", false, SupervisorConfig{Plan: p,
			JournalDir: t.TempDir()}, "NewCluster"},
	} {
		var err error
		if tc.cluster {
			var c *Cluster
			if c, err = NewCluster(tc.cfg); err == nil {
				c.Close()
			}
		} else {
			_, err = NewSupervisor(tc.cfg)
		}
		if err == nil || !strings.Contains(err.Error(), tc.errWant) {
			t.Errorf("%s: err=%v, want a refusal naming %q", tc.name, err, tc.errWant)
		}
	}
	// The degenerate parameter: Shards 1 is a lone supervisor's own value.
	sup, err := NewSupervisor(SupervisorConfig{Plan: p, Shards: 1})
	if err != nil {
		t.Fatalf("Shards=1 refused by NewSupervisor: %v", err)
	}
	sup.Close()
}

// TestShardedSmoke runs a 2-shard cluster to completion with sharded
// workers and checks the global ledger: every task certified exactly once
// across the cluster, total credit equals the plan's assignment count,
// no reply carried an epoch (none changed membership), and the
// shard-labeled counters partition the unlabeled totals.
func TestShardedSmoke(t *testing.T) {
	p := mustClusterPlan(t, 120)
	reg := obs.NewRegistry()
	c, err := NewCluster(ClusterConfig{
		Plan: p, Shards: 2, Seed: 7, WorkKind: "hashchain", Iters: 10,
		Metrics: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	const workers = 4
	var wg sync.WaitGroup
	stats := make([]WorkerStats, workers)
	errs := make([]error, workers)
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			stats[i], errs[i] = RunShardedWorker(WorkerConfig{
				Name: fmt.Sprintf("smoke-%d", i), BatchSize: 4, Seed: uint64(i + 1),
			}, c.ShardMap)
		}(i)
	}
	c.Wait()
	wg.Wait()

	completed := 0
	for i := range stats {
		if errs[i] != nil {
			t.Errorf("worker %d: %v", i, errs[i])
		}
		if stats[i].Epoch != 0 {
			t.Errorf("worker %d saw epoch %d, want 0 (no membership change)", i, stats[i].Epoch)
		}
		completed += stats[i].Completed
	}
	if completed != p.TotalAssignments() {
		t.Errorf("workers completed %d assignments, want %d", completed, p.TotalAssignments())
	}

	m := agg.Merge(c.Export(), 0)
	tasks := len(p.Tasks()) // real tasks + ringers, all adjudicated
	if m.Tasks != tasks || m.Accepted != tasks {
		t.Errorf("aggregated %d tasks (%d accepted), want %d certified", m.Tasks, m.Accepted, tasks)
	}
	if m.Assignments != p.TotalAssignments() {
		t.Errorf("aggregated %d adjudicated copies, want %d", m.Assignments, p.TotalAssignments())
	}
	total := 0
	for _, cr := range m.Credits {
		total += cr
	}
	if total != p.TotalAssignments() {
		t.Errorf("merged credit %d, want %d (lost or double-granted work)", total, p.TotalAssignments())
	}

	// Shared registry: the unlabeled family holds the cluster-wide total,
	// the shard_id-labeled mirrors attribute it, and the two must agree.
	snap := reg.Snapshot()
	issued, _ := snap.Value("redundancy_assignments_issued_total")
	var mirrored float64
	for i := 0; i < 2; i++ {
		v, ok := snap.Value("redundancy_shard_assignments_issued_total", ShardName(i))
		if !ok || v == 0 {
			t.Errorf("no shard_id series for %s", ShardName(i))
		}
		mirrored += v
		routed, _ := snap.Value("redundancy_shard_routed_total", ShardName(i))
		if routed == 0 {
			t.Errorf("no routed work recorded on %s", ShardName(i))
		}
	}
	if mirrored != issued {
		t.Errorf("shard mirrors sum to %v, unlabeled total %v", mirrored, issued)
	}
	if reb, _ := snap.Value("redundancy_ring_rebalances_total"); reb != 0 {
		t.Errorf("ring_rebalances_total = %v on a quiet cluster", reb)
	}
}

// TestClusterRoutingStateConcurrent reads the routing state from several
// goroutines, as sharded workers do through ShardMap, while shard 1 is
// killed and restored over and over. Under the race detector it fails on
// any unguarded access; on its own it checks that every map is one
// consistent cut: shard 1 is down exactly at the odd epochs, and the epoch
// never goes back.
func TestClusterRoutingStateConcurrent(t *testing.T) {
	c, err := NewCluster(ClusterConfig{
		Plan: mustClusterPlan(t, 40), Shards: 2, Seed: 5, WorkKind: "hashchain", Iters: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	stop := make(chan struct{})
	var wg sync.WaitGroup
	defer wg.Wait()
	defer close(stop)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var last uint64
			for {
				select {
				case <-stop:
					return
				default:
				}
				m := c.ShardMap()
				if m.Epoch < last || m.Shards[0].Down || m.Shards[1].Down != (m.Epoch%2 == 1) {
					t.Errorf("torn shard map after epoch %d: %+v", last, m)
					return
				}
				last = m.Epoch
				if c.Supervisor(0) == nil {
					t.Error("shard 0 reported down")
					return
				}
				c.Supervisor(1)
			}
		}()
	}
	const cycles = 5
	for i := 0; i < cycles; i++ {
		if err := c.KillShard(1); err != nil {
			t.Fatal(err)
		}
		if err := c.RestoreShard(1); err != nil {
			t.Fatal(err)
		}
	}
	if e := c.ShardMap().Epoch; e != 2*cycles {
		t.Errorf("epoch %d after %d kill/restore cycles, want %d", e, cycles, 2*cycles)
	}
}

// TestClusterLifecycleSerialized races two KillShard calls on one shard,
// then two RestoreShard calls, a few rounds over. Exactly one kill stops
// the shard and the epoch moves once; the other finds it stopped. Exactly
// one restore brings it back; the other finds it up and is refused before
// it opens the shard's journal, so the live shard's journal is never
// replayed and truncated under it: every restore recovers the same work.
func TestClusterLifecycleSerialized(t *testing.T) {
	c, err := NewCluster(ClusterConfig{
		Plan: mustClusterPlan(t, 40), Shards: 2, Seed: 5, WorkKind: "hashchain", Iters: 5,
		JournalDir: t.TempDir(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if st, err := RunWorker(WorkerConfig{Addr: c.Addr(1), Name: "pre", MaxAssignments: 8}); err != nil || st.Completed != 8 {
		t.Fatalf("completed %d assignments on shard 1 (err %v), want 8", st.Completed, err)
	}
	race := func(what, refusal string, op func(int) error) {
		t.Helper()
		var errs [2]error
		var wg sync.WaitGroup
		start := make(chan struct{})
		for k := range errs {
			wg.Add(1)
			go func(k int) {
				defer wg.Done()
				<-start
				errs[k] = op(1)
			}(k)
		}
		close(start)
		wg.Wait()
		ok := 0
		for _, err := range errs {
			if err == nil {
				ok++
			} else if !strings.Contains(err.Error(), refusal) {
				t.Errorf("losing %s: %v, want %q", what, err, refusal)
			}
		}
		if ok != 1 {
			t.Errorf("%d of 2 concurrent %ss succeeded, want 1", ok, what)
		}
	}
	for round := 0; round < 4; round++ {
		e := c.ShardMap().Epoch
		race("kill", "is not running", c.KillShard)
		if got := c.ShardMap().Epoch; got != e+1 {
			t.Errorf("round %d: epoch %d after two racing kills, want %d", round, got, e+1)
		}
		race("restore", "is not down", c.RestoreShard)
		sup := c.Supervisor(1)
		if sup == nil {
			t.Fatalf("round %d: shard 1 down after a restore succeeded", round)
		}
		if got := sup.Summary().Restored; got != 8 {
			t.Errorf("round %d: restored %d results, want 8", round, got)
		}
	}
}

// supDone reports whether a supervisor's task subset has fully certified.
func supDone(s *Supervisor) bool {
	select {
	case <-s.done:
		return true
	default:
		return false
	}
}

// findRegularOnlyCheatSeed picks a coalition seed whose per-task cheat coin
// marks at least one regular task but no ringer — the deterministic,
// conviction-free adversary the chaos soak needs. The coin is a pure
// function of (seed, taskID), so scanning seeds is exact.
func findRegularOnlyCheatSeed(t *testing.T, p *plan.Plan, prob float64) uint64 {
	t.Helper()
	for seed := uint64(1); seed < 10_000; seed++ {
		probe := NewCoalition(prob, seed)
		marked, ringerMarked := 0, false
		for _, sp := range p.Tasks() {
			if !probe.cheatsOn(sp.ID) {
				continue
			}
			if sp.Ringer {
				ringerMarked = true
				break
			}
			marked++
		}
		if !ringerMarked && marked > 0 {
			return seed
		}
	}
	t.Fatal("no regular-only cheat seed below 10000")
	return 0
}

// ringOwnerIndex returns the shard index owning a task in cluster c.
func ringOwnerIndex(c *Cluster, task int) (int, bool) {
	owner, ok := c.ring.LookupUint64(uint64(task))
	if !ok {
		return 0, false
	}
	for i := 0; i < len(c.sups); i++ {
		if ShardName(i) == owner {
			return i, true
		}
	}
	return 0, false
}

// mustClusterPlan builds the Balanced plan the cluster tests share.
func mustClusterPlan(t *testing.T, n int) *plan.Plan {
	t.Helper()
	p, err := plan.Balanced(n, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestShardedWorkerBanned pins the drain loop's ban handling: a convicted
// worker stops retrying the shard that blacklisted it (ErrBlacklisted via
// errors.Is), reports the ban, and honest sharded workers still finish the
// whole cluster.
func TestShardedWorkerBanned(t *testing.T) {
	// Ringer-heavy hand-built plan so an always-cheat worker is convicted
	// almost immediately on whichever shard it touches first.
	p := &plan.Plan{
		Epsilon:            0.5,
		N:                  40,
		Counts:             []int{40}, // 40 single-copy tasks
		TailMultiplicity:   2,
		Ringers:            8,
		RingerMultiplicity: 2,
	}
	c, err := NewCluster(ClusterConfig{
		Plan: p, Shards: 2, Seed: 3, WorkKind: "hashchain", Iters: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	// The cheater runs alone first: serving every copy itself, it
	// inevitably completes both copies of a ringer on each shard it
	// touches and is convicted by the precomputed truth — so the ban is
	// deterministic, not a race against honest workers.
	coal := NewCoalition(1, 3)
	_, banErr := RunShardedWorker(WorkerConfig{
		Name: "cheater", Cheat: coal.CheatFunc(),
	}, c.ShardMap)

	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if _, err := RunShardedWorker(WorkerConfig{
				Name: fmt.Sprintf("honest-%d", i), BatchSize: 4,
			}, c.ShardMap); err != nil {
				t.Errorf("honest worker %d: %v", i, err)
			}
		}(i)
	}
	c.Wait()
	wg.Wait()

	if banErr == nil {
		t.Fatal("always-cheating sharded worker finished without a ban")
	}
	if !errors.Is(banErr, ErrBlacklisted) {
		t.Fatalf("ban error %v does not wrap ErrBlacklisted", banErr)
	}

	m := agg.Merge(c.Export(), 0)
	if m.Tasks != len(p.Tasks()) || m.Accepted != len(p.Tasks())-m.Mismatches {
		t.Errorf("cluster did not finish cleanly after the ban: %s", m.String())
	}
	if m.RingersCaught == 0 {
		t.Error("no ringer catches aggregated across shards")
	}
}

// TestShardedWorkerFinalMapAllDown: a map that cannot change (here one
// built by hand) with every shard down can never be served, so the worker
// returns an error instead of waiting for a restore.
func TestShardedWorkerFinalMapAllDown(t *testing.T) {
	m := ShardMap{Shards: []ShardInfo{
		{ID: 0, Name: ShardName(0), Addr: "127.0.0.1:1", Down: true},
		{ID: 1, Name: ShardName(1), Addr: "127.0.0.1:2", Down: true},
	}}
	lookups := 0
	st, err := RunShardedWorker(WorkerConfig{Name: "orphan"}, func() ShardMap {
		lookups++
		return m
	})
	if err == nil || st.Completed != 0 {
		t.Fatalf("worker on an all-down final map: %+v, %v; want an error", st, err)
	}
	if lookups != 1 {
		t.Errorf("worker looked the map up %d times, want 1", lookups)
	}
}

// TestClusterShardsTakeEveryOption builds a cluster from a SupervisorConfig
// carrying the options the shards used to drop — Health, SpeculatePct,
// Deadline, ResolveMismatches and a fault-injecting WrapListener — and runs
// it to exact merged credit: every task certified once, every copy credited
// once, through dropped connections and speculative clones.
func TestClusterShardsTakeEveryOption(t *testing.T) {
	p := mustClusterPlan(t, 60)
	inj, err := faults.New(faults.Config{
		Seed: 3, ReadDrop: 0.02, WriteDrop: 0.02,
		Latency: 100 * time.Microsecond, Jitter: 200 * time.Microsecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	var wrapped atomic.Int32
	c, err := NewCluster(SupervisorConfig{
		Plan: p, Shards: 2, Seed: 4, WorkKind: "hashchain", Iters: 10,
		Health: &health.Config{}, SpeculatePct: 0.9, Deadline: 2 * time.Second,
		ResolveMismatches: true,
		WrapListener: func(ln net.Listener) net.Listener {
			wrapped.Add(1)
			return inj.Listener(ln)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for i := 0; i < 2; i++ {
		s := c.Supervisor(i)
		if s.roster == nil || s.cfg.SpeculatePct == 0 || !s.cfg.ResolveMismatches || s.cfg.Deadline == 0 {
			t.Fatalf("shard %d lost a supervisor option: %+v", i, s.cfg)
		}
	}

	const workers = 4
	var wg sync.WaitGroup
	errs := make([]error, workers)
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = RunShardedWorker(WorkerConfig{
				Name: fmt.Sprintf("opt-%d", i), BatchSize: 4, Seed: uint64(i + 1),
				Reconnect: true, MaxReconnects: 50,
				BackoffBase: time.Millisecond, BackoffMax: 20 * time.Millisecond,
			}, c.ShardMap)
		}(i)
	}
	c.Wait()
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Errorf("worker %d: %v", i, err)
		}
	}
	if n := wrapped.Load(); n != 2 {
		t.Errorf("WrapListener wrapped %d shard listeners, want 2", n)
	}
	m := c.Aggregate()
	if m.Tasks != len(p.Tasks()) || m.Accepted != len(p.Tasks()) || m.Assignments != p.TotalAssignments() {
		t.Errorf("merged %d tasks (%d accepted, %d copies), want %d certified over %d copies",
			m.Tasks, m.Accepted, m.Assignments, len(p.Tasks()), p.TotalAssignments())
	}
	credit := 0
	for _, cr := range m.Credits {
		credit += cr
	}
	if credit != p.TotalAssignments() {
		t.Errorf("merged credit %d, want %d (lost or double-granted work)", credit, p.TotalAssignments())
	}
}

// TestClusterSnapshotsRestore runs a cluster whose shards compact their
// journals, then kills and restores every shard: each journal must start
// with a snapshot line, and each restored shard must be in the live
// shard's certification state, byte for byte.
func TestClusterSnapshotsRestore(t *testing.T) {
	p := mustClusterPlan(t, 80)
	dir := t.TempDir()
	c, err := NewCluster(SupervisorConfig{
		Plan: p, Shards: 2, Seed: 6, WorkKind: "hashchain", Iters: 5,
		JournalDir: dir, SnapshotInterval: 16,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if _, err := RunShardedWorker(WorkerConfig{
				Name: fmt.Sprintf("snap-%d", i), BatchSize: 4, Seed: uint64(i + 1),
			}, c.ShardMap); err != nil {
				t.Errorf("worker %d: %v", i, err)
			}
		}(i)
	}
	c.Wait()
	wg.Wait()
	for i := 0; i < 2; i++ {
		live, err := c.Supervisor(i).Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		if err := c.KillShard(i); err != nil {
			t.Fatal(err)
		}
		data, err := os.ReadFile(filepath.Join(dir, fmt.Sprintf("shard-%d.jnl", i)))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.HasPrefix(data, []byte(`{"snapshot":`)) {
			t.Errorf("shard %d journal does not start with a snapshot: %.60s", i, data)
		}
		if err := c.RestoreShard(i); err != nil {
			t.Fatal(err)
		}
		restored, err := c.Supervisor(i).Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(live, restored) {
			t.Errorf("shard %d restored state differs from the live one (%d vs %d bytes)", i, len(restored), len(live))
		}
	}
}

// TestClusterShardRefusesRevisionRecord: a revision names global IDs of
// the one plan the shards share, and no shard revises, so a shard journal
// that holds a revision record is refused at restore and the plan is left
// as it was.
func TestClusterShardRefusesRevisionRecord(t *testing.T) {
	p := mustClusterPlan(t, 40)
	dir := t.TempDir()
	c, err := NewCluster(SupervisorConfig{
		Plan: p, Shards: 2, Seed: 5, WorkKind: "hashchain", Iters: 5, JournalDir: dir,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.KillShard(0); err != nil {
		t.Fatal(err)
	}
	next := p.NextTaskID()
	rev := fmt.Sprintf(`{"revision":{"seq":0,"phat":0.1,"upper":0.2,"minted":[{"task":%d,"copies":2}]}}`+"\n", next)
	if err := os.WriteFile(filepath.Join(dir, "shard-0.jnl"), []byte(rev), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := c.RestoreShard(0); err == nil || !strings.Contains(err.Error(), "plan revision") {
		t.Fatalf("restoring a shard journal holding a revision: err %v", err)
	}
	if p.NextTaskID() != next {
		t.Errorf("the shared plan moved: next task %d, was %d", p.NextTaskID(), next)
	}
}

// TestClusterRestoreUnterminatedJournal kills and restores a shard whose
// journal lost the newline after its last record, twice, with work
// appended in between. The first restore must keep that record and leave
// the journal at its exact length (no byte past the end), and the record
// written next must not weld onto it: the second restore recovers every
// result, and the run finishes with exact credit.
func TestClusterRestoreUnterminatedJournal(t *testing.T) {
	p := mustClusterPlan(t, 40)
	dir := t.TempDir()
	c, err := NewCluster(SupervisorConfig{
		Plan: p, Shards: 2, Seed: 5, WorkKind: "hashchain", Iters: 5, JournalDir: dir,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	jpath := filepath.Join(dir, "shard-1.jnl")
	work := func(name string) {
		t.Helper()
		st, err := RunWorker(WorkerConfig{Addr: c.Addr(1), Name: name, MaxAssignments: 8})
		if err != nil || st.Completed != 8 {
			t.Fatalf("%s completed %d assignments on shard 1 (err %v), want 8", name, st.Completed, err)
		}
	}
	restore := func(want int) {
		t.Helper()
		if err := c.KillShard(1); err != nil {
			t.Fatal(err)
		}
		if err := c.RestoreShard(1); err != nil {
			t.Fatal(err)
		}
		if got := c.Supervisor(1).Summary().Restored; got != want {
			t.Errorf("restored %d results, want %d", got, want)
		}
	}

	work("first")
	if err := c.KillShard(1); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(jpath)
	if err != nil {
		t.Fatal(err)
	}
	data = bytes.TrimSuffix(data, []byte("\n"))
	if err := os.WriteFile(jpath, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := c.RestoreShard(1); err != nil {
		t.Fatal(err)
	}
	if got := c.Supervisor(1).RestoredJournalBytes(); got != int64(len(data)) {
		t.Errorf("replay consumed %d bytes of a %d-byte journal", got, len(data))
	}
	if got := c.Supervisor(1).Summary().Restored; got != 8 {
		t.Errorf("restored %d results, want 8", got)
	}
	work("second")
	restore(16)
	restore(16)
	if data, err := os.ReadFile(jpath); err != nil || bytes.IndexByte(data, 0) >= 0 {
		t.Errorf("journal holds a NUL byte (err %v)", err)
	}

	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if _, err := RunShardedWorker(WorkerConfig{Name: fmt.Sprintf("rest-%d", i), BatchSize: 4}, c.ShardMap); err != nil {
				t.Errorf("worker %d: %v", i, err)
			}
		}(i)
	}
	c.Wait()
	wg.Wait()
	credit := 0
	for _, cr := range c.Aggregate().Credits {
		credit += cr
	}
	if credit != p.TotalAssignments() {
		t.Errorf("merged credit %d, want %d", credit, p.TotalAssignments())
	}
}

// TestClusterLogfSerialized: a cluster calls the user's Logf one call at a
// time, as SupervisorConfig.Logf promises, though each shard logs from its
// own goroutines: its listening line, and a registration line for every
// worker that reaches it. The hook sleeps, so two callers that are not
// serialized overlap in it.
func TestClusterLogfSerialized(t *testing.T) {
	p := mustClusterPlan(t, 120)
	var inFlight, calls, overlaps atomic.Int32
	c, err := NewCluster(ClusterConfig{
		Plan: p, Shards: 4, Seed: 7, WorkKind: "hashchain", Iters: 10,
		Logf: func(string, ...any) {
			calls.Add(1)
			if inFlight.Add(1) > 1 {
				overlaps.Add(1)
			}
			time.Sleep(200 * time.Microsecond)
			inFlight.Add(-1)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	const workers = 4
	var wg sync.WaitGroup
	errs := make([]error, workers)
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = RunShardedWorker(WorkerConfig{
				Name: fmt.Sprintf("log-%d", i), BatchSize: 4, Seed: uint64(i + 1),
			}, c.ShardMap)
		}(i)
	}
	c.Wait()
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Errorf("worker %d: %v", i, err)
		}
	}
	if n := calls.Load(); n < 4 {
		t.Fatalf("Logf called %d times, want a listening line from each of 4 shards at least", n)
	}
	if n := overlaps.Load(); n != 0 {
		t.Errorf("%d of %d Logf calls began while another was running", n, calls.Load())
	}
}

// TestClusterFailedBuildLeavesNothing: when one shard cannot open its
// journal, NewCluster returns that shard's error and leaves nothing
// running: the shards built beside it are closed, their addresses refuse
// a dial, and the goroutine count returns to where it started.
func TestClusterFailedBuildLeavesNothing(t *testing.T) {
	p := mustClusterPlan(t, 120)
	dir := t.TempDir()
	if err := os.Mkdir(filepath.Join(dir, "shard-1.jnl"), 0o755); err != nil {
		t.Fatal(err)
	}
	before := runtime.NumGoroutine()
	var mu sync.Mutex
	var addrs []string
	c, err := NewCluster(ClusterConfig{
		Plan: p, Shards: 4, Seed: 7, WorkKind: "hashchain", Iters: 10, JournalDir: dir,
		WrapListener: func(ln net.Listener) net.Listener {
			mu.Lock()
			defer mu.Unlock()
			addrs = append(addrs, ln.Addr().String())
			return ln
		},
	})
	if err == nil {
		c.Close()
		t.Fatal("NewCluster built a cluster whose shard-1 journal is a directory")
	}
	var pathErr *fs.PathError
	if !errors.As(err, &pathErr) || filepath.Base(pathErr.Path) != "shard-1.jnl" {
		t.Fatalf("NewCluster: %v, want shard-1's journal open error", err)
	}
	if len(addrs) > 3 {
		t.Fatalf("%d shards bound a listener, want at most the 3 with a journal", len(addrs))
	}
	for _, a := range addrs {
		if conn, err := net.DialTimeout("tcp", a, time.Second); err == nil {
			conn.Close()
			t.Errorf("shard address %s still accepts connections", a)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines left running after the failed build, %d before it",
				runtime.NumGoroutine(), before)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestClusterMetricsFamilyOrder: the shards register their metrics at
// once, yet every build renders the same /metrics families in the same
// order, since family order is registration order and every shard
// registers the same families in the same sequence.
func TestClusterMetricsFamilyOrder(t *testing.T) {
	p := mustClusterPlan(t, 120)
	families := func() string {
		reg := obs.NewRegistry()
		c, err := NewCluster(ClusterConfig{
			Plan: p, Shards: 4, Seed: 7, WorkKind: "hashchain", Iters: 10, Metrics: reg,
		})
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		var buf bytes.Buffer
		if err := reg.WritePrometheus(&buf); err != nil {
			t.Fatal(err)
		}
		var types []string
		for _, line := range strings.Split(buf.String(), "\n") {
			if strings.HasPrefix(line, "# TYPE ") {
				types = append(types, line)
			}
		}
		return strings.Join(types, "\n")
	}
	want := families()
	if want == "" {
		t.Fatal("a fresh cluster rendered no metric families")
	}
	for build := 1; build < 20; build++ {
		if got := families(); got != want {
			t.Fatalf("build %d renders families\n%s\nwhere build 0 rendered\n%s", build, got, want)
		}
	}
}

// BenchmarkNewCluster times building and closing a 2-shard cluster over a
// Balanced plan, per task of the plan: the ring routing every task to its
// shard and local ID, and the shards' construction and start-up. It
// reports the bytes allocated per task as BenchmarkNewSupervisor does.
func BenchmarkNewCluster(b *testing.B) {
	for _, n := range []int{200_000, 1_000_000} {
		b.Run(fmt.Sprintf("Balanced%d", n), func(b *testing.B) {
			p, err := plan.Balanced(n, 0.5)
			if err != nil {
				b.Fatal(err)
			}
			tasks := p.N + p.Ringers
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				c, err := NewCluster(ClusterConfig{
					Plan: p, Shards: 2, Seed: 1, WorkKind: "hashchain", Iters: 10,
				})
				if err != nil {
					b.Fatal(err)
				}
				c.Close()
			}
			b.StopTimer()
			runtime.ReadMemStats(&after)
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*tasks), "ns/task")
			b.ReportMetric(float64(after.TotalAlloc-before.TotalAlloc)/float64(b.N*tasks), "B/task")
		})
	}
}

// TestNewClusterBytesPerTask: a 2-shard cluster keeps one global table (a
// task's local ID) and, per shard, its local IDs' global ones and tables
// sized to the tasks it owns, so its construction allocates little more
// per task than one supervisor's.
func TestNewClusterBytesPerTask(t *testing.T) {
	const budget = 48.0
	for _, n := range []int{200_000, 1_000_000} {
		p := mustClusterPlan(t, n)
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		c, err := NewCluster(ClusterConfig{Plan: p, Shards: 2, Seed: 1, WorkKind: "hashchain", Iters: 10})
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		c.Close()
		got := float64(after.TotalAlloc-before.TotalAlloc) / float64(p.N+p.Ringers)
		if got > budget {
			t.Errorf("NewCluster on Balanced(%d, 0.5) over 2 shards allocates %.1f B per task, budget %.0f", n, got, budget)
		}
		t.Logf("Balanced(%d, 0.5) over 2 shards: %.1f B per task", n, got)
	}
}

// newSupervisorBytes builds a supervisor over p and returns the bytes the
// construction allocated per task of the plan.
func newSupervisorBytes(tb testing.TB, p *plan.Plan) float64 {
	tb.Helper()
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	sup, err := NewSupervisor(SupervisorConfig{Plan: p, WorkKind: "hashchain", Iters: 10, Seed: 1})
	runtime.ReadMemStats(&after)
	if err != nil {
		tb.Fatal(err)
	}
	sup.Close()
	return float64(after.TotalAlloc-before.TotalAlloc) / float64(p.N+p.Ringers)
}

// TestNewSupervisorBytesPerTask: a supervisor is built from the plan's
// runs, so its construction allocates the tables it keeps (the
// collector's 16-byte task slots, the queue's 8-byte slots, the lease
// index and the issued marks) and no per-task list on the way.
func TestNewSupervisorBytesPerTask(t *testing.T) {
	const budget = 34.0
	for _, n := range []int{100_000, 1_000_000} {
		p := mustClusterPlan(t, n)
		got := newSupervisorBytes(t, p)
		if got > budget {
			t.Errorf("NewSupervisor on Balanced(%d, 0.5) allocates %.1f B per task, budget %.0f", n, got, budget)
		}
		t.Logf("Balanced(%d, 0.5): %.1f B per task", n, got)
	}
}

// BenchmarkNewSupervisor times building and closing a supervisor over a
// Balanced plan, per task of the plan: the queue's fill and shuffle, the
// collector's and the lease table's task tables.
func BenchmarkNewSupervisor(b *testing.B) {
	for _, n := range []int{250_000, 1_000_000} {
		b.Run(fmt.Sprintf("Balanced%d", n), func(b *testing.B) {
			p, err := plan.Balanced(n, 0.5)
			if err != nil {
				b.Fatal(err)
			}
			tasks := p.N + p.Ringers
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sup, err := NewSupervisor(SupervisorConfig{Plan: p, WorkKind: "hashchain", Iters: 10, Seed: 1})
				if err != nil {
					b.Fatal(err)
				}
				sup.Close()
			}
			b.StopTimer()
			runtime.ReadMemStats(&after)
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*tasks), "ns/task")
			b.ReportMetric(float64(after.TotalAlloc-before.TotalAlloc)/float64(b.N*tasks), "B/task")
		})
	}
}
