package platform

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"redundancy/internal/adapt"
	"redundancy/internal/agg"
	"redundancy/internal/obs"
	"redundancy/internal/plan"
	"redundancy/internal/ring"
)

// TestClusterPartition pins the sharding invariants everything else rests
// on: every global task lands on exactly one shard (disjoint and covering),
// the partition is a pure function of (plan, shards, vnodes, seed), and it
// matches what an independent ring rebuild — the worker's view — computes.
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
	for i, part := range c.parts {
		for _, sp := range part {
			if prev, dup := seen[sp.ID]; dup {
				t.Fatalf("task %d on shards %d and %d", sp.ID, prev, i)
			}
			seen[sp.ID] = i
		}
	}
	specs := p.Tasks()
	if len(seen) != len(specs) {
		t.Fatalf("partition covers %d of %d tasks", len(seen), len(specs))
	}
	// Global IDs, global copies: the subset must carry the plan's spec
	// verbatim, or TaskSeed/ringer truth would diverge across shards.
	for _, sp := range specs {
		shard := seen[sp.ID]
		found := false
		for _, got := range c.parts[shard] {
			if got == sp {
				found = true
				break
			}
		}
		if !found {
			t.Fatalf("task %d spec mutated in shard %d partition", sp.ID, shard)
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

// TestClusterConfigValidation pins the guard rails: the Tasks override is
// incompatible with per-shard adaptation and snapshots, and degenerate
// cluster configs fail loudly.
func TestClusterConfigValidation(t *testing.T) {
	p := mustClusterPlan(t, 50)
	if _, err := NewCluster(ClusterConfig{Plan: p, Shards: 0}); err == nil {
		t.Error("0 shards accepted")
	}
	if _, err := NewCluster(ClusterConfig{Shards: 2}); err == nil {
		t.Error("nil plan accepted")
	}
	// Each config is valid but for the Tasks override, so only the Tasks
	// check can refuse it.
	jf, err := OpenJournalFile(filepath.Join(t.TempDir(), "journal.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	defer jf.Close()
	if _, err := NewSupervisor(SupervisorConfig{
		Plan: p, Tasks: p.Tasks(), Adapt: &adapt.Config{TargetEpsilon: 0.5},
	}); err == nil || !strings.Contains(err.Error(), "Tasks override is incompatible with Adapt") {
		t.Errorf("Tasks+Adapt: err=%v, want the Tasks incompatibility (a shard must not re-plan the global tail)", err)
	}
	if _, err := NewSupervisor(SupervisorConfig{
		Plan: p, Tasks: p.Tasks(), SnapshotInterval: 10, Journal: jf,
	}); err == nil || !strings.Contains(err.Error(), "Tasks override is incompatible with SnapshotInterval") {
		t.Errorf("Tasks+SnapshotInterval: err=%v, want the Tasks incompatibility", err)
	}
	if _, err := NewSupervisor(SupervisorConfig{
		Plan: p, Tasks: []plan.TaskSpec{},
	}); err == nil {
		t.Error("empty Tasks accepted")
	}
}

// TestShardedSmoke runs a 2-shard cluster to completion with sharded
// workers and checks the global ledger: every task certified exactly once
// across the cluster, total credit equals the plan's assignment count,
// replies carried the epoch, and the shard-labeled counters partition the
// unlabeled totals.
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
		if stats[i].Epoch != 1 {
			t.Errorf("worker %d saw epoch %d, want 1 (no membership change)", i, stats[i].Epoch)
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

// TestShardChaosSoak is the acceptance soak for the sharded architecture:
// a 3-shard cluster with journaled shards and a cheating coalition loses
// shard 1 mid-run (crash: connections dropped, journal handle closed, a
// torn record appended), survivors keep serving, the shard is restored at
// the same address from a byte-identical journal replay, and the finished
// run's aggregated state — exactly-once credit, certified values, p̂ and
// the detection floor — matches an unsharded reference run of the same
// plan, seed, and adversary.
func TestShardChaosSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos soak in -short mode")
	}
	p := mustClusterPlan(t, 150)
	reg := obs.NewRegistry()
	dir := t.TempDir()
	c, err := NewCluster(ClusterConfig{
		Plan: p, Shards: 3, Seed: 11, WorkKind: "hashchain", Iters: 10,
		JournalDir: dir, JournalSync: true,
		Deadline: 2 * time.Second, Metrics: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	// Every worker shares one coalition: the per-task cheat coin depends
	// only on (seed, taskID), so every copy of a task yields the same
	// value no matter which worker, shard, or schedule executed it. That
	// makes per-task verdicts a pure function of (plan, coalition) — the
	// property that lets an unsharded reference run reproduce the sharded
	// run's audit state exactly. The seed is chosen so no ringer is
	// cheat-marked: a unanimous coalition on a ringer would convict every
	// worker and strand that shard's queue, while unanimously wrong
	// regular tasks certify cleanly (the paper's undetectable worst case)
	// and keep the accounting deterministic.
	cheatSeed := findRegularOnlyCheatSeed(t, p, 0.25)
	coal := NewCoalition(0.25, cheatSeed)

	const workers = 6
	var wg sync.WaitGroup
	stats := make([]WorkerStats, workers)
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			cfg := WorkerConfig{
				Name: fmt.Sprintf("soak-%d", i), BatchSize: 4, Seed: uint64(i + 1),
				Speed: &SpeedModel{Base: 2 * time.Millisecond}, Cheat: coal.CheatFunc(),
			}
			stats[i], _ = RunShardedWorker(cfg, c.ShardMap)
		}(i)
	}

	// Let shard 1 accept some results, then crash it.
	victim := ShardName(1)
	deadline := time.Now().Add(30 * time.Second)
	for {
		v, _ := reg.Snapshot().Value("redundancy_shard_results_accepted_total", victim)
		if v >= 10 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("shard 1 never accepted 10 results (at %v)", v)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if err := c.KillShard(1); err != nil {
		t.Fatal(err)
	}

	// Survivors must keep serving while shard 1 is down.
	before0, _ := reg.Snapshot().Value("redundancy_shard_results_accepted_total", ShardName(0))
	before2, _ := reg.Snapshot().Value("redundancy_shard_results_accepted_total", ShardName(2))
	deadline = time.Now().Add(30 * time.Second)
	for {
		a0, _ := reg.Snapshot().Value("redundancy_shard_results_accepted_total", ShardName(0))
		a2, _ := reg.Snapshot().Value("redundancy_shard_results_accepted_total", ShardName(2))
		done0 := c.Supervisor(0) != nil && supDone(c.Supervisor(0))
		done2 := c.Supervisor(2) != nil && supDone(c.Supervisor(2))
		if (a0 > before0 || done0) && (a2 > before2 || done2) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("survivors made no progress during the kill window")
		}
		time.Sleep(5 * time.Millisecond)
	}

	// Crash realism: the dying process tore a record mid-append. Replay
	// must consume every complete record and refuse exactly the tail.
	jpath := filepath.Join(dir, "shard-1.jnl")
	pre, err := os.ReadFile(jpath)
	if err != nil {
		t.Fatal(err)
	}
	torn := []byte(`{"task":0,"cop`)
	f, err := os.OpenFile(jpath, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(torn); err != nil {
		t.Fatal(err)
	}
	f.Close()

	if err := c.RestoreShard(1); err != nil {
		t.Fatal(err)
	}
	restoredAddr := c.Addr(1)

	// Byte-identical replay: the restored shard consumed precisely the
	// pre-crash journal (torn tail excluded and truncated away).
	sup1 := c.Supervisor(1)
	if got := sup1.RestoredJournalBytes(); got != int64(len(pre)) {
		t.Errorf("replay consumed %d journal bytes, want %d (torn tail of %d must be refused)",
			got, len(pre), len(torn))
	}
	if fi, err := os.Stat(jpath); err != nil || fi.Size() != int64(len(pre)) {
		t.Errorf("journal not truncated to replayed prefix: size %v, want %d", fi.Size(), len(pre))
	}
	if restored := sup1.Summary().Restored; restored < 10 {
		t.Errorf("restored shard replayed %d results, want >= 10", restored)
	}
	if e := c.ShardMap().Epoch; e != 3 {
		t.Errorf("epoch %d after kill+restore, want 3", e)
	}
	if reb, _ := reg.Snapshot().Value("redundancy_ring_rebalances_total"); reb != 2 {
		t.Errorf("ring_rebalances_total = %v, want 2", reb)
	}

	c.Wait()
	wg.Wait()

	// Routing stability: restore came back on the crashed shard's address.
	m := c.ShardMap()
	if m.Shards[1].Addr != restoredAddr || m.Shards[1].Down {
		t.Errorf("shard 1 not serving at its stable address: %+v", m.Shards[1])
	}
	var maxEpoch uint64
	for _, st := range stats {
		if st.Epoch > maxEpoch {
			maxEpoch = st.Epoch
		}
	}
	if maxEpoch != 3 {
		t.Errorf("workers saw max epoch %d, want 3 (rebalance not propagated)", maxEpoch)
	}

	// Global exactly-once accounting: every task adjudicated, every
	// assignment copy credited exactly once — across a crash.
	merged := c.Aggregate()
	if merged.Tasks != len(p.Tasks()) {
		t.Errorf("aggregated %d tasks, want %d", merged.Tasks, len(p.Tasks()))
	}
	if merged.Assignments != p.TotalAssignments() {
		t.Errorf("aggregated %d copies, want %d (lost or duplicated adjudication)",
			merged.Assignments, p.TotalAssignments())
	}
	credit := 0
	for _, cr := range merged.Credits {
		credit += cr
	}
	if credit != p.TotalAssignments() {
		t.Errorf("merged credit %d, want %d (lost or double-granted work across the crash)",
			credit, p.TotalAssignments())
	}
	for i := 0; i < 3; i++ {
		if conv := c.Supervisor(i).Summary().Convicted; len(conv) != 0 {
			t.Errorf("shard %d convicted %v; the regular-only cheat seed must convict nobody", i, conv)
		}
	}

	// Unsharded reference: same plan, same coalition coin, one
	// supervisor. Verdicts depend only on (plan, coalition), so the
	// sharded run must reproduce its certified values, estimate, and
	// detection floor bit-for-bit.
	refCoal := NewCoalition(0.25, cheatSeed)
	ref, err := NewSupervisor(SupervisorConfig{
		Plan: p, WorkKind: "hashchain", Iters: 10, Seed: 11,
	})
	if err != nil {
		t.Fatal(err)
	}
	refAddr, err := ref.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var rwg sync.WaitGroup
	for i := 0; i < workers; i++ {
		rwg.Add(1)
		go func(i int) {
			defer rwg.Done()
			cfg := WorkerConfig{
				Addr: refAddr, Name: fmt.Sprintf("soak-%d", i),
				BatchSize: 4, Seed: uint64(i + 1),
			}
			cfg.Cheat = refCoal.CheatFunc()
			RunWorker(cfg)
		}(i)
	}
	ref.Wait()
	rwg.Wait()
	defer ref.Close()

	refMerged := agg.Merge([]agg.ShardExport{ref.Export()}, 0)
	if merged.Estimate != refMerged.Estimate {
		t.Errorf("aggregated estimate %+v != unsharded reference %+v",
			merged.Estimate, refMerged.Estimate)
	}
	if merged.Mismatches != refMerged.Mismatches || merged.RingersCaught != refMerged.RingersCaught ||
		merged.Accepted != refMerged.Accepted || merged.Bad != refMerged.Bad {
		t.Errorf("aggregated verdict counts %+v != reference %+v", merged, refMerged)
	}
	refCredit := 0
	for _, cr := range refMerged.Credits {
		refCredit += cr
	}
	if credit != refCredit {
		t.Errorf("merged credit %d != reference credit %d", credit, refCredit)
	}
	// The coalition really cheated, and redundancy really could not see
	// it: both runs certify the same wrong values for the same tasks.
	wrong := 0
	for i := 0; i < 3; i++ {
		wrong += c.Supervisor(i).Summary().WrongResults
	}
	refWrong := ref.Summary().WrongResults
	if wrong == 0 || wrong != refWrong {
		t.Errorf("sharded run certified %d wrong values, reference %d (want equal and > 0)", wrong, refWrong)
	}
	shardedP, shardedNeed := merged.ReplanNeeded(p, 0.5)
	refP, refNeed := refMerged.ReplanNeeded(p, 0.5)
	if shardedP != refP || shardedNeed != refNeed {
		t.Errorf("detection floor (%v,%v) != reference (%v,%v)", shardedP, shardedNeed, refP, refNeed)
	}
	for _, sp := range p.Tasks() {
		shard, _ := ringOwnerIndex(c, sp.ID)
		v1, ok1 := c.Supervisor(shard).CertifiedValue(sp.ID)
		v2, ok2 := ref.CertifiedValue(sp.ID)
		if ok1 != ok2 || v1 != v2 {
			t.Errorf("task %d: sharded certified %v/%v, reference %v/%v", sp.ID, v1, ok1, v2, ok2)
		}
	}
	if merged.ImbalancePct > 60 {
		t.Errorf("per-shard assignment imbalance %.1f%% (3 shards, small plan); ring badly skewed",
			merged.ImbalancePct)
	}
	t.Logf("%s", merged.String())
	aggObs, _ := reg.Snapshot().Value("redundancy_aggregator_merge_seconds")
	if aggObs == 0 {
		t.Error("aggregator_merge_seconds recorded no observations")
	}
}

// TestClusterRoutingStateConcurrent reads the routing state from several
// goroutines, as sharded workers do through ShardMap, while shard 1 is
// killed and restored over and over. Under the race detector it fails on
// any unguarded access; on its own it checks that every map is one
// consistent cut: shard 1 is down exactly at the even epochs, and the epoch
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
				if m.Epoch < last || m.Shards[0].Down || m.Shards[1].Down != (m.Epoch%2 == 0) {
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
	if e := c.ShardMap().Epoch; e != 1+2*cycles {
		t.Errorf("epoch %d after %d kill/restore cycles, want %d", e, cycles, 1+2*cycles)
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
