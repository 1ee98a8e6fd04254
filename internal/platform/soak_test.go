//go:build goexperiment.synctest

package platform

// The fault soaks. Each runs a whole plan to certification in a synctest
// bubble on vnet (vtime_test.go), under a relaunching worker fleet, with the
// faults beneath the send buffers and the dial drops drawn in vnet.dial
// (vnet.faulty), so every stall, backoff, deadline and kill costs no wall
// time. In virtual time one fault seed replays a handful of schedules, so an
// injector soak runs one subtest per seed: the seeds, not repetition, are
// what vary the schedule. The end-of-run invariants are exact (checkSoak).
// The kill soaks fire faults in every row; the group-commit and lease soaks,
// smaller runs at lower fault rates, leave a row clean now and then, so
// they assert that their rows together fired some.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"redundancy/internal/agg"
	"redundancy/internal/faults"
	"redundancy/internal/obs"
	"redundancy/internal/plan"
)

// seedRows runs body as one subtest per fault seed, each in its own bubble,
// and returns how many faults fired over all of them.
func seedRows(t *testing.T, seeds []uint64, body func(t *testing.T, n *vnet, seed uint64)) uint64 {
	var fired atomic.Uint64 // Run's return orders no memory in go1.24
	for _, seed := range seeds {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			bubble(t, func(n *vnet) {
				body(t, n, seed)
				fired.Add(n.injected())
			})
		})
	}
	return fired.Load()
}

// soakSeeds are the fault seeds an injector soak runs.
var soakSeeds = []uint64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20, 21, 22, 23, 24}

// faultyNet has n inject faults drawn from cfg.
func faultyNet(t *testing.T, n *vnet, cfg faults.Config) {
	t.Helper()
	inj, err := faults.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	n.faulty(inj)
}

// fleet is a relaunching RunWorker fleet: each member re-enters RunWorker,
// under a fresh identity, whenever a run ends, until halt.
type fleet struct {
	stop atomic.Bool
	wg   sync.WaitGroup
}

// fleet starts one member per config, dialing through n, and pausing for
// pause between runs. The bubble halts it after it closes the supervisors,
// so a soak that fails part-way still ends.
func (n *vnet) fleet(pause time.Duration, cfgs ...WorkerConfig) *fleet {
	f := &fleet{}
	n.mu.Lock()
	n.fleets = append(n.fleets, f)
	n.mu.Unlock()
	for _, cfg := range cfgs {
		cfg.Dial = n.dial
		f.wg.Add(1)
		go func() {
			defer f.wg.Done()
			for !f.stop.Load() {
				RunWorker(cfg)
				time.Sleep(pause)
			}
		}()
	}
	return f
}

func (f *fleet) halt() {
	f.stop.Store(true)
	f.wg.Wait()
}

// await waits for sup to certify every task, then halts the fleet. Only a
// hung run reaches limit, which is virtual time.
func (f *fleet) await(t *testing.T, sup *Supervisor, limit time.Duration) {
	t.Helper()
	select {
	case <-sup.done:
	case <-time.After(limit):
		t.Fatalf("run never reached certification in %v (journal: %d restored, %v live)", limit,
			sup.replayed.restored, metricValue(sup.registry, "redundancy_journal_records_total"))
	}
	f.halt()
}

// injected counts the faults fired on n: its injector's and the dial drops
// vnet.dial drew.
func (n *vnet) injected() uint64 {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.inj.Injected() + n.dropped
}

// checkSoak asserts what every fault soak ends on: every task certified, no
// mismatch from an honest fleet, total credit equal to the plan's
// assignments (a lost result leaves it short, a double grant pushes it
// over), and restored plus live journal records equal to that total when
// the run is journaled (nothing recomputed that the journal held).
func checkSoak(t *testing.T, p *plan.Plan, sup *Supervisor) Summary {
	t.Helper()
	sum := sup.Summary()
	tasks := p.N + p.Ringers
	if sum.Verify.Tasks != tasks || sum.Verify.Accepted != tasks {
		t.Errorf("certified %d/%d tasks, want all %d", sum.Verify.Accepted, sum.Verify.Tasks, tasks)
	}
	if sum.Verify.MismatchDetected != 0 || sum.WrongResults != 0 {
		t.Errorf("honest workers under faults produced mismatches: %+v wrong=%d", sum.Verify, sum.WrongResults)
	}
	total := 0
	for _, e := range sum.Credits {
		total += e.Credit
	}
	if total != p.TotalAssignments() {
		t.Errorf("total credit %d, want %d (lost or double-granted work)", total, p.TotalAssignments())
	}
	if sup.cfg.Journal != nil {
		if live := metricValue(sup.registry, "redundancy_journal_records_total"); sum.Restored+int(live) != p.TotalAssignments() {
			t.Errorf("journal holds %d restored + %v live records, want %d total (re-ran completed work?)",
				sum.Restored, live, p.TotalAssignments())
		}
	}
	return sum
}

// killSoak is the body TestChaosSoak and TestStallChaosSoak share: a full
// plan runs to certification under faults with four workers, three leasing
// in batches of 16 and one speaking the single-item verbs, so both verb
// pairs share the one lease path under fire. Once 30 results are journaled
// the supervisor is killed abruptly (no drain: connections die
// mid-exchange), a torn record is appended as a crash mid-append leaves
// one, and a supervisor restored from the journal takes over at the same
// address.
type killSoak struct {
	name   string           // worker name prefix
	sup    SupervisorConfig // plan, journal and metrics are the soak's
	faults faults.Config    // its Seed is the row's
	speed  *SpeedModel
}

func (k killSoak) run(t *testing.T, n *vnet) (*plan.Plan, *Supervisor) {
	t.Helper()
	p, err := plan.Balanced(120, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	faultyNet(t, n, k.faults)

	jpath := filepath.Join(t.TempDir(), "journal.jsonl")
	jf1, err := os.OpenFile(jpath, os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	reg1 := obs.NewRegistry()
	cfg := k.sup
	cfg.Plan, cfg.WorkKind, cfg.Iters = p, "hashchain", 10
	cfg.Journal, cfg.JournalSync, cfg.Metrics = jf1, true, reg1
	cfg.IOTimeout, cfg.Deadline = 2*time.Second, 2*time.Second
	sup1, addr := n.start(t, cfg)

	workers := make([]WorkerConfig, 4)
	for i := range workers {
		workers[i] = WorkerConfig{
			Addr: addr, Name: fmt.Sprintf("%s-%d", k.name, i),
			Reconnect: true, MaxReconnects: 25, BatchSize: 16,
			BackoffBase: 2 * time.Millisecond, BackoffMax: 50 * time.Millisecond,
			Seed: uint64(i + 1), Speed: k.speed,
		}
	}
	workers[3].BatchSize = 1
	f := n.fleet(5*time.Millisecond, workers...)

	// Phase 1: let real progress accumulate, then kill the supervisor.
	deadline := time.Now().Add(90 * time.Second)
	for metricValue(reg1, "redundancy_journal_records_total") < 30 {
		if time.Now().After(deadline) {
			t.Fatal("phase 1: fewer than 30 results journaled in time")
		}
		time.Sleep(2 * time.Millisecond)
	}
	sup1.Close()
	jf1.Close()

	// A crash mid-append leaves a torn final record; replay must shrug it
	// off and the restart must truncate it away before appending.
	const torn = `{"task":0,"cop`
	tear, err := os.OpenFile(jpath, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	tear.WriteString(torn)
	tear.Close()

	// Phase 2: restore at the same address from the journal.
	data, err := os.ReadFile(jpath)
	if err != nil {
		t.Fatal(err)
	}
	jf2, err := os.OpenFile(jpath, os.O_RDWR|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	defer jf2.Close()
	cfg.Restore, cfg.Journal, cfg.Metrics, cfg.WrapListener = bytes.NewReader(data), jf2, obs.NewRegistry(), n.listen
	sup2, err := NewSupervisor(cfg)
	if err != nil {
		t.Fatalf("restore from the %s journal: %v", k.name, err)
	}
	n.own(sup2)
	valid := sup2.RestoredJournalBytes()
	if valid <= 0 || valid > int64(len(data))-int64(len(torn)) {
		t.Fatalf("valid journal prefix %d of %d bytes does not exclude the torn tail", valid, len(data))
	}
	if fi, err := os.Stat(jpath); err != nil || fi.Size() != valid {
		t.Fatalf("restore left the journal at %v bytes (err %v), want its %d-byte replayed prefix", fi.Size(), err, valid)
	}
	if _, err := sup2.Start(addr); err != nil {
		t.Fatalf("restarting at %s: %v", addr, err)
	}

	f.await(t, sup2, 180*time.Second)
	sup2.Close()
	if sum := checkSoak(t, p, sup2); sum.Restored < 30 {
		t.Errorf("restored %d results, want the >=30 journaled before the kill", sum.Restored)
	}
	if n.injected() == 0 {
		t.Error("fault injector never fired; the soak proved nothing")
	}
	return p, sup2
}

// TestChaosSoak is the platform's crash-tolerance acceptance test: a full
// plan runs to certification with every fault mode enabled on both sides
// of the wire — dropped dials, mid-read and mid-write connection kills,
// torn frames, corrupted bytes, latency — and with the supervisor killed
// abruptly partway through and restored from its fsync'd journal (plus a
// hand-torn tail, as a real crash would leave). The invariants at the end
// are absolute, not statistical: every task certified, no certified work
// lost, no credit granted twice, nothing recomputed that the journal
// already held.
func TestChaosSoak(t *testing.T) {
	seedRows(t, soakSeeds, func(t *testing.T, n *vnet, seed uint64) {
		_, sup := killSoak{
			name: "chaos",
			sup:  SupervisorConfig{Seed: 9},
			faults: faults.Config{
				Seed:     seed,
				DialDrop: 0.05, ReadDrop: 0.02, WriteDrop: 0.02,
				Corrupt: 0.01, ShortWrite: 0.01,
				Latency: 200 * time.Microsecond, Jitter: 300 * time.Microsecond,
			},
		}.run(t, n)
		sum := sup.Summary()
		t.Logf("soak: %d faults injected (%d dial drops), %d restored, %d participants, %d credit entries",
			n.injected(), n.dropped, sum.Restored, sum.Participants, len(sum.Credits))
	})
}

// TestStallChaosSoak is the straggler-era acceptance soak: the full chaos
// battery plus the stall mode (connections freeze silently and thaw),
// heterogeneous worker speed models with a straggler mixture, speculative
// reissue enabled, and an abrupt mid-run kill + journal restore. The
// ending invariants are exact: every task certified, total credit equals
// total assignments (no speculative duplicate ever double-credited, no
// work lost across the restart), and the journal holds every accepted
// result exactly once.
func TestStallChaosSoak(t *testing.T) {
	seedRows(t, soakSeeds, func(t *testing.T, n *vnet, seed uint64) {
		start := time.Now()
		_, sup := killSoak{
			name: "stall",
			sup:  SupervisorConfig{Seed: 13, SpeculatePct: 0.85},
			faults: faults.Config{
				Seed:     seed,
				DialDrop: 0.04, ReadDrop: 0.02, WriteDrop: 0.02,
				Corrupt: 0.01, ShortWrite: 0.01,
				Stall: 0.03, StallFor: 120 * time.Millisecond,
				Latency: 200 * time.Microsecond, Jitter: 300 * time.Microsecond,
			},
			speed: &SpeedModel{
				Jitter:     2 * time.Millisecond,
				StragglerP: 0.08, StragglerDelay: 250 * time.Millisecond,
			},
		}.run(t, n)
		reg := sup.registry
		t.Logf("stall soak: %d faults (%d dial drops), %d restored, speculation issued=%v wins=%v wasted=%v, %v virtual",
			n.injected(), n.dropped, sup.Summary().Restored,
			metricValue(reg, "redundancy_speculative_issued_total"),
			metricValue(reg, "redundancy_speculative_wins_total"),
			metricValue(reg, "redundancy_speculative_wasted_total"), time.Since(start))
	})
}

// TestGroupCommitManyWorkerSoak is the scale companion to TestChaosSoak:
// 32 concurrent batched workers hammer one supervisor in JournalSync mode
// through a fault injector, and the run must end with
// exact accounting — every assignment credited exactly once — while the
// journal the committer wrote coalesced (group commits observed, windows
// averaging more than one record) and replays byte-for-byte: the full
// file is a valid prefix, restores every accepted result, and rebuilds
// the identical certified value for every task.
func TestGroupCommitManyWorkerSoak(t *testing.T) {
	fired := seedRows(t, soakSeeds, func(t *testing.T, n *vnet, seed uint64) {
		p, err := plan.Balanced(96, 0.5)
		if err != nil {
			t.Fatal(err)
		}
		faultyNet(t, n, faults.Config{
			Seed:     seed,
			DialDrop: 0.02, ReadDrop: 0.01, WriteDrop: 0.01,
			Latency: 100 * time.Microsecond, Jitter: 200 * time.Microsecond,
		})
		jpath := filepath.Join(t.TempDir(), "journal.jsonl")
		jf, err := os.OpenFile(jpath, os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
		if err != nil {
			t.Fatal(err)
		}
		defer jf.Close()
		reg := obs.NewRegistry()
		sup, addr := n.start(t, SupervisorConfig{
			Plan: p, WorkKind: "hashchain", Iters: 10, Seed: 5,
			Journal: jf, JournalSync: true,
			IOTimeout: 2 * time.Second, Deadline: 2 * time.Second,
			Metrics: reg,
		})
		workers := make([]WorkerConfig, 32)
		for i := range workers {
			workers[i] = WorkerConfig{
				Addr: addr, Name: fmt.Sprintf("soak-%d", i),
				Reconnect: true, MaxReconnects: 25, BatchSize: 8,
				BackoffBase: 2 * time.Millisecond, BackoffMax: 50 * time.Millisecond,
				Seed: uint64(i + 1),
			}
		}
		n.fleet(2*time.Millisecond, workers...).await(t, sup, 120*time.Second)
		sup.Close()
		checkSoak(t, p, sup)

		snap := reg.Snapshot()
		commits, _ := snap.Value("redundancy_journal_group_commits_total")
		if commits == 0 {
			t.Error("journal_group_commits_total = 0: no commit window was recorded")
		}
		if obsN, ok := snap.Value("redundancy_journal_commit_batch_size"); !ok || obsN != commits {
			t.Errorf("commit batch-size observations %v, want one per group commit (%v)", obsN, commits)
		}
		if syncs, _ := snap.Value("redundancy_journal_syncs_total"); syncs > commits+1 {
			t.Errorf("%v fsyncs for %v group commits: windows are not coalescing syncs", syncs, commits)
		}

		// Byte-identical replay: the whole file — written concurrently by the
		// committer under load — must be one valid record stream that rebuilds
		// the run. No torn tail, no lost record, identical certified values.
		data, err := os.ReadFile(jpath)
		if err != nil {
			t.Fatal(err)
		}
		sup2, err := NewSupervisor(SupervisorConfig{
			Plan: p, WorkKind: "hashchain", Iters: 10, Seed: 5,
			Restore: bytes.NewReader(data),
		})
		if err != nil {
			t.Fatalf("replaying the group-committed journal: %v", err)
		}
		if sup2.RestoredJournalBytes() != int64(len(data)) {
			t.Errorf("replay consumed %d of %d journal bytes: group commit tore a record",
				sup2.RestoredJournalBytes(), len(data))
		}
		if got := sup2.Summary().Restored; got != p.TotalAssignments() {
			t.Errorf("replay restored %d results, want %d", got, p.TotalAssignments())
		}
		for task := 0; task < p.N+p.Ringers; task++ {
			v1, ok1 := sup.CertifiedValue(task)
			v2, ok2 := sup2.CertifiedValue(task)
			if ok1 != ok2 || v1 != v2 {
				t.Errorf("task %d: certified %v/%v live, %v/%v from replay", task, v1, ok1, v2, ok2)
			}
		}
		t.Logf("soak: %d workers, %d faults injected (%d dial drops), %v group commits for %d records (%.1f records/window)",
			len(workers), n.injected(), n.dropped, commits, p.TotalAssignments(), float64(p.TotalAssignments())/commits)
	})
	if fired == 0 {
		t.Error("no row fired a fault; the soak proved nothing")
	}
}

// TestLeaseInvariantsUnderChaos is the protocol property test for batched
// leasing: across random batch sizes, connection kills, disconnects, and
// resumes, (1) no (task, copy) is ever live in two leases at once — every
// non-reissue issuance must find the copy not outstanding, every reissue
// must find it outstanding with the same holder — and (2) total credited
// assignments equals the plan's assignment count exactly. The supervisor
// emits its lease-lifecycle events while holding the lease lock, so replaying the stream
// through a live-lease state machine checks the invariant at every step
// of the actual interleaving, not just at the end of the run.
func TestLeaseInvariantsUnderChaos(t *testing.T) {
	scenarios := map[uint64]struct {
		n       int
		batches []int // per-worker lease size (1 = single-item verbs)
	}{
		3:  {n: 30, batches: []int{1, 4, 16}},
		11: {n: 45, batches: []int{2, 2, 7, 32}},
		27: {n: 25, batches: []int{64, 1}},
	}
	fired := seedRows(t, []uint64{3, 11, 27}, func(t *testing.T, n *vnet, seed uint64) {
		leaseInvariants(t, n, seed, scenarios[seed].n, scenarios[seed].batches)
	})
	if fired == 0 {
		t.Error("no row fired a fault; the soak proved nothing")
	}
}

func leaseInvariants(t *testing.T, n *vnet, seed uint64, tasks int, batches []int) {
	p, err := plan.Balanced(tasks, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	faultyNet(t, n, faults.Config{
		Seed:     seed,
		DialDrop: 0.05, ReadDrop: 0.03, WriteDrop: 0.03,
	})
	var eventLog syncBuffer
	sup, addr := n.start(t, SupervisorConfig{
		Plan: p, WorkKind: "hashchain", Iters: 5, Seed: seed,
		IOTimeout: 2 * time.Second, Deadline: time.Second,
		MaxBatch: 32, // below one worker's ask, above most: exercises the cap
		Events:   obs.NewSink(&eventLog),
	})
	workers := make([]WorkerConfig, len(batches))
	for i, batch := range batches {
		workers[i] = WorkerConfig{
			Addr: addr, Name: fmt.Sprintf("lease-%d", i),
			BatchSize: batch, Reconnect: true, MaxReconnects: 25,
			BackoffBase: time.Millisecond, BackoffMax: 20 * time.Millisecond,
			Seed: seed*100 + uint64(i+1),
		}
	}
	n.fleet(2*time.Millisecond, workers...).await(t, sup, 90*time.Second)
	sup.Close()
	checkSoak(t, p, sup)

	// Replay the event stream through the live-lease state machine.
	type leaseEvent struct {
		Event       string `json:"event"`
		Task        int    `json:"task"`
		Copy        int    `json:"copy"`
		Participant int    `json:"participant"`
		Reissue     bool   `json:"reissue"`
	}
	live := make(map[outstandingKey]int)
	issued, accepted := 0, 0
	for lineNo, line := range strings.Split(eventLog.String(), "\n") {
		if line == "" {
			continue
		}
		var ev leaseEvent
		if err := json.Unmarshal([]byte(line), &ev); err != nil {
			t.Fatalf("event line %d: %v (%q)", lineNo, err, line)
		}
		key := outstandingKey{ev.Task, ev.Copy}
		switch ev.Event {
		case EvAssignmentIssued:
			holder, isLive := live[key]
			if ev.Reissue {
				if !isLive || holder != ev.Participant {
					t.Fatalf("line %d: task %d copy %d re-issued to %d but lease is held by %d (live=%v)",
						lineNo, ev.Task, ev.Copy, ev.Participant, holder, isLive)
				}
				continue
			}
			if isLive {
				t.Fatalf("line %d: task %d copy %d issued to %d while live in participant %d's lease",
					lineNo, ev.Task, ev.Copy, ev.Participant, holder)
			}
			live[key] = ev.Participant
			issued++
		case EvResultAccepted:
			if holder, isLive := live[key]; !isLive || holder != ev.Participant {
				t.Fatalf("line %d: accepted task %d copy %d from %d but lease is held by %d (live=%v)",
					lineNo, ev.Task, ev.Copy, ev.Participant, holder, isLive)
			}
			delete(live, key)
			accepted++
		case EvAssignmentReclaimed:
			if _, isLive := live[key]; !isLive {
				t.Fatalf("line %d: reclaimed task %d copy %d which was not live", lineNo, ev.Task, ev.Copy)
			}
			delete(live, key)
		}
	}
	if len(live) != 0 {
		t.Errorf("run ended with %d leases still live: %v", len(live), live)
	}
	if accepted != p.TotalAssignments() {
		t.Errorf("event stream accepted %d results, want %d", accepted, p.TotalAssignments())
	}
	if issued < accepted {
		t.Errorf("event stream issued %d < accepted %d", issued, accepted)
	}
	t.Logf("lease soak: %d faults (%d dial drops), %d issued, %d accepted", n.injected(), n.dropped, issued, accepted)
}

// TestShardChaosSoak is the acceptance soak for the sharded architecture:
// a 3-shard cluster with journaled shards and a cheating coalition loses
// shard 1 mid-run (crash: connections dropped, journal handle closed, a
// torn record appended), survivors keep serving, the shard is restored at
// the same address from a byte-identical journal replay, and the finished
// run's aggregated state — exactly-once credit, certified values, p̂ and
// the detection floor — matches an unsharded reference run of the same
// plan, seed, and adversary. It has no injector: the kill is its fault.
func TestShardChaosSoak(t *testing.T) {
	bubble(t, func(n *vnet) { shardChaosSoak(t, n) })
}

func shardChaosSoak(t *testing.T, n *vnet) {
	p := mustClusterPlan(t, 150)
	reg := obs.NewRegistry()
	dir := t.TempDir()
	c, err := NewCluster(ClusterConfig{
		Plan: p, Shards: 3, Seed: 11, WorkKind: "hashchain", Iters: 10,
		JournalDir: dir, JournalSync: true,
		Deadline: 2 * time.Second, Metrics: reg, WrapListener: n.listen,
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
				Dial: n.dial,
			}
			stats[i], _ = RunShardedWorker(cfg, c.ShardMap)
		}(i)
	}
	// A closed cluster releases its sharded workers, so a soak that fails
	// part-way closes it and waits for them.
	defer func() {
		c.Close()
		wg.Wait()
	}()

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
	if e := c.ShardMap().Epoch; e != 2 {
		t.Errorf("epoch %d after kill+restore, want 2", e)
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
	if maxEpoch != 2 {
		t.Errorf("workers saw max epoch %d, want 2 (rebalance not propagated)", maxEpoch)
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
	ref, refAddr := n.start(t, SupervisorConfig{
		Plan: p, WorkKind: "hashchain", Iters: 10, Seed: 11,
	})
	var rwg sync.WaitGroup
	for i := 0; i < workers; i++ {
		rwg.Add(1)
		go func(i int) {
			defer rwg.Done()
			cfg := WorkerConfig{
				Addr: refAddr, Name: fmt.Sprintf("soak-%d", i),
				BatchSize: 4, Seed: uint64(i + 1), Dial: n.dial,
			}
			cfg.Cheat = refCoal.CheatFunc()
			RunWorker(cfg)
		}(i)
	}
	ref.Wait()
	rwg.Wait()

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
