package platform

import (
	"bytes"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"sync"
	"testing"

	"redundancy/internal/dist"
	"redundancy/internal/obs"
	"redundancy/internal/plan"
	"redundancy/internal/rng"
	"redundancy/internal/sched"
	"redundancy/internal/verify"
)

// TestBatchedEndToEnd runs a full plan through the batched protocol: every
// task certifies, accounting is exact, and the batch metrics show the
// batched path actually carried the traffic.
func TestBatchedEndToEnd(t *testing.T) {
	p, err := plan.Balanced(60, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	sup, err := NewSupervisor(SupervisorConfig{
		Plan: p, WorkKind: "hashchain", Iters: 10, Seed: 2, Metrics: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	addr, err := sup.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sup.Close() })

	var wg sync.WaitGroup
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if _, err := RunWorker(WorkerConfig{
				Addr: addr, Name: "batched", BatchSize: 8, Seed: uint64(i + 1),
			}); err != nil {
				t.Errorf("batched worker: %v", err)
			}
		}(i)
	}
	sup.Wait()
	wg.Wait()

	sum := sup.Summary()
	tasks := p.N + p.Ringers
	if sum.Verify.Accepted != tasks {
		t.Errorf("certified %d tasks, want %d", sum.Verify.Accepted, tasks)
	}
	if sum.Verify.MismatchDetected != 0 || sum.WrongResults != 0 {
		t.Errorf("honest batched run produced mismatches: %+v wrong=%d", sum.Verify, sum.WrongResults)
	}
	snap := reg.Snapshot()
	if v, _ := snap.Value("redundancy_results_accepted_total"); int(v) != p.TotalAssignments() {
		t.Errorf("accepted %v results, want %d", v, p.TotalAssignments())
	}
	batches, _ := snap.Value("redundancy_batches_issued_total")
	if batches == 0 {
		t.Error("batches_issued = 0: traffic did not take the batched path")
	}
	if sizes, ok := snap.Value("redundancy_batch_size"); !ok || sizes != batches {
		t.Errorf("batch_size observations %v, want one per issued batch (%v)", sizes, batches)
	}
	if v, _ := snap.Value("redundancy_assignments_issued_total"); int(v) != p.TotalAssignments() {
		t.Errorf("issued %v assignments, want %d (no duplicate pops)", v, p.TotalAssignments())
	}
}

// TestBatchSizeSelectsVerbPair checks the wire-compatibility contract of
// the worker's verb adapter: BatchSize 0 and 1 speak only the single-item
// verbs, larger sizes only the batch verbs, and either way the supervisor
// serves the traffic as leases — one issued batch per work request.
func TestBatchSizeSelectsVerbPair(t *testing.T) {
	for _, tc := range []struct {
		batch      int
		want, none []string
	}{
		{0, []string{MsgRequestWork, MsgResult}, []string{MsgGetWork, MsgResultBatch}},
		{1, []string{MsgRequestWork, MsgResult}, []string{MsgGetWork, MsgResultBatch}},
		{4, []string{MsgGetWork, MsgResultBatch}, []string{MsgRequestWork, `"` + MsgResult + `"`}},
	} {
		p, err := plan.FromDistribution(dist.Simple(8), 0.5)
		if err != nil {
			t.Fatal(err)
		}
		reg := obs.NewRegistry()
		sup, err := NewSupervisor(SupervisorConfig{
			Plan: p, WorkKind: "hashchain", Iters: 10, Metrics: reg,
		})
		if err != nil {
			t.Fatal(err)
		}
		addr, err := sup.Start("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		var sent bytes.Buffer // JSON proto: every frame the worker wrote
		st, err := RunWorker(WorkerConfig{Addr: addr, Name: "verbs", BatchSize: tc.batch,
			Dial: func(a string) (net.Conn, error) {
				conn, err := net.Dial("tcp", a)
				return &teeConn{Conn: conn, w: &sent}, err
			}})
		if err != nil {
			t.Fatalf("BatchSize=%d: %v", tc.batch, err)
		}
		if st.Completed != p.TotalAssignments() {
			t.Errorf("BatchSize=%d: completed %d, want %d", tc.batch, st.Completed, p.TotalAssignments())
		}
		for _, verb := range tc.want {
			if !strings.Contains(sent.String(), verb) {
				t.Errorf("BatchSize=%d: worker never sent %s", tc.batch, verb)
			}
		}
		for _, verb := range tc.none {
			if strings.Contains(sent.String(), verb) {
				t.Errorf("BatchSize=%d: worker sent %s", tc.batch, verb)
			}
		}
		snap := reg.Snapshot()
		batches, _ := snap.Value("redundancy_batches_issued_total")
		if tc.batch <= 1 && int(batches) != p.TotalAssignments() {
			t.Errorf("BatchSize=%d: %v leases issued, want one per assignment (%d)", tc.batch, batches, p.TotalAssignments())
		}
		// One lease-wait observation per work request: each lease, plus
		// the final request that was answered done.
		if waits, _ := snap.Value("redundancy_lease_wait_seconds"); waits != batches+1 {
			t.Errorf("BatchSize=%d: %v lease_wait observations for %v leases + 1 done", tc.batch, waits, batches)
		}
		sup.Close()
	}
}

// TestVerbEdgesEquivalent fails if the single-verb edge drifts from the
// lease core, or a lone supervisor from a 1-shard cluster: the same seeded
// plan, worked by the same three participants (one cheating on a seeded
// third of its tasks) in the same fixed order, once over
// request_work/result, once over get_work(1)/result_batch, and once over
// get_work(1)/result_batch against shard 0 of a cluster built from the same
// SupervisorConfig, must leave byte-identical journals, equal summaries and
// equal certified values. The two get_work arms must also send the driver
// byte-identical replies, resume tokens aside (they are random): a cluster
// that never changed membership stamps no epoch, just as a lone supervisor.
func TestVerbEdgesEquivalent(t *testing.T) {
	type outcome struct {
		journal string
		replies string // every byte the driver read, per connection, tokens masked
		sum     Summary
		values  []uint64
	}
	token := regexp.MustCompile(`"token":[0-9]+`)
	run := func(t *testing.T, v verbs, shards int) outcome {
		p, err := plan.Balanced(60, 0.5)
		if err != nil {
			t.Fatal(err)
		}
		cfg := SupervisorConfig{
			Plan: p, WorkKind: "hashchain", Iters: 10, Seed: 9, ResolveMismatches: true,
		}
		var sup *Supervisor
		var addr string
		var journal func() string
		if shards == 0 {
			var buf bytes.Buffer
			cfg.Journal, journal = &buf, buf.String
			if sup, err = NewSupervisor(cfg); err != nil {
				t.Fatal(err)
			}
			if addr, err = sup.Start("127.0.0.1:0"); err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { sup.Close() })
		} else {
			cfg.Shards, cfg.JournalDir = shards, t.TempDir()
			c, err := NewCluster(cfg)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { c.Close() })
			sup, addr = c.Supervisor(0), c.Addr(0)
			journal = func() string {
				data, err := os.ReadFile(filepath.Join(cfg.JournalDir, "shard-0.jnl"))
				if err != nil {
					t.Fatal(err)
				}
				return string(data)
			}
		}
		var read []*bytes.Buffer
		dial := func(a string) (net.Conn, error) {
			conn, err := net.Dial("tcp", a)
			read = append(read, new(bytes.Buffer))
			return &teeConn{Conn: conn, r: read[len(read)-1]}, err
		}
		driveRoundRobin(t, v, dial, addr, 1, nil, NewCoalition(0.3, 5).CheatFunc(), nil)
		sup.Wait()
		out := outcome{journal: journal(), sum: sup.Summary()}
		for _, r := range read {
			out.replies += token.ReplaceAllString(r.String(), `"token":0`) + "\n--\n"
		}
		for task := 0; task < p.N+p.Ringers; task++ {
			val, ok := sup.CertifiedValue(task)
			if !ok {
				t.Errorf("%s: task %d has no certified value", v, task)
			}
			out.values = append(out.values, val)
		}
		if got := strings.Count(out.journal, "\n"); got != p.TotalAssignments() {
			t.Errorf("%s: journal holds %d records, want %d", v, got, p.TotalAssignments())
		}
		if out.sum.Verify.MismatchDetected == 0 {
			t.Errorf("%s: the cheater was never caught; the run exercises no dispute", v)
		}
		return out
	}
	var single, batch, shard outcome
	t.Run(string(singleVerbs), func(t *testing.T) { single = run(t, singleVerbs, 0) })
	t.Run(string(batchVerbs), func(t *testing.T) { batch = run(t, batchVerbs, 0) })
	t.Run("1-shard-cluster", func(t *testing.T) { shard = run(t, batchVerbs, 1) })
	for _, o := range []struct {
		name string
		got  outcome
	}{{"the verb pairs", batch}, {"a supervisor and a 1-shard cluster", shard}} {
		if single.journal != o.got.journal {
			t.Errorf("journals differ between %s:\n%s\n---\n%s", o.name, single.journal, o.got.journal)
		}
		if !reflect.DeepEqual(single.sum, o.got.sum) {
			t.Errorf("summaries differ between %s:\n%+v\n%+v", o.name, single.sum, o.got.sum)
		}
		if !reflect.DeepEqual(single.values, o.got.values) {
			t.Errorf("certified values differ between %s", o.name)
		}
	}
	if batch.replies != shard.replies {
		t.Errorf("replies differ between a supervisor and a 1-shard cluster:\n%s\n---\n%s", batch.replies, shard.replies)
	}
}

// teeConn copies everything written to the connection into w and
// everything read from it into r, each when set.
type teeConn struct {
	net.Conn
	w, r *bytes.Buffer
}

func (c *teeConn) Write(p []byte) (int, error) {
	if c.w != nil {
		c.w.Write(p)
	}
	return c.Conn.Write(p)
}

func (c *teeConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	if c.r != nil {
		c.r.Write(p[:n])
	}
	return n, err
}

// TestNegativeBatchSizeRejected: the library refuses a nonsense config
// before any network activity.
func TestNegativeBatchSizeRejected(t *testing.T) {
	if _, err := RunWorker(WorkerConfig{Addr: "127.0.0.1:1", BatchSize: -1}); err == nil {
		t.Error("negative BatchSize accepted")
	}
	if _, err := NewSupervisor(SupervisorConfig{Plan: mustPlan(t), MaxBatch: -1}); err == nil {
		t.Error("negative MaxBatch accepted")
	}
}

func mustPlan(t *testing.T) *plan.Plan {
	t.Helper()
	p, err := plan.FromDistribution(dist.Simple(4), 0.5)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestWorkBatchCappedAtMaxBatch drives the wire by hand: a greedy
// get_work asking for far more than MaxBatch is granted exactly the cap.
func TestWorkBatchCappedAtMaxBatch(t *testing.T) {
	p, err := plan.FromDistribution(dist.Simple(20), 0.5)
	if err != nil {
		t.Fatal(err)
	}
	sup, err := NewSupervisor(SupervisorConfig{Plan: p, Iters: 5, MaxBatch: 4})
	if err != nil {
		t.Fatal(err)
	}
	addr, err := sup.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sup.Close() })

	_, c := dialCodec(t, dialTCP, addr)
	welcome := roundTrip(t, c, Message{Type: MsgRegister, Name: "greedy"})
	lease := roundTrip(t, c, Message{Type: MsgGetWork, ParticipantID: welcome.ParticipantID, Batch: 100})
	if lease.Type != MsgWorkBatch {
		t.Fatalf("lease reply %+v", lease)
	}
	if len(lease.Work) != 4 {
		t.Errorf("asked for 100, MaxBatch 4, leased %d", len(lease.Work))
	}
	if lease.Kind == "" || lease.Iters == 0 {
		t.Errorf("lease envelope missing Kind/Iters: %+v", lease)
	}
	seen := make(map[outstandingKey]bool)
	for _, w := range lease.Work {
		key := outstandingKey{w.TaskID, w.Copy}
		if seen[key] {
			t.Errorf("lease contains task %d copy %d twice", w.TaskID, w.Copy)
		}
		seen[key] = true
		if w.Seed != TaskSeed(w.TaskID) {
			t.Errorf("task %d leased with seed %d, want %d", w.TaskID, w.Seed, TaskSeed(w.TaskID))
		}
	}
	// Return the lease so nothing is held, then check that a non-positive
	// ask still leases one fresh assignment, never zero or a refusal: a
	// hand-rolled client that forgets Batch degrades gracefully.
	fn, err := Work(lease.Kind)
	if err != nil {
		t.Fatal(err)
	}
	results := make([]ResultItem, 0, len(lease.Work))
	for _, w := range lease.Work {
		results = append(results, ResultItem{TaskID: w.TaskID, Copy: w.Copy, Value: fn(w.Seed, lease.Iters)})
	}
	if ack := roundTrip(t, c, Message{Type: MsgResultBatch, ParticipantID: welcome.ParticipantID,
		Results: results}); ack.Type != MsgBatchAck {
		t.Fatalf("batch ack %+v", ack)
	}
	lease2 := roundTrip(t, c, Message{Type: MsgGetWork, ParticipantID: welcome.ParticipantID})
	if lease2.Type != MsgWorkBatch || len(lease2.Work) != 1 {
		t.Errorf("batchless get_work got %+v, want a 1-assignment lease", lease2)
	}
}

// TestResumeReturnsWholeLease: after a resume, one get_work — of any
// requested size — returns every assignment the participant still holds,
// so a reconnect can never silently shrink a lease.
func TestResumeReturnsWholeLease(t *testing.T) {
	p, err := plan.FromDistribution(dist.Simple(20), 0.5)
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	sup, err := NewSupervisor(SupervisorConfig{Plan: p, Iters: 5, MaxBatch: 8, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	addr, err := sup.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sup.Close() })

	_, c1 := dialCodec(t, dialTCP, addr)
	welcome := roundTrip(t, c1, Message{Type: MsgRegister, Name: "leaser"})
	id, token := welcome.ParticipantID, welcome.Token
	lease := roundTrip(t, c1, Message{Type: MsgGetWork, ParticipantID: id, Batch: 6})
	if lease.Type != MsgWorkBatch || len(lease.Work) != 6 {
		t.Fatalf("lease reply %+v", lease)
	}

	// Resume on a fresh connection while the old one is half-open; even a
	// Batch:1 ask must bring the whole surviving 6-assignment lease back.
	_, c2 := dialCodec(t, dialTCP, addr)
	back := roundTrip(t, c2, Message{Type: MsgRegister, Resume: true, ParticipantID: id, Token: token})
	if back.Type != MsgRegistered {
		t.Fatalf("resume reply %+v", back)
	}
	again := roundTrip(t, c2, Message{Type: MsgGetWork, ParticipantID: id, Batch: 1})
	if again.Type != MsgWorkBatch {
		t.Fatalf("post-resume lease reply %+v", again)
	}
	want := make(map[outstandingKey]bool, len(lease.Work))
	for _, w := range lease.Work {
		want[outstandingKey{w.TaskID, w.Copy}] = true
	}
	for _, w := range again.Work {
		if !want[outstandingKey{w.TaskID, w.Copy}] {
			t.Errorf("post-resume lease contains fresh task %d copy %d; reissues must come first and alone", w.TaskID, w.Copy)
		}
		delete(want, outstandingKey{w.TaskID, w.Copy})
	}
	if len(want) != 0 {
		t.Errorf("post-resume lease is missing %d held assignments: %v", len(want), want)
	}
	if v, _ := reg.Snapshot().Value("redundancy_assignments_reissued_total"); int(v) != len(lease.Work) {
		t.Errorf("reissued %v assignments, want %d", v, len(lease.Work))
	}

	// Completing the whole lease on the new connection is one atomic batch.
	fn, err := Work(lease.Kind)
	if err != nil {
		t.Fatal(err)
	}
	results := make([]ResultItem, 0, len(again.Work))
	for _, w := range again.Work {
		results = append(results, ResultItem{TaskID: w.TaskID, Copy: w.Copy, Value: fn(w.Seed, lease.Iters)})
	}
	ack := roundTrip(t, c2, Message{Type: MsgResultBatch, ParticipantID: id, Results: results})
	if ack.Type != MsgBatchAck || len(ack.Acks) != len(results) {
		t.Fatalf("batch ack %+v", ack)
	}
	for _, a := range ack.Acks {
		if !a.OK {
			t.Errorf("task %d copy %d rejected on the resumed connection: %s", a.TaskID, a.Copy, a.Reason)
		}
	}
}

// TestResultBatchPartialRejection: one batch mixing valid results, a
// never-assigned tuple, and a duplicate of an already-accepted result gets
// per-item verdicts — the good results are credited, the bad ones carry
// machine-readable reasons, and nothing is double-counted.
func TestResultBatchPartialRejection(t *testing.T) {
	p, err := plan.FromDistribution(dist.Simple(12), 0.5)
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	sup, err := NewSupervisor(SupervisorConfig{Plan: p, Iters: 5, MaxBatch: 4, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	addr, err := sup.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sup.Close() })

	_, c := dialCodec(t, dialTCP, addr)
	welcome := roundTrip(t, c, Message{Type: MsgRegister, Name: "mixed"})
	id := welcome.ParticipantID
	lease := roundTrip(t, c, Message{Type: MsgGetWork, ParticipantID: id, Batch: 3})
	if lease.Type != MsgWorkBatch || len(lease.Work) != 3 {
		t.Fatalf("lease reply %+v", lease)
	}
	fn, err := Work(lease.Kind)
	if err != nil {
		t.Fatal(err)
	}
	value := func(w WorkItem) uint64 { return fn(w.Seed, lease.Iters) }

	// Submit the first item alone (single-result verb), so its later
	// appearance in the batch is a duplicate.
	first := lease.Work[0]
	if ack := roundTrip(t, c, Message{Type: MsgResult, ParticipantID: id,
		TaskID: first.TaskID, Copy: first.Copy, Value: value(first)}); ack.Type != MsgAck {
		t.Fatalf("single result ack %+v", ack)
	}

	batch := Message{Type: MsgResultBatch, ParticipantID: id, Results: []ResultItem{
		{TaskID: first.TaskID, Copy: first.Copy, Value: value(first)}, // duplicate
		{TaskID: lease.Work[1].TaskID, Copy: lease.Work[1].Copy, Value: value(lease.Work[1])},
		{TaskID: 9999, Copy: 0, Value: 1}, // never assigned
		{TaskID: lease.Work[2].TaskID, Copy: lease.Work[2].Copy, Value: value(lease.Work[2])},
	}}
	ack := roundTrip(t, c, batch)
	if ack.Type != MsgBatchAck || len(ack.Acks) != 4 {
		t.Fatalf("batch ack %+v", ack)
	}
	wantOK := []bool{false, true, false, true}
	for i, a := range ack.Acks {
		if a.OK != wantOK[i] {
			t.Errorf("ack %d: OK=%v want %v (%+v)", i, a.OK, wantOK[i], a)
		}
		if !a.OK && a.Reason != ReasonUnassigned {
			t.Errorf("ack %d: reason %q, want %q", i, a.Reason, ReasonUnassigned)
		}
	}
	snap := reg.Snapshot()
	if v, _ := snap.Value("redundancy_results_accepted_total"); v != 3 {
		t.Errorf("accepted %v results, want 3 (1 single + 2 batch)", v)
	}
	if v, _ := snap.Value("redundancy_results_rejected_total", ReasonUnassigned); v != 2 {
		t.Errorf("unassigned rejections %v, want 2", v)
	}
}

// TestWorkVerbsRequireRegistration: all four work verbs pass the one
// connection-identity check at the serve edge.
func TestWorkVerbsRequireRegistration(t *testing.T) {
	sup, addr := startSupervisor(t, mustPlan(t), sched.Free)
	_ = sup
	_, c := dialCodec(t, dialTCP, addr)
	for _, m := range []Message{
		{Type: MsgRequestWork, ParticipantID: 0},
		{Type: MsgResult, ParticipantID: 0, TaskID: 0, Copy: 0, Value: 1},
		{Type: MsgGetWork, ParticipantID: 0, Batch: 4},
		{Type: MsgResultBatch, ParticipantID: 0, Results: []ResultItem{{TaskID: 0, Copy: 0, Value: 1}}},
	} {
		if reply := roundTrip(t, c, m); reply.Type != MsgError || reply.Reason != ReasonUnregistered {
			t.Errorf("%s without registration: %+v, want %s", m.Type, reply, ReasonUnregistered)
		}
	}
}

// TestJournalSyncOncePerWindow: JournalSync mode pays one fsync per commit
// window — with one worker, per result batch — not one per record, and
// every record still lands durably.
func TestJournalSyncOncePerWindow(t *testing.T) {
	p, err := plan.FromDistribution(dist.Simple(24), 0.5)
	if err != nil {
		t.Fatal(err)
	}
	jf, err := os.OpenFile(filepath.Join(t.TempDir(), "journal.jsonl"), os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	defer jf.Close()
	reg := obs.NewRegistry()
	sup, err := NewSupervisor(SupervisorConfig{
		Plan: p, WorkKind: "hashchain", Iters: 5, Metrics: reg,
		Journal: jf, JournalSync: true, MaxBatch: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	addr, err := sup.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := RunWorker(WorkerConfig{Addr: addr, Name: "sync", BatchSize: 8}); err != nil {
		t.Fatal(err)
	}
	sup.Wait()
	sup.Close()

	total := p.TotalAssignments()
	snap := reg.Snapshot()
	if v, _ := snap.Value("redundancy_journal_records_total"); int(v) != total {
		t.Errorf("journaled %v records, want %d", v, total)
	}
	commits, _ := snap.Value("redundancy_journal_group_commits_total")
	if commits == 0 {
		t.Error("no commit windows recorded")
	}
	if sizes, _ := snap.Value("redundancy_journal_commit_batch_size"); sizes != commits {
		t.Errorf("commit batch-size observations %v, want one per window (%v)", sizes, commits)
	}
	syncs, _ := snap.Value("redundancy_journal_syncs_total")
	// One fsync per window (+1 for the Close flush) must undercut
	// one-per-record by the batch factor.
	if int(syncs) >= total {
		t.Errorf("%v fsyncs for %d records: batching bought nothing", syncs, total)
	}
	if syncs != commits+1 {
		t.Errorf("%v fsyncs for %v commit windows, want one each plus the Close flush", syncs, commits)
	}

	// The journal is complete and replayable: a fresh supervisor restores
	// every record and has nothing left to do.
	data, err := os.ReadFile(jf.Name())
	if err != nil {
		t.Fatal(err)
	}
	sup2, err := NewSupervisor(SupervisorConfig{
		Plan: p, WorkKind: "hashchain", Iters: 5, Restore: bytes.NewReader(data),
	})
	if err != nil {
		t.Fatalf("replaying batched journal: %v", err)
	}
	if sum := sup2.Summary(); sum.Restored != total {
		t.Errorf("restored %d records from batched journal, want %d", sum.Restored, total)
	}
}

// TestJournalWindowTornTail: a commit window's buffer that is cut off
// mid-write loses only the torn final record — replay restores the intact
// prefix.
func TestJournalWindowTornTail(t *testing.T) {
	recs := []journalRecord{
		{TaskID: 0, Copy: 0, Participant: 1, Value: 11},
		{TaskID: 1, Copy: 0, Participant: 1, Value: 22},
		{TaskID: 2, Copy: 0, Participant: 2, Value: 33},
	}
	var buf bytes.Buffer
	if err := encodeJournalRecords(&buf, recs); err != nil {
		t.Fatal(err)
	}
	if got := strings.Count(buf.String(), "\n"); got != len(recs) {
		t.Fatalf("batch encoded %d lines, want %d", got, len(recs))
	}

	p, err := plan.FromDistribution(dist.Simple(6), 0.5)
	if err != nil {
		t.Fatal(err)
	}
	torn := buf.String()[:buf.Len()-9] // cut into the final record
	specs := p.Tasks()
	collector := verify.NewCollector(func(int) uint64 { return 0 })
	for _, sp := range specs {
		collector.Expect(sp.ID, sp.Copies)
	}
	queue, err := sched.NewQueue(specs, sched.Free, rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	st, err := replayJournal(strings.NewReader(torn),
		collectorQueueReplayer{collector, queue})
	if err != nil {
		t.Fatalf("torn batch tail not tolerated: %v", err)
	}
	if st.restored != len(recs)-1 {
		t.Errorf("restored %d of a torn batch, want %d", st.restored, len(recs)-1)
	}
	if err := queue.Settle(); err != nil || queue.Issued() != len(recs)-1 {
		t.Errorf("settled the queue to %d issued copies (err %v), want %d", queue.Issued(), err, len(recs)-1)
	}
	wantValid := int64(0)
	for _, line := range strings.SplitAfter(buf.String(), "\n")[:len(recs)-1] {
		wantValid += int64(len(line))
	}
	if st.validBytes != wantValid {
		t.Errorf("valid prefix %d bytes, want %d", st.validBytes, wantValid)
	}
	if st.lines != len(recs)-1 {
		t.Errorf("replay counted %d lines, want %d", st.lines, len(recs)-1)
	}
}

// collectorQueueReplayer replays results into a bare collector/queue pair
// (no supervisor), for journal-layer tests; the caller settles the queue
// once the journal has replayed. Revision records are out of
// scope here and fail loudly.
type collectorQueueReplayer struct {
	collector *verify.Collector
	queue     *sched.Queue
}

func (r collectorQueueReplayer) replayResult(a sched.Assignment, participant int, value uint64) error {
	if !r.queue.MarkCompleted(a) {
		return replayTornError{fmt.Errorf("unknown assignment task=%d copy=%d", a.TaskID, a.Copy)}
	}
	_, _, err := r.collector.Submit(verify.Result{Assignment: a, Participant: participant, Value: value})
	return err
}

func (r collectorQueueReplayer) replayRevision(rec revisionRecord) error {
	return fmt.Errorf("unexpected revision record seq=%d", rec.Seq)
}

func (r collectorQueueReplayer) replaySnapshot(rec snapshotRecord) error {
	return fmt.Errorf("unexpected snapshot record (%d results)", rec.Results)
}
