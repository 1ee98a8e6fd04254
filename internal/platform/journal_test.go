package platform

import (
	"bytes"
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"

	"redundancy/internal/adapt"
	"redundancy/internal/dist"
	"redundancy/internal/health"
	"redundancy/internal/obs"
	"redundancy/internal/plan"
	"redundancy/internal/sched"
)

// TestJournalRecoveryEndToEnd runs half a computation, kills the
// supervisor, restores a fresh one from the journal, and finishes: all
// tasks certified, nothing recomputed twice.
func TestJournalRecoveryEndToEnd(t *testing.T) {
	p, err := plan.FromDistribution(dist.Simple(60), 0.5)
	if err != nil {
		t.Fatal(err)
	}
	var journal bytes.Buffer

	sup1, err := NewSupervisor(SupervisorConfig{
		Plan: p, WorkKind: "hashchain", Iters: 10, Seed: 5, Journal: &journal,
	})
	if err != nil {
		t.Fatal(err)
	}
	addr1, err := sup1.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	// Complete exactly half the assignments, then stop the supervisor.
	st, err := RunWorker(WorkerConfig{Addr: addr1, Name: "early", MaxAssignments: 60})
	if err != nil {
		t.Fatal(err)
	}
	if st.Completed != 60 {
		t.Fatalf("first phase completed %d", st.Completed)
	}
	if err := sup1.Close(); err != nil {
		t.Fatal(err)
	}

	// Restart from the journal.
	sup2, err := NewSupervisor(SupervisorConfig{
		Plan: p, WorkKind: "hashchain", Iters: 10, Seed: 5,
		Journal: &journal, Restore: bytes.NewReader(journal.Bytes()),
	})
	if err != nil {
		t.Fatal(err)
	}
	addr2, err := sup2.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sup2.Close() })

	st2, err := RunWorker(WorkerConfig{Addr: addr2, Name: "late"})
	if err != nil {
		t.Fatal(err)
	}
	sup2.Wait()

	sum := sup2.Summary()
	if sum.Restored != 60 {
		t.Errorf("restored %d results, want 60", sum.Restored)
	}
	if st2.Completed != 60 {
		t.Errorf("second phase completed %d assignments, want the remaining 60", st2.Completed)
	}
	if sum.Verify.Tasks != 60 || sum.Verify.Accepted != 60 {
		t.Errorf("final state: %+v", sum.Verify)
	}
	if sum.WrongResults != 0 || sum.Verify.MismatchDetected != 0 {
		t.Errorf("recovery corrupted results: %+v", sum.Verify)
	}
	// The restored participant's credit survives the restart.
	if len(sum.Credits) < 2 {
		t.Fatalf("leaderboard %v", sum.Credits)
	}
	total := 0
	for _, e := range sum.Credits {
		total += e.Credit
	}
	if total != 120 {
		t.Errorf("total credit %d, want 120 contributions", total)
	}
}

// TestJournalRestoreOneOutstanding restores a journal written under a
// holdback policy: replay marks each copy in the queue and settles them,
// releasing the copies it held back, and a second worker finishes exactly
// the rest with exact credit. A snapshot of the same state restores to the
// same bytes, and a worker finishes from it too.
func TestJournalRestoreOneOutstanding(t *testing.T) {
	p, err := plan.Balanced(40, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	cfg := SupervisorConfig{Plan: p, WorkKind: "hashchain", Iters: 5, Seed: 3, Policy: sched.OneOutstanding}
	var journal bytes.Buffer
	cfg1 := cfg
	cfg1.Journal = &journal
	sup1, err := NewSupervisor(cfg1)
	if err != nil {
		t.Fatal(err)
	}
	addr1, err := sup1.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	half := p.TotalAssignments() / 2
	if st, err := RunWorker(WorkerConfig{Addr: addr1, Name: "early", MaxAssignments: half}); err != nil || st.Completed != half {
		t.Fatalf("first phase completed %d of %d: %v", st.Completed, half, err)
	}
	sup1.Close()
	snap, err := sup1.Snapshot()
	if err != nil {
		t.Fatal(err)
	}

	cfg2 := cfg
	cfg2.Restore, cfg2.Metrics = bytes.NewReader(journal.Bytes()), obs.NewRegistry()
	cfg2.Journal = &journal
	sup2, err := NewSupervisor(cfg2)
	if err != nil {
		t.Fatalf("restoring the one-outstanding journal: %v", err)
	}
	addr2, err := sup2.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer sup2.Close()
	if _, err := RunWorker(WorkerConfig{Addr: addr2, Name: "late"}); err != nil {
		t.Fatal(err)
	}
	sup2.Wait()
	sum := sup2.Summary()
	live, _ := cfg2.Metrics.Snapshot().Value("redundancy_journal_records_total")
	if sum.Restored != half || sum.Restored+int(live) != p.TotalAssignments() {
		t.Errorf("%d restored + %v live results, want %d + %d", sum.Restored, live, half, p.TotalAssignments()-half)
	}
	credit := 0
	for _, e := range sum.Credits {
		credit += e.Credit
	}
	if credit != p.TotalAssignments() || sum.Verify.Accepted != p.N+p.Ringers {
		t.Errorf("credit %d for %d assignments, %d of %d tasks certified",
			credit, p.TotalAssignments(), sum.Verify.Accepted, p.N+p.Ringers)
	}

	cfg.Restore = bytes.NewReader(snap)
	sup3, err := NewSupervisor(cfg)
	if err != nil {
		t.Fatalf("restoring the one-outstanding snapshot: %v", err)
	}
	if got, err := sup3.Snapshot(); err != nil || !bytes.Equal(got, snap) {
		t.Fatalf("snapshot restore is not byte-identical (err %v):\n got %s\nwant %s", err, got, snap)
	}
	addr3, err := sup3.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer sup3.Close()
	st, err := RunWorker(WorkerConfig{Addr: addr3, Name: "after-snapshot"})
	if err != nil {
		t.Fatal(err)
	}
	sup3.Wait()
	if sum := sup3.Summary(); st.Completed != p.TotalAssignments()-half || sum.Verify.Accepted != p.N+p.Ringers {
		t.Errorf("from the snapshot: %d assignments completed, want %d; %d of %d tasks certified",
			st.Completed, p.TotalAssignments()-half, sum.Verify.Accepted, p.N+p.Ringers)
	}
}

// TestJournalRestoreOfCompleteRun yields a supervisor that is already
// finished: Wait returns immediately and workers get Done.
func TestJournalRestoreOfCompleteRun(t *testing.T) {
	p, err := plan.FromDistribution(dist.Simple(10), 0.5)
	if err != nil {
		t.Fatal(err)
	}
	var journal bytes.Buffer
	sup1, err := NewSupervisor(SupervisorConfig{Plan: p, Iters: 5, Journal: &journal})
	if err != nil {
		t.Fatal(err)
	}
	addr, err := sup1.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := RunWorker(WorkerConfig{Addr: addr, Name: "w"}); err != nil {
		t.Fatal(err)
	}
	sup1.Wait()
	sup1.Close()

	sup2, err := NewSupervisor(SupervisorConfig{
		Plan: p, Iters: 5, Restore: bytes.NewReader(journal.Bytes()),
	})
	if err != nil {
		t.Fatal(err)
	}
	sup2.Wait() // must not block
	addr2, err := sup2.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer sup2.Close()
	st, err := RunWorker(WorkerConfig{Addr: addr2, Name: "late"})
	if err != nil {
		t.Fatal(err)
	}
	if st.Completed != 0 {
		t.Errorf("late worker completed %d assignments on a finished run", st.Completed)
	}
}

// TestJournalReplayCorruption drives replay through every damage shape a
// crash (or a disk) can leave behind: torn tails are tolerated and
// excluded from the valid prefix, anything corrupt in the interior aborts
// the restore with a diagnosable error.
func TestJournalReplayCorruption(t *testing.T) {
	rec0 := `{"task":0,"copy":0,"participant":1,"value":7}` + "\n"
	rec1 := `{"task":1,"copy":0,"participant":1,"value":9}` + "\n"
	revision := func(seq, task int) string {
		return fmt.Sprintf(`{"revision":{"seq":%d,"phat":0.2,"upper":0.4,"promotions":[{"task":%d,"from":2,"to":3}]}}`+"\n", seq, task)
	}
	// head is a compaction's snapshot line: revision 0 and rec0 applied
	// before its capture. Either record may still follow the line.
	base, err := NewSupervisor(SupervisorConfig{
		Plan: simplePlan(t, 5), Iters: 5, Restore: strings.NewReader(revision(0, 0) + rec0),
	})
	if err != nil {
		t.Fatal(err)
	}
	head, err := base.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name      string
		journal   string
		restored  int   // -1: construction must fail
		valid     int64 // clean prefix RestoredJournalBytes must report
		errWant   []string
		revisions int  // plan revisions the restore must have applied
		isHead    bool // the restored state must encode to head
	}{
		{name: "clean", journal: rec0 + rec1,
			restored: 2, valid: int64(len(rec0) + len(rec1))},
		{name: "blank lines tolerated", journal: rec0 + "\n" + rec1,
			restored: 2, valid: int64(len(rec0) + 1 + len(rec1))},
		{name: "blank line after a torn tail excluded", journal: rec0 + `{"task":1,"cop` + "\n\n",
			restored: 1, valid: int64(len(rec0))},
		{name: "valid final record without newline", journal: rec0 + strings.TrimSuffix(rec1, "\n"),
			restored: 2, valid: int64(len(rec0) + len(rec1) - 1)},
		{name: "torn tail tolerated", journal: rec0 + `{"task":1,"cop`,
			restored: 1, valid: int64(len(rec0))},
		{name: "torn unknown-assignment tail tolerated",
			journal:  rec0 + `{"task":99,"copy":5,"participant":1,"value":7}` + "\n",
			restored: 1, valid: int64(len(rec0))},
		{name: "interior garbage aborts", journal: "not json\n" + rec0,
			restored: -1, errWant: []string{"corrupt journal record"}},
		{name: "interior torn record aborts", journal: `{"task":1,"cop` + "\n" + rec0,
			restored: -1, errWant: []string{"corrupt journal record"}},
		{name: "interior unknown assignment aborts, naming the record",
			journal:  `{"task":99,"copy":5,"participant":1,"value":7}` + "\n" + rec0,
			restored: -1, errWant: []string{"unknown assignment", "task=99", "copy=5"}},
		{name: "interior duplicate aborts", journal: rec0 + rec0 + rec1,
			restored: -1, errWant: []string{"task=0", "copy=0"}},
		{name: "revision and result covered by the head snapshot skipped",
			journal:  string(head) + revision(0, 0) + rec0,
			restored: 1, valid: int64(len(head) + len(revision(0, 0)) + len(rec0)),
			revisions: 1, isHead: true},
		{name: "next revision after the head snapshot applies",
			journal:  string(head) + revision(1, 1),
			restored: 1, valid: int64(len(head) + len(revision(1, 1))),
			revisions: 2},
		{name: "revision seq gap after the head snapshot aborts",
			journal:  string(head) + revision(2, 1),
			restored: -1, errWant: []string{"journal revision 2", "out of order"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p, err := plan.FromDistribution(dist.Simple(5), 0.5)
			if err != nil {
				t.Fatal(err)
			}
			sup, err := NewSupervisor(SupervisorConfig{
				Plan: p, Iters: 5, Restore: strings.NewReader(tc.journal),
			})
			if tc.restored < 0 {
				if err == nil {
					t.Fatal("corrupt journal accepted")
				}
				for _, want := range tc.errWant {
					if !strings.Contains(err.Error(), want) {
						t.Errorf("error %q does not mention %q", err, want)
					}
				}
				return
			}
			if err != nil {
				t.Fatalf("restore failed: %v", err)
			}
			if sup.replayed.restored != tc.restored {
				t.Errorf("restored %d, want %d", sup.replayed.restored, tc.restored)
			}
			if got := sup.RestoredJournalBytes(); got != tc.valid {
				t.Errorf("valid prefix %d bytes, want %d", got, tc.valid)
			}
			if got := sup.RevisionsApplied(); got != tc.revisions {
				t.Errorf("%d revisions applied, want %d", got, tc.revisions)
			}
			if tc.isHead {
				if got, err := sup.Snapshot(); err != nil || !bytes.Equal(got, head) {
					t.Errorf("restored state is not the head snapshot's (err %v):\n got %s\nwant %s", err, got, head)
				}
			}
		})
	}
}

// TestRestoreScalesLinearly: replaying a journal costs a bounded amount per
// record however large the plan, under every release policy. Four times the
// records may take up to eight times as long; a per-record scan of the
// ready pool (what restore did before it completed replayed copies in one
// pass) takes sixteen.
func TestRestoreScalesLinearly(t *testing.T) {
	for _, pol := range []sched.Policy{sched.Free, sched.OneOutstanding, sched.TwoPhase} {
		t.Run(pol.String(), func(t *testing.T) {
			restore := func(tasks int) time.Duration {
				journal := syntheticJournal(tasks, 0).Bytes()
				best := time.Duration(-1)
				for i := 0; i < 3; i++ {
					start := time.Now()
					sup, err := NewSupervisor(SupervisorConfig{
						Plan: simplePlan(t, float64(tasks)), Iters: 5, Policy: pol, Restore: bytes.NewReader(journal),
					})
					d := time.Since(start)
					if err != nil {
						t.Fatal(err)
					}
					if sup.replayed.restored != 2*tasks || !sup.lease.Queue().Done() {
						t.Fatalf("restored %d of %d results, queue done=%v", sup.replayed.restored, 2*tasks, sup.lease.Queue().Done())
					}
					if best < 0 || d < best {
						best = d
					}
				}
				return best
			}
			small, large := restore(5000), restore(20000)
			t.Logf("restore: 10k records %v, 40k records %v (x%.1f)", small, large, float64(large)/float64(small))
			if large > 8*small {
				t.Errorf("restoring 4x the records took %v, more than 8x the %v of the small journal", large, small)
			}
		})
	}
}

// TestReplayAppliesStateObservesNothing: a restore applies every verdict
// as the live path did, and observes none of them. A two-member
// always-cheat coalition and one honest participant take turns on a plan
// with a ringer until the coalition is refused work; the journal of that
// run is restored into a supervisor with a fresh registry and event sink.
// With Health on, the verification tallies, the blacklist, the
// convictions, the credits and the quarantined participants match the
// live supervisor's, while the restored counters read 0 and the sink
// stays empty. With Adapt on, p̂ matches bit for bit, and so it does with
// Health and Adapt both on, quarantines counted in.
func TestReplayAppliesStateObservesNothing(t *testing.T) {
	t.Run("health", func(t *testing.T) {
		live, restored, reg, events := liveAndRestored(t, func(cfg *SupervisorConfig) {
			cfg.Health = &health.Config{SuspectLimit: 2}
		})
		sumL, sumR := live.Summary(), restored.Summary()
		if len(sumL.Convicted) == 0 || sumL.Verify.Accepted == 0 || sumL.Verify.MismatchDetected == 0 {
			t.Fatalf("the live run convicted %v and certified %+v; the test needs all three nonzero",
				sumL.Convicted, sumL.Verify)
		}
		if sumL.Verify != sumR.Verify {
			t.Errorf("verification tallies: live %+v, restored %+v", sumL.Verify, sumR.Verify)
		}
		if !reflect.DeepEqual(sumL.Blacklist, sumR.Blacklist) || !reflect.DeepEqual(sumL.Convicted, sumR.Convicted) {
			t.Errorf("blacklist %v convicted %v live, %v and %v restored",
				sumL.Blacklist, sumL.Convicted, sumR.Blacklist, sumR.Convicted)
		}
		if !reflect.DeepEqual(sumL.Credits, sumR.Credits) {
			t.Errorf("credits: live %v, restored %v", sumL.Credits, sumR.Credits)
		}
		quarantined := func(sup *Supervisor) (out []int) {
			for _, ph := range sup.HealthSnapshot() {
				if ph.State == health.Quarantined {
					out = append(out, ph.Participant)
				}
			}
			return out
		}
		qL, qR := quarantined(live), quarantined(restored)
		if len(qL) == 0 {
			t.Fatal("the live run quarantined nobody; the test needs a quarantine")
		}
		if !reflect.DeepEqual(qL, qR) {
			t.Errorf("quarantined: live %v, restored %v", qL, qR)
		}
		for _, name := range []string{
			"redundancy_tasks_certified_total", "redundancy_mismatch_detected_total",
			"redundancy_ringer_failures_total", "redundancy_convictions_total",
			"redundancy_quarantines_entered_total",
		} {
			if v, _ := reg.Snapshot().Value(name); v != 0 {
				t.Errorf("the restore counted %s = %v", name, v)
			}
			if v, _ := live.registry.Snapshot().Value(name); v == 0 {
				t.Errorf("the live run never counted %s", name)
			}
		}
		if events.String() != "" {
			t.Errorf("the restore emitted events:\n%s", events.String())
		}
	})
	t.Run("adapt", func(t *testing.T) {
		live, restored, _, _ := liveAndRestored(t, func(cfg *SupervisorConfig) {
			cfg.Adapt = &adapt.Config{TargetEpsilon: 0.5}
		})
		estL, _ := live.AdaptiveEstimate()
		estR, _ := restored.AdaptiveEstimate()
		if estL.Samples == 0 || estL.PHat == 0 {
			t.Fatalf("the live estimator saw no bad evidence: %+v", estL)
		}
		if estL != estR {
			t.Errorf("p̂: live %+v, restored %+v", estL, estR)
		}
	})
	// With both on, a verdict that quarantines a participant is one more
	// bad p̂ observation, which the restore must rebuild from the verdict.
	t.Run("health+adapt", func(t *testing.T) {
		live, restored, _, _ := liveAndRestored(t, func(cfg *SupervisorConfig) {
			cfg.Health = &health.Config{SuspectLimit: 2}
			cfg.Adapt = &adapt.Config{TargetEpsilon: 0.5}
		})
		quarantines, _ := live.registry.Snapshot().Value("redundancy_quarantines_entered_total")
		if quarantines == 0 {
			t.Fatal("the live run quarantined nobody; the test needs a quarantine")
		}
		estL, _ := live.AdaptiveEstimate()
		estR, _ := restored.AdaptiveEstimate()
		// Live p̂ saw each verdict's copies and one more sample per
		// quarantine.
		copies := 0
		live.stateMu.Lock()
		for i := range live.audit.collector.NumVerdicts() {
			copies += live.audit.collector.VerdictAt(i).Copies
		}
		live.stateMu.Unlock()
		if estL.Samples != float64(copies)+quarantines {
			t.Errorf("live p̂ has %v samples; %d copies were adjudicated and %v participants quarantined",
				estL.Samples, copies, quarantines)
		}
		if estL != estR {
			t.Errorf("p̂: live %+v, restored %+v", estL, estR)
		}
	})
}

// liveAndRestored runs the coalition of TestReplayAppliesStateObservesNothing
// under the configuration set shapes, then restores its journal into a
// supervisor with a fresh registry and event sink, which it returns too.
func liveAndRestored(t *testing.T, shape func(*SupervisorConfig)) (live, restored *Supervisor, reg *obs.Registry, events *syncBuffer) {
	t.Helper()
	newSup := func(journal *syncBuffer, restore []byte, reg *obs.Registry, events *syncBuffer) *Supervisor {
		t.Helper()
		p, err := plan.Balanced(60, 0.5)
		if err != nil {
			t.Fatal(err)
		}
		if p.Ringers == 0 {
			t.Fatal("the plan has no ringer")
		}
		cfg := SupervisorConfig{Plan: p, WorkKind: "hashchain", Iters: 10, Seed: 3, Metrics: reg}
		if journal != nil {
			cfg.Journal = journal
		}
		if restore != nil {
			cfg.Restore = bytes.NewReader(restore)
		}
		if events != nil {
			cfg.Events = obs.NewSink(events)
		}
		shape(&cfg)
		sup, err := NewSupervisor(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return sup
	}
	journal := &syncBuffer{}
	live = newSup(journal, nil, nil, nil)
	addr, err := live.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { live.Close() }) // after the connections below close

	// Turns go round until the coalition is refused work (convicted or
	// quarantined) or the plan runs out; the honest participant stops
	// with it.
	coal := NewCoalition(1, 7).CheatFunc()
	cheats := []CheatFunc{nil, coal, coal}
	codecs := make([]*Codec, len(cheats))
	ids := make([]int, len(cheats))
	for i := range cheats {
		_, codecs[i] = dialCodec(t, dialTCP, addr)
		w := roundTrip(t, codecs[i], Message{Type: MsgRegister, Name: fmt.Sprintf("p%d", i)})
		if w.Type != MsgRegistered {
			t.Fatalf("register p%d: %+v", i, w)
		}
		ids[i] = w.ParticipantID
	}
	for cheating := 2; cheating > 0; {
		for i, c := range codecs {
			if c == nil {
				continue
			}
			m := batchVerbs.lease(t, c, ids[i], 4)
			if m.Type != MsgWorkBatch {
				codecs[i] = nil
				if cheats[i] != nil {
					cheating--
				}
				continue
			}
			batchVerbs.submit(t, c, ids[i], answer(t, m, cheats[i]))
		}
	}

	reg, events = obs.NewRegistry(), &syncBuffer{}
	return live, newSup(nil, journal.Bytes(), reg, events), reg, events
}
