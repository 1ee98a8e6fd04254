package platform

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
	"time"

	"redundancy/internal/dist"
	"redundancy/internal/plan"
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
// record however large the plan. Four times the records may take up to
// eight times as long; a per-record scan of the ready pool (what restore
// did before it completed replayed copies in bulk) takes sixteen.
func TestRestoreScalesLinearly(t *testing.T) {
	restore := func(tasks int) time.Duration {
		journal := syntheticJournal(tasks, 0).Bytes()
		best := time.Duration(-1)
		for i := 0; i < 3; i++ {
			start := time.Now()
			sup, err := NewSupervisor(SupervisorConfig{
				Plan: simplePlan(t, float64(tasks)), Iters: 5, Restore: bytes.NewReader(journal),
			})
			d := time.Since(start)
			if err != nil {
				t.Fatal(err)
			}
			if sup.replayed.restored != 2*tasks || !sup.lease.queue.Done() {
				t.Fatalf("restored %d of %d results, queue done=%v", sup.replayed.restored, 2*tasks, sup.lease.queue.Done())
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
}
