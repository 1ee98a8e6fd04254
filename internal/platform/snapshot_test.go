package platform

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"redundancy/internal/dist"
	"redundancy/internal/plan"
)

// simplePlan builds a fresh n-task, 2-copies-per-task plan. Snapshot tests
// need a new plan per supervisor because revisions mutate plans in place.
func simplePlan(t *testing.T, n float64) *plan.Plan {
	t.Helper()
	p, err := plan.FromDistribution(dist.Simple(n), 0.5)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// syntheticJournal writes 2 unanimous results for tasks [0, full) and one
// partial result for tasks [full, full+partial) — a deterministic journal
// with adjudicated and pending state, no TCP required.
func syntheticJournal(full, partial int) *bytes.Buffer {
	var buf bytes.Buffer
	for t := 0; t < full+partial; t++ {
		v := uint64(t)*2654435761 + 13
		fmt.Fprintf(&buf, `{"task":%d,"copy":0,"participant":1,"value":%d}`+"\n", t, v)
		if t < full {
			fmt.Fprintf(&buf, `{"task":%d,"copy":1,"participant":2,"value":%d}`+"\n", t, v)
		}
	}
	return &buf
}

// TestSnapshotRestoreEquivalence is the core compaction-correctness claim:
// restoring from a snapshot alone yields byte-identical certification
// state — and an identically ordered assignment queue — as replaying the
// full uncompacted journal it covers.
func TestSnapshotRestoreEquivalence(t *testing.T) {
	const full, partial = 300, 40
	journal := syntheticJournal(full, partial)

	supA, err := NewSupervisor(SupervisorConfig{
		Plan: simplePlan(t, full+partial), Iters: 5, Seed: 9,
		Restore: bytes.NewReader(journal.Bytes()),
	})
	if err != nil {
		t.Fatal(err)
	}
	snapA, err := supA.Snapshot()
	if err != nil {
		t.Fatal(err)
	}

	supB, err := NewSupervisor(SupervisorConfig{
		Plan: simplePlan(t, full+partial), Iters: 5, Seed: 9,
		Restore: bytes.NewReader(snapA),
	})
	if err != nil {
		t.Fatalf("restoring from snapshot: %v", err)
	}
	snapB, err := supB.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(snapA, snapB) {
		t.Fatalf("snapshot restore is not byte-identical:\nfull replay: %s\nsnapshot:    %s", snapA, snapB)
	}
	if supA.replayed.restored != supB.replayed.restored {
		t.Errorf("restored counts differ: full replay %d, snapshot %d", supA.replayed.restored, supB.replayed.restored)
	}
	if want := 2*full + partial; supB.replayed.restored != want {
		t.Errorf("restored %d results, want %d", supB.replayed.restored, want)
	}
	sumA, sumB := supA.Summary(), supB.Summary()
	sumA.Participants, sumB.Participants = 0, 0 // compared below
	if !reflect.DeepEqual(sumA, sumB) {
		t.Errorf("summaries diverge:\nfull replay: %+v\nsnapshot:    %+v", sumA, sumB)
	}
	if a, b := supA.ident.nextID, supB.ident.nextID; a != b {
		t.Errorf("participant high-water marks differ: %d vs %d", a, b)
	}

	// The remaining assignments must come out of both queues in the same
	// order — the ready pools are identical, not merely equal as sets.
	qa, qb := supA.lease.queue, supB.lease.queue
	if qa.Issued() != qb.Issued() || qa.Total() != qb.Total() {
		t.Fatalf("queue accounting diverges: issued %d/%d, total %d/%d",
			qa.Issued(), qb.Issued(), qa.Total(), qb.Total())
	}
	for i := 0; ; i++ {
		a, okA := qa.Next()
		b, okB := qb.Next()
		if okA != okB || a != b {
			t.Fatalf("queue order diverges at pop %d: %+v (ok=%v) vs %+v (ok=%v)", i, a, okA, b, okB)
		}
		if !okA {
			break
		}
	}
}

// TestSnapshotRestoredSupervisorFinishes proves a snapshot-restored
// supervisor is live, not just consistent: workers complete the remaining
// assignments and every task certifies.
func TestSnapshotRestoredSupervisorFinishes(t *testing.T) {
	const full, partial = 50, 10
	journal := syntheticJournal(full, partial)
	sup1, err := NewSupervisor(SupervisorConfig{
		Plan: simplePlan(t, full+partial), Iters: 5, Seed: 3,
		Restore: bytes.NewReader(journal.Bytes()),
	})
	if err != nil {
		t.Fatal(err)
	}
	snap, err := sup1.Snapshot()
	if err != nil {
		t.Fatal(err)
	}

	sup2, err := NewSupervisor(SupervisorConfig{
		Plan: simplePlan(t, full+partial), Iters: 5, Seed: 3,
		Restore: bytes.NewReader(snap),
	})
	if err != nil {
		t.Fatal(err)
	}
	addr, err := sup2.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer sup2.Close()
	if _, err := RunWorker(WorkerConfig{Addr: addr, Name: "finisher"}); err != nil {
		t.Fatal(err)
	}
	sup2.Wait()
	sum := sup2.Summary()
	// The synthetic journal's values are fabricated: fully-collected tasks
	// certify unanimously (redundancy cannot tell a unanimous lie from the
	// truth), while the partial tasks mismatch when the honest finisher's
	// real value disagrees with the fabricated first copy.
	if sum.Verify.Tasks != full+partial || sum.Verify.Accepted != full {
		t.Errorf("final state after snapshot restore: %+v", sum.Verify)
	}
	if sum.Verify.MismatchDetected != partial {
		t.Errorf("mismatches %d, want %d (honest finisher vs fabricated partials)",
			sum.Verify.MismatchDetected, partial)
	}
}

// TestSnapshotSoakRestoreEquivalence is the scale version of the
// equivalence test — a >=100k-result journal (scaled down under the race
// detector) — and the compaction payoff smoke: restoring from the
// snapshot decodes one line and fewer bytes than the full history it
// stands in for (in practice it is faster by orders of magnitude; full
// replay pays a linear pool scan per record).
func TestSnapshotSoakRestoreEquivalence(t *testing.T) {
	full, partial := 50_000, 100 // 100_100 journaled results
	if raceEnabled {
		full = 5_000 // race instrumentation makes full replay quadratic-slow
	}
	journal := syntheticJournal(full, partial)

	startA := time.Now()
	supA, err := NewSupervisor(SupervisorConfig{
		Plan: simplePlan(t, float64(full+partial)), Iters: 5, Seed: 11,
		Restore: bytes.NewReader(journal.Bytes()),
	})
	if err != nil {
		t.Fatal(err)
	}
	fullReplay := time.Since(startA)
	snapA, err := supA.Snapshot()
	if err != nil {
		t.Fatal(err)
	}

	startB := time.Now()
	supB, err := NewSupervisor(SupervisorConfig{
		Plan: simplePlan(t, float64(full+partial)), Iters: 5, Seed: 11,
		Restore: bytes.NewReader(snapA),
	})
	if err != nil {
		t.Fatal(err)
	}
	snapRestore := time.Since(startB)

	snapB, err := supB.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(snapA, snapB) {
		t.Fatalf("soak: snapshot restore diverged from full replay (%d vs %d bytes)", len(snapA), len(snapB))
	}
	if want := 2*full + partial; supB.replayed.restored != want {
		t.Errorf("soak restored %d results, want %d", supB.replayed.restored, want)
	}
	// The payoff is asserted on what each restore had to decode, which
	// repeats exactly; the wall clock is reported, not judged.
	t.Logf("replay of %d results: full journal %v, snapshot %v", 2*full+partial, fullReplay, snapRestore)
	if supB.replayed.lines != 1 || supB.replayed.lines >= supA.replayed.lines {
		t.Errorf("snapshot restore decoded %d journal lines, full replay %d: want 1 standing in for all of them",
			supB.replayed.lines, supA.replayed.lines)
	}
	if len(snapA) >= journal.Len() {
		t.Errorf("snapshot is %d bytes, the journal it stands in for %d", len(snapA), journal.Len())
	}
}

// TestLiveCompactionEndToEnd runs a real computation over TCP with
// periodic compacting snapshots, then proves the compacted journal file
// restores a supervisor byte-identical to the live one — while the journal
// stayed a fraction of the run's history.
func TestLiveCompactionEndToEnd(t *testing.T) {
	for _, batch := range []int{1, 8} { // both verb pairs feed the one commit path
		t.Run(fmt.Sprintf("batch-%d", batch), func(t *testing.T) {
			const tasks = 150 // 300 results
			path := filepath.Join(t.TempDir(), "journal.jsonl")
			jf, err := OpenJournalFile(path)
			if err != nil {
				t.Fatal(err)
			}
			defer jf.Close()
			sup, err := NewSupervisor(SupervisorConfig{
				Plan: simplePlan(t, tasks), Iters: 5, Seed: 7,
				Journal: jf, JournalSync: true,
				SnapshotInterval: 40,
			})
			if err != nil {
				t.Fatal(err)
			}
			addr, err := sup.Start("127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			for _, w := range []string{"a", "b"} {
				go RunWorker(WorkerConfig{Addr: addr, Name: w, BatchSize: batch})
			}
			sup.Wait()
			if err := sup.Close(); err != nil {
				t.Fatal(err)
			}
			liveSnap, err := sup.Snapshot()
			if err != nil {
				t.Fatal(err)
			}

			snap := sup.Metrics().Snapshot()
			if v, _ := snap.Value("redundancy_journal_snapshots_total"); v == 0 {
				t.Error("no snapshots recorded")
			}
			if v, _ := snap.Value("redundancy_journal_compacted_records_total"); v == 0 {
				t.Error("no compacted records recorded")
			}

			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			lines := strings.Split(strings.TrimRight(string(data), "\n"), "\n")
			if !strings.HasPrefix(lines[0], `{"snapshot":`) {
				t.Fatalf("compacted journal does not start with a snapshot: %.80s", lines[0])
			}
			// The journal holds one snapshot plus at most the records that
			// arrived after the last compaction — not the run's history.
			if len(lines) > 150 {
				t.Errorf("compacted journal holds %d lines for a %d-result run", len(lines), 2*tasks)
			}

			sup2, err := NewSupervisor(SupervisorConfig{
				Plan: simplePlan(t, tasks), Iters: 5, Seed: 7,
				Restore: bytes.NewReader(data),
			})
			if err != nil {
				t.Fatalf("restoring compacted journal: %v", err)
			}
			restoredSnap, err := sup2.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(liveSnap, restoredSnap) {
				t.Errorf("compacted restore diverged from live state (%d vs %d bytes)",
					len(liveSnap), len(restoredSnap))
			}
			if sup2.replayed.restored != 2*tasks {
				t.Errorf("restored %d results from compacted journal, want %d", sup2.replayed.restored, 2*tasks)
			}
			if !sup2.lease.queue.Done() {
				t.Error("compacted restore left assignments outstanding on a finished run")
			}
		})
	}
}

// TestSnapshotHeadMidStreamAndTorn pins the replay rules: a snapshot
// installs only at the journal head, covered duplicates after it are
// skipped without double-counting, a mid-stream snapshot is ignored, and
// a torn snapshot tail is tolerated like any torn final line.
func TestSnapshotHeadMidStreamAndTorn(t *testing.T) {
	rec0 := `{"task":0,"copy":0,"participant":1,"value":7}` + "\n"
	rec1 := `{"task":0,"copy":1,"participant":2,"value":7}` + "\n"
	rec2 := `{"task":1,"copy":0,"participant":1,"value":9}` + "\n"

	base, err := NewSupervisor(SupervisorConfig{
		Plan: simplePlan(t, 5), Iters: 5, Restore: strings.NewReader(rec0 + rec1),
	})
	if err != nil {
		t.Fatal(err)
	}
	snapLine, err := base.Snapshot() // one verdict (task 0), results=2
	if err != nil {
		t.Fatal(err)
	}

	t.Run("head snapshot with covered duplicates", func(t *testing.T) {
		journal := string(snapLine) + rec0 + rec1 + rec2
		sup, err := NewSupervisor(SupervisorConfig{
			Plan: simplePlan(t, 5), Iters: 5, Restore: strings.NewReader(journal),
		})
		if err != nil {
			t.Fatal(err)
		}
		if sup.replayed.restored != 3 {
			t.Errorf("restored %d, want 3 (2 covered + 1 fresh)", sup.replayed.restored)
		}
		if st := sup.Summary(); st.Verify.Tasks != 1 {
			t.Errorf("verdicts %d, want 1", st.Verify.Tasks)
		}
	})

	t.Run("mid-stream snapshot skipped", func(t *testing.T) {
		journal := rec0 + string(snapLine) + rec1
		sup, err := NewSupervisor(SupervisorConfig{
			Plan: simplePlan(t, 5), Iters: 5, Restore: strings.NewReader(journal),
		})
		if err != nil {
			t.Fatal(err)
		}
		if sup.replayed.restored != 2 {
			t.Errorf("restored %d, want 2", sup.replayed.restored)
		}
		got, err := sup.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, snapLine) {
			t.Errorf("state after mid-stream skip diverges from the snapshot's own state")
		}
	})

	t.Run("torn snapshot tail tolerated", func(t *testing.T) {
		journal := rec0 + string(snapLine[:len(snapLine)-10])
		sup, err := NewSupervisor(SupervisorConfig{
			Plan: simplePlan(t, 5), Iters: 5, Restore: strings.NewReader(journal),
		})
		if err != nil {
			t.Fatalf("torn snapshot tail not tolerated: %v", err)
		}
		if sup.replayed.restored != 1 {
			t.Errorf("restored %d, want 1", sup.replayed.restored)
		}
		if got, want := sup.RestoredJournalBytes(), int64(len(rec0)); got != want {
			t.Errorf("valid prefix %d, want %d", got, want)
		}
	})

	t.Run("torn snapshot followed by data aborts", func(t *testing.T) {
		journal := string(snapLine[:len(snapLine)-10]) + "\n" + rec0
		_, err := NewSupervisor(SupervisorConfig{
			Plan: simplePlan(t, 5), Iters: 5, Restore: strings.NewReader(journal),
		})
		if err == nil || !strings.Contains(err.Error(), "corrupt journal record") {
			t.Fatalf("interior torn snapshot accepted (err=%v)", err)
		}
	})

	t.Run("inconsistent snapshot rejected", func(t *testing.T) {
		bad := `{"snapshot":{"results":5,"max_participant":1,"verdicts":[` +
			`{"task":0,"copies":2,"accepted":true,"value":7,"contributors":[1,2]}]}}` + "\n"
		_, err := NewSupervisor(SupervisorConfig{
			Plan: simplePlan(t, 5), Iters: 5, Restore: strings.NewReader(bad),
		})
		if err == nil || !strings.Contains(err.Error(), "snapshot") {
			t.Fatalf("inconsistent snapshot accepted (err=%v)", err)
		}
	})
}

// TestSnapshotCarriesRevisions pins the journal-first revision ordering
// across compaction: a snapshot must replay its revisions before bulk
// queue completion, or verdicts whose copies only exist because of a
// promotion could not be installed.
func TestSnapshotCarriesRevisions(t *testing.T) {
	revLine := `{"revision":{"seq":0,"phat":0.2,"upper":0.4,"promotions":[{"task":0,"from":2,"to":3}]}}` + "\n"
	results := `{"task":0,"copy":0,"participant":1,"value":7}` + "\n" +
		`{"task":0,"copy":1,"participant":2,"value":7}` + "\n" +
		`{"task":0,"copy":2,"participant":3,"value":7}` + "\n"

	sup1, err := NewSupervisor(SupervisorConfig{
		Plan: simplePlan(t, 5), Iters: 5, Restore: strings.NewReader(revLine + results),
	})
	if err != nil {
		t.Fatal(err)
	}
	if sup1.RevisionsApplied() != 1 {
		t.Fatalf("revisions applied %d, want 1", sup1.RevisionsApplied())
	}
	snap, err := sup1.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(snap), `"revisions"`) {
		t.Fatalf("snapshot does not carry the applied revision: %s", snap)
	}

	sup2, err := NewSupervisor(SupervisorConfig{
		Plan: simplePlan(t, 5), Iters: 5, Restore: bytes.NewReader(snap),
	})
	if err != nil {
		t.Fatalf("snapshot with promoted-task verdict failed to restore: %v", err)
	}
	if sup2.RevisionsApplied() != 1 {
		t.Errorf("revisions applied after snapshot restore: %d, want 1", sup2.RevisionsApplied())
	}
	got, err := sup2.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(snap, got) {
		t.Error("revision-carrying snapshot did not round-trip byte-identically")
	}
	// A later revision's sequence numbering continues from the snapshot's.
	if n := len(sup2.audit.revisions); n != 1 {
		t.Errorf("revision sequence resumed at %d, want 1", n)
	}
}

// TestSnapshotConfigValidation pins the constructor's gating.
func TestSnapshotConfigValidation(t *testing.T) {
	var buf bytes.Buffer
	jf, err := OpenJournalFile(filepath.Join(t.TempDir(), "journal.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	defer jf.Close()
	cases := []struct {
		name string
		cfg  SupervisorConfig
		want string
	}{
		{"negative interval", SupervisorConfig{SnapshotInterval: -1, Journal: &buf}, "negative SnapshotInterval"},
		{"interval without journal", SupervisorConfig{SnapshotInterval: 5}, "requires a Journal supporting atomic replacement"},
		{"interval under holdback policy", SupervisorConfig{SnapshotInterval: 5, Journal: jf, Policy: 1}, "free policy"},
		{"interval without replaceable journal", SupervisorConfig{SnapshotInterval: 5, Journal: &buf}, "requires a Journal supporting atomic replacement"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tc.cfg.Plan = simplePlan(t, 5)
			_, err := NewSupervisor(tc.cfg)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("err=%v, want mention of %q", err, tc.want)
			}
		})
	}
}

// TestJournalFileReplaceWith unit-tests the compaction primitive: contents
// replaced atomically, later appends extend the new contents, and the old
// bytes are gone from disk.
func TestJournalFileReplaceWith(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.jsonl")
	jf, err := OpenJournalFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer jf.Close()
	if _, err := jf.Write([]byte("old-1\nold-2\n")); err != nil {
		t.Fatal(err)
	}
	if err := jf.ReplaceWith([]byte("snap\n")); err != nil {
		t.Fatal(err)
	}
	if _, err := jf.Write([]byte("new-1\n")); err != nil {
		t.Fatal(err)
	}
	if err := jf.Sync(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != "snap\nnew-1\n" {
		t.Fatalf("journal contents %q, want %q", data, "snap\nnew-1\n")
	}
	// No temp litter left behind.
	entries, err := os.ReadDir(filepath.Dir(path))
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Errorf("compaction left %d files in the journal directory", len(entries))
	}
}

// TestSnapshotRestoreAllocatesVerdictsOnce: a restore from a compacted
// journal reinstates its verdicts one RestoreVerdict at a time, and the
// verdict list they land in is allocated by the first of them at the
// registered task count (an append-grown list would stop at some other
// capacity), exactly as the live path allocates it at the first
// adjudication. The restored supervisor summarizes as the live one does.
func TestSnapshotRestoreAllocatesVerdictsOnce(t *testing.T) {
	const full, partial = 20_000, 40
	live, err := NewSupervisor(SupervisorConfig{
		Plan: simplePlan(t, full+partial), Iters: 1, Seed: 9,
		Restore: bytes.NewReader(syntheticJournal(full, partial).Bytes()),
	})
	if err != nil {
		t.Fatal(err)
	}
	snap, err := live.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	restored, err := NewSupervisor(SupervisorConfig{
		Plan: simplePlan(t, full+partial), Iters: 1, Seed: 9,
		Restore: bytes.NewReader(snap),
	})
	if err != nil {
		t.Fatal(err)
	}
	for name, sup := range map[string]*Supervisor{"live": live, "restored": restored} {
		v := sup.audit.collector.Verdicts()
		if len(v) != full || cap(v) != full+partial {
			t.Errorf("%s: %d verdicts in a list of capacity %d, want %d in %d (one allocation at the registered count)",
				name, len(v), cap(v), full, full+partial)
		}
	}
	if a, b := live.Summary(), restored.Summary(); !reflect.DeepEqual(a, b) {
		t.Errorf("summaries diverge:\nlive:     %+v\nrestored: %+v", a, b)
	}
	for _, id := range []int{0, full - 1} {
		a, okA := live.CertifiedValue(id)
		b, okB := restored.CertifiedValue(id)
		if !okA || !okB || a != b {
			t.Errorf("CertifiedValue(%d): live %d %v, restored %d %v", id, a, okA, b, okB)
		}
	}
	if _, ok := restored.CertifiedValue(full); ok {
		t.Error("a task with one of its two results in has a certified value")
	}
}
