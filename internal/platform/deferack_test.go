package platform

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"redundancy/internal/obs"
)

// The tests below pin the deferred-ack path (PROTOCOL.md, "Pipelining and
// reply order"; DESIGN.md §11): a result's ack trails its commit and the
// next lease does not wait for it. Each freezes the journal's fsync with
// cacheSimWriter and orders itself on replies and on the committer entering
// the fsync, never on the clock. TestQueuedReplyFlushedBeforeCommitWait
// (pipeline_test.go) is the first of the family: lease during the freeze,
// ack after it.

// startFrozen starts a journaled supervisor on n two-copy tasks whose first
// fsync will block; entered receives once per Sync that reaches the gate.
func startFrozen(t *testing.T, n int, cfg SupervisorConfig) (sup *Supervisor, addr string, jw *cacheSimWriter, entered chan struct{}) {
	t.Helper()
	jw = &cacheSimWriter{}
	entered = jw.block()
	t.Cleanup(jw.unblock) // never leave the committer wedged at teardown
	cfg.Journal, cfg.JournalSync = jw, true
	sup, addr, _ = startLogged(t, n, cfg)
	return sup, addr, jw, entered
}

// creditSum is the total credit on the supervisor's ledger.
func creditSum(sup *Supervisor) int {
	n := 0
	for _, c := range sup.Summary().Credits {
		n += c.Credit
	}
	return n
}

// histogramSum returns the sum of an unlabeled histogram's observations.
func histogramSum(snap obs.Snapshot, name string) float64 {
	for _, f := range snap.Families {
		if f.Name == name && len(f.Metrics) == 1 {
			return f.Metrics[0].Sum
		}
	}
	return -1
}

// TestDeferredAcksShareOneWindow: the submissions a connection makes while
// one fsync is in flight are made durable together by the next one. The
// first submission's window freezes inside its fsync; k more submissions,
// each followed by the lease that overtook its ack, queue up behind it; on
// the thaw they land in exactly one further window, and the acks come back
// in submission order.
func TestDeferredAcksShareOneWindow(t *testing.T) {
	forEachWireCase(t, func(t *testing.T, v verbs, proto string) {
		const k = 3 // with the frozen one, well under maxDeferredAcks
		sup, addr, jw, entered := startFrozen(t, 8, SupervisorConfig{})
		w := dialRaw(t, addr, v, proto)
		w.conn.SetReadDeadline(time.Now().Add(10 * time.Second)) // fail, not hang
		lease := asLease(w.exchange(w.request(2)))
		var sent [][]ResultItem
		for i := 0; i <= k; i++ {
			results := answer(t, lease, nil)
			sent = append(sent, results)
			w.send(w.submission(results), w.request(2))
			// The lease answers a request handled after the submission in
			// front of it: once it is here, that submission is enqueued.
			if lease = asLease(w.recv()); lease.Type != MsgWorkBatch {
				t.Fatalf("submission %d: reply during the freeze %+v, want a lease", i, lease)
			}
			if i == 0 {
				<-entered // the first window is inside its fsync; the rest queue behind it
			}
		}
		snap := sup.Metrics().Snapshot()
		if commits, _ := snap.Value("redundancy_journal_group_commits_total"); commits != 0 {
			t.Fatalf("%v commit windows completed during the freeze", commits)
		}
		jw.unblock()
		records := 0
		for i, results := range sent {
			ack := w.recv()
			if !accepted(ack) {
				t.Fatalf("ack %d: %+v", i, ack)
			}
			if ack.Type == MsgBatchAck && (ack.Acks[0].TaskID != results[0].TaskID || ack.Acks[0].Copy != results[0].Copy) {
				t.Errorf("ack %d answers task %d copy %d, submission %d began with task %d copy %d",
					i, ack.Acks[0].TaskID, ack.Acks[0].Copy, i, results[0].TaskID, results[0].Copy)
			}
			records += len(results)
		}
		snap = sup.Metrics().Snapshot()
		if commits, _ := snap.Value("redundancy_journal_group_commits_total"); commits != 2 {
			t.Errorf("%v commit windows for one frozen submission and %d behind it, want 2", commits, k)
		}
		if sum := histogramSum(snap, "redundancy_journal_commit_batch_size"); int(sum) != records {
			t.Errorf("commit windows carried %v records, want %d", sum, records)
		}
		if waits, _ := snap.Value("redundancy_commit_wait_seconds"); int(waits) != k+1 {
			t.Errorf("%v commit-wait observations, want one per submission (%d)", waits, k+1)
		}
		if n := bytes.Count(jw.Snapshot(), []byte("\n")); n != records {
			t.Errorf("every ack is in and %d of %d records are durable", n, records)
		}
	})
}

// TestDeferredAckBoundStopsReading: a connection runs at most
// maxDeferredAcks commits ahead of the disk. With that many acks waiting on
// a frozen fsync the next request is not read until the oldest commit
// returns, so its reply cannot overtake that ack: every lease before the
// bound arrived ahead of all acks, the one at the bound arrives behind the
// first.
func TestDeferredAckBoundStopsReading(t *testing.T) {
	forEachWireCase(t, func(t *testing.T, v verbs, proto string) {
		_, addr, jw, entered := startFrozen(t, 2*maxDeferredAcks, SupervisorConfig{})
		w := dialRaw(t, addr, v, proto)
		w.conn.SetReadDeadline(time.Now().Add(10 * time.Second)) // fail, not hang
		lease := asLease(w.exchange(w.request(1)))
		for i := 1; i < maxDeferredAcks; i++ {
			w.send(w.submission(answer(t, lease, nil)), w.request(1))
			if lease = asLease(w.recv()); lease.Type != MsgWorkBatch {
				t.Fatalf("submission %d of %d: reply during the freeze %+v, want a lease", i, maxDeferredAcks, lease)
			}
		}
		<-entered
		// The submission that fills the ring, and a request behind it.
		w.send(w.submission(answer(t, lease, nil)), w.request(1))
		jw.unblock()
		if first := w.recv(); !accepted(first) {
			t.Fatalf("first reply after the thaw %+v: the request at the bound was read before the oldest commit returned", first)
		}
		for acks, leased := 1, false; acks < maxDeferredAcks || !leased; {
			m := w.recv()
			switch {
			case accepted(m):
				acks++
			case asLease(m).Type == MsgWorkBatch && !leased:
				leased = true // the request at the bound, answered at last
			default:
				t.Fatalf("reply %+v, want the remaining acks and one lease", m)
			}
		}
	})
}

// TestUnackedResubmittedAfterKill kills the worker's connection with four
// submissions unacked (the fsync is frozen, so none of their acks could
// leave) and thaws the disk as the worker redials. The resumed session must
// resubmit all four, oldest first; every one of them had landed, so each is
// refused as unassigned, and every assignment is credited exactly once.
func TestUnackedResubmittedAfterKill(t *testing.T) {
	for _, proto := range []string{ProtoJSON, ProtoBinary} {
		for _, batch := range []int{1, 3} {
			t.Run(fmt.Sprintf("%s/batch-%d", proto, batch), func(t *testing.T) {
				const unacked = 4
				sup, addr, jw, _ := startFrozen(t, 12, SupervisorConfig{})
				total := sup.cfg.Plan.TotalAssignments()
				st, err := RunWorker(WorkerConfig{
					Addr: addr, Name: "mortal", Proto: proto, BatchSize: batch,
					Reconnect: true, Seed: 3, BackoffBase: time.Millisecond, BackoffMax: 5 * time.Millisecond,
					// Writes: register, the first request, then one per lease.
					// The read after the last waits for the supervisor's reply
					// (the lease behind the fourth submission), so all four
					// were handled before the connection died.
					Dial: dialDying(2+unacked, jw.unblock),
				})
				if err != nil {
					t.Fatal(err)
				}
				sup.Wait()
				if want := total - unacked*batch; st.Completed != want {
					t.Errorf("worker booked %d, want %d (all but the submissions whose acks died)", st.Completed, want)
				}
				snap := sup.Metrics().Snapshot()
				if v, _ := snap.Value("redundancy_results_accepted_total"); int(v) != total {
					t.Errorf("accepted %v results, want exactly %d", v, total)
				}
				if v, _ := snap.Value("redundancy_results_rejected_total", ReasonUnassigned); int(v) != unacked*batch {
					t.Errorf("%v resubmitted results refused as unassigned, want all %d", v, unacked*batch)
				}
				sum := sup.Summary()
				if credit := creditSum(sup); credit != total || sum.WrongResults != 0 || sum.Verify.MismatchDetected != 0 {
					t.Errorf("credit %d of %d, %d wrong, %d mismatches", credit, total, sum.WrongResults, sum.Verify.MismatchDetected)
				}
			})
		}
	}
}

// TestUnackedCountTowardMaxAssignments: the work request riding with a
// submission asks only for what MaxAssignments leaves once every unacked
// submission is accepted. The fsync is frozen until the worker computes its
// last item, so every request after the first is sized with submissions
// unacked (two of them by the third), and the worker still is never leased
// an (n+1)th copy.
func TestUnackedCountTowardMaxAssignments(t *testing.T) {
	for _, proto := range []string{ProtoJSON, ProtoBinary} {
		for _, batch := range []int{1, 4} {
			t.Run(fmt.Sprintf("%s/batch-%d", proto, batch), func(t *testing.T) {
				const n = 6 // at batch 4: a lease of 4, then one of 2
				sup, addr, jw, _ := startFrozen(t, 10, SupervisorConfig{})
				calls := 0
				st, err := RunWorker(WorkerConfig{Addr: addr, Name: "leaver", Proto: proto,
					BatchSize: batch, MaxAssignments: n,
					Cheat: func(_ int, honest uint64) uint64 {
						if calls++; calls == n {
							jw.unblock()
						}
						return honest
					}})
				if err != nil {
					t.Fatal(err)
				}
				if st.Completed != n {
					t.Errorf("completed %d, want %d", st.Completed, n)
				}
				sup.Close() // returns once the departed connection has been reclaimed
				snap := sup.Metrics().Snapshot()
				if v, _ := snap.Value("redundancy_assignments_issued_total"); int(v) != n {
					t.Errorf("issued %v assignments to a worker capped at %d", v, n)
				}
				if v, _ := snap.Value("redundancy_assignments_reclaimed_total", "disconnect"); v != 0 {
					t.Errorf("%v assignments reclaimed from the departed worker, want 0", v)
				}
			})
		}
	}
}

// TestUnackedDrainedBeforeDone: done overtakes the last ack as a lease
// would, and the worker returns only once that ack is in. The journal
// freezes as the worker computes its last item, so done reaches it with the
// last submission unacked; a worker that returned on done would book that
// submission short.
func TestUnackedDrainedBeforeDone(t *testing.T) {
	for _, proto := range []string{ProtoJSON, ProtoBinary} {
		for _, batch := range []int{1, 4} {
			t.Run(fmt.Sprintf("%s/batch-%d", proto, batch), func(t *testing.T) {
				jw := &cacheSimWriter{}
				defer jw.unblock()
				sup, addr, _ := startLogged(t, 5, SupervisorConfig{Journal: jw, JournalSync: true})
				total := sup.cfg.Plan.TotalAssignments()
				calls := 0
				frozen := make(chan chan struct{}, 1)
				wreg := obs.NewRegistry()
				type outcome struct {
					st  WorkerStats
					err error
				}
				returned := make(chan outcome, 1)
				go func() {
					st, err := RunWorker(WorkerConfig{Addr: addr, Name: "finisher", Proto: proto, BatchSize: batch, Metrics: wreg,
						Cheat: func(_ int, honest uint64) uint64 {
							if calls++; calls == total {
								frozen <- jw.block()
							}
							return honest
						}})
					returned <- outcome{st, err}
				}()
				<-<-frozen // the last submission's window is inside the frozen fsync
				select {
				case out := <-returned:
					t.Fatalf("worker returned (%+v, %v) with its last ack still waiting for the disk", out.st, out.err)
				default:
				}
				jw.unblock()
				out := <-returned
				if out.err != nil {
					t.Fatal(out.err)
				}
				if out.st.Completed != total {
					t.Errorf("worker booked %d of %d", out.st.Completed, total)
				}
				// One round-trip sample per reply: registered, every lease and
				// the done, and an ack per lease.
				leases, _ := sup.Metrics().Snapshot().Value("redundancy_batches_issued_total")
				if rtts, _ := wreg.Snapshot().Value("redundancy_worker_rtt_seconds"); rtts != 2*leases+2 {
					t.Errorf("%v round-trip samples for %v leases, want %v", rtts, leases, 2*leases+2)
				}
			})
		}
	}
}

// TestSlowCommitDoesNotTripIOTimeout: while an ack of the peer's own waits
// for the disk, its silence is not a stall. A strict client whose commit
// takes four I/O timeouts is still connected when the ack arrives, and the
// clock the ack's flush starts disconnects it when it then says nothing.
func TestSlowCommitDoesNotTripIOTimeout(t *testing.T) {
	const ioTimeout = 50 * time.Millisecond
	_, addr, jw, entered := startFrozen(t, 2, SupervisorConfig{IOTimeout: ioTimeout})
	w := dialRaw(t, addr, batchVerbs, ProtoBinary)
	lease := asLease(w.exchange(w.request(1)))
	w.send(w.submission(answer(t, lease, nil)))
	<-entered
	time.Sleep(4 * ioTimeout) // the one wait on the clock: the timeout is the subject
	jw.unblock()
	if ack := w.recv(); !accepted(ack) {
		t.Fatalf("reply after a commit of four I/O timeouts: %+v", ack)
	}
	w.conn.SetReadDeadline(time.Now().Add(10 * time.Second)) // fail, not hang
	if m, err := w.c.Recv(); err == nil {
		t.Fatalf("stalled peer got %+v, want to be hung up on", m)
	}
}
