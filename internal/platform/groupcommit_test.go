package platform

import (
	"bytes"
	"encoding/json"
	"sync"
	"testing"
	"time"

	"redundancy/internal/adapt"
	"redundancy/internal/plan"
)

// cacheSimWriter models an OS page cache under a crash: Write lands in
// volatile memory, Sync copies everything written so far to the durable
// image, and Snapshot returns what a machine that lost power *right now*
// would find on disk. A test can install a gate so Sync blocks — freezing
// the committer exactly between its write and its fsync — and watch what
// the supervisor does (and must not do) in that window.
type cacheSimWriter struct {
	mu         sync.Mutex
	all        []byte        // everything written, in order
	durableLen int           // prefix of all that has been fsynced
	gate       chan struct{} // when non-nil, Sync blocks until closed
	entered    chan struct{} // receives one signal per Sync call that hits a gate
}

func (w *cacheSimWriter) Write(p []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.all = append(w.all, p...)
	return len(p), nil
}

func (w *cacheSimWriter) Sync() error {
	w.mu.Lock()
	gate, entered := w.gate, w.entered
	w.mu.Unlock()
	if gate != nil {
		if entered != nil {
			entered <- struct{}{}
		}
		<-gate
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	w.durableLen = len(w.all)
	return nil
}

// block makes the next Sync calls stall until unblock; the returned
// channel receives one value each time a Sync reaches the gate.
func (w *cacheSimWriter) block() chan struct{} {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.gate = make(chan struct{})
	w.entered = make(chan struct{}, 16)
	return w.entered
}

func (w *cacheSimWriter) unblock() {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.gate != nil {
		close(w.gate)
		w.gate = nil
		w.entered = nil
	}
}

// Snapshot is the post-crash disk image: only fsynced bytes survive.
func (w *cacheSimWriter) Snapshot() []byte {
	w.mu.Lock()
	defer w.mu.Unlock()
	return append([]byte(nil), w.all[:w.durableLen]...)
}

// TestCommitCrashBetweenWriteAndFsync pins down the committer's durability
// contract at the most dangerous instant: the commit window's bytes are
// written but the fsync has not returned. Two things must hold there.
// First, no ack may have been released — a client that saw an ack for a
// result the crash then ate would violate ack-after-fsync. Second, a crash
// in that window loses only unacked results: the durable image restores
// cleanly, and once the fsync completes and the ack is released, the
// durable image contains every acked record with no torn tail. Both verb
// pairs commit through the same window, so both are held to it.
func TestCommitCrashBetweenWriteAndFsync(t *testing.T) {
	for _, v := range bothVerbs {
		t.Run(string(v), func(t *testing.T) { testCommitCrashWindow(t, v) })
	}
}

func testCommitCrashWindow(t *testing.T, v verbs) {
	p := mustPlan(t)
	w := &cacheSimWriter{}
	sup, err := NewSupervisor(SupervisorConfig{
		Plan: p, WorkKind: "hashchain", Iters: 5, Seed: 3,
		Journal: w, JournalSync: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	addr, err := sup.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer w.unblock() // never leave the committer wedged at teardown
	t.Cleanup(func() { sup.Close() })

	_, c := dialCodec(t, dialTCP, addr)
	welcome := roundTrip(t, c, Message{Type: MsgRegister, Name: "crashprobe"})
	lease := v.lease(t, c, welcome.ParticipantID, 4)
	if lease.Type != MsgWorkBatch || len(lease.Work) == 0 {
		t.Fatalf("lease reply %+v", lease)
	}
	results := answer(t, lease, nil)

	// Freeze the disk, submit the lease, and wait until the committer is
	// provably inside the write→fsync window.
	entered := w.block()
	ackCh := make(chan []ResultAck, 1)
	go func() {
		acks, err := v.trySubmit(c, welcome.ParticipantID, results)
		if err != nil {
			t.Error(err)
		}
		ackCh <- acks
	}()
	select {
	case <-entered:
	case <-time.After(5 * time.Second):
		t.Fatal("committer never reached Sync for the submitted results")
	}

	// In the window: the records are written (volatile) but not durable,
	// and the client must still be waiting — an ack here would be a lie.
	select {
	case acks := <-ackCh:
		t.Fatalf("acks %+v released before fsync completed", acks)
	case <-time.After(300 * time.Millisecond):
	}

	// Crash now. The durable image predates the stuck window, so it holds
	// none of the submitted results — which is exactly permitted, because
	// none were acked. It must still restore cleanly, torn-tail free.
	crashed := w.Snapshot()
	sup2, err := NewSupervisor(SupervisorConfig{
		Plan: p, WorkKind: "hashchain", Iters: 5, Seed: 3,
		Restore: bytes.NewReader(crashed),
	})
	if err != nil {
		t.Fatalf("restore from mid-window crash image: %v", err)
	}
	if got := sup2.Summary().Restored; got != 0 {
		t.Errorf("mid-window crash image restored %d results; the stuck window's records leaked into durability before fsync", got)
	}
	if sup2.RestoredJournalBytes() != int64(len(crashed)) {
		t.Errorf("mid-window image has a torn tail: %d of %d bytes valid",
			sup2.RestoredJournalBytes(), len(crashed))
	}

	// Let the fsync finish; the acks must now arrive with every result
	// accepted, and the post-ack durable image must restore all of them.
	w.unblock()
	var acks []ResultAck
	select {
	case acks = <-ackCh:
	case <-time.After(5 * time.Second):
		t.Fatal("no ack after fsync completed")
	}
	for _, a := range acks {
		if !a.OK {
			t.Errorf("task %d copy %d refused: %s", a.TaskID, a.Copy, a.Reason)
		}
	}
	acked := w.Snapshot()
	sup3, err := NewSupervisor(SupervisorConfig{
		Plan: p, WorkKind: "hashchain", Iters: 5, Seed: 3,
		Restore: bytes.NewReader(acked),
	})
	if err != nil {
		t.Fatalf("restore from post-ack image: %v", err)
	}
	if got := sup3.Summary().Restored; got != len(results) {
		t.Errorf("post-ack crash image restored %d results, want all %d acked (acked result lost)", got, len(results))
	}
	if sup3.RestoredJournalBytes() != int64(len(acked)) {
		t.Errorf("post-ack image has a torn tail: %d of %d bytes valid",
			sup3.RestoredJournalBytes(), len(acked))
	}
}

// startRevising starts a supervisor journaling to jw with JournalSync on,
// whose adaptive controller revises the plan at its first tick: the
// estimator already holds evidence of a 15 % adversary share. The
// background tick is an hour away, so the test calls adaptTick itself.
func startRevising(t *testing.T, jw *cacheSimWriter) (*Supervisor, *rawWorker) {
	t.Helper()
	p, err := plan.Balanced(150, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	sup, err := NewSupervisor(SupervisorConfig{
		Plan: p, WorkKind: "hashchain", Iters: 5, Seed: 9, MaxBatch: 1 << 10,
		Journal: jw, JournalSync: true,
		Adapt: &adapt.Config{TargetEpsilon: 0.5, Interval: time.Hour, MinSamples: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	addr, err := sup.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sup.Close() })
	sup.stateMu.Lock()
	sup.audit.est.Observe(200, 30)
	sup.stateMu.Unlock()
	w := dialRaw(t, dialTCP, addr, batchVerbs, ProtoBinary)
	w.conn.SetReadDeadline(time.Now().Add(10 * time.Second)) // fail, not hang
	return sup, w
}

// within waits for ch for up to five seconds and reports whether it fired.
func within(ch <-chan struct{}) bool {
	select {
	case <-ch:
		return true
	case <-time.After(5 * time.Second):
		return false
	}
}

// tick runs one adaptTick on its own goroutine; the channel closes when it
// returns.
func tick(sup *Supervisor) <-chan struct{} {
	done := make(chan struct{})
	go func() { sup.adaptTick(); close(done) }()
	return done
}

// TestRevisionDoesNotWaitForFsync: a revision is queued with the committer
// like a result, so neither the tick nor a lease behind it waits for the
// disk. With a window frozen inside its fsync, adaptTick applies its
// revision and returns, and a get_work on the same connection is answered;
// the revision's line reaches the journal once the disk thaws.
func TestRevisionDoesNotWaitForFsync(t *testing.T) {
	jw := &cacheSimWriter{}
	defer jw.unblock() // never leave the committer wedged at teardown
	sup, w := startRevising(t, jw)
	lease := asLease(w.exchange(w.request(4)))
	entered := jw.block()
	w.send(w.submission(answer(t, lease, nil)))
	if !within(entered) {
		t.Fatal("the submission's window never reached its fsync")
	}
	if !within(tick(sup)) {
		t.Fatal("adaptTick is waiting on the frozen fsync")
	}
	if got := sup.RevisionsApplied(); got != 1 {
		t.Fatalf("%d revisions applied, want 1", got)
	}
	if next := asLease(w.exchange(w.request(4))); next.Type != MsgWorkBatch {
		t.Fatalf("reply to get_work during the frozen fsync %+v, want a lease", next)
	}
	jw.unblock()
	if ack := w.recv(); !accepted(ack) {
		t.Fatalf("ack after the thaw: %+v", ack)
	}
	sup.Close()
	if n := bytes.Count(jw.Snapshot(), []byte(`{"revision":`)); n != 1 {
		t.Errorf("%d revision lines in the journal after the thaw, want 1", n)
	}
}

// TestRevisionJournaledInApplyOrder: the committer writes a revision where
// the supervisor applied it. While one window is frozen in its fsync, a
// second submission is adjudicated, then the plan is revised, then the
// revised copies are leased and submitted. The journal must hold every
// result adjudicated before the revision ahead of its line, and every
// result for a copy it promoted or minted after it.
func TestRevisionJournaledInApplyOrder(t *testing.T) {
	jw := &cacheSimWriter{}
	defer jw.unblock() // never leave the committer wedged at teardown
	sup, w := startRevising(t, jw)
	early := answer(t, asLease(w.exchange(w.request(8))), nil)
	entered := jw.block()
	w.send(w.submission(early[:4]))
	if !within(entered) {
		t.Fatal("the first submission's window never reached its fsync")
	}
	// The lease answers a request handled after the submission in front of
	// it: once it is here, that submission is adjudicated and queued.
	w.send(w.submission(early[4:]), w.request(1))
	if m := asLease(w.recv()); m.Type != MsgWorkBatch {
		t.Fatalf("reply during the freeze %+v, want a lease", m)
	}
	if ticked := tick(sup); !within(ticked) {
		t.Error("adaptTick is waiting on the frozen fsync")
		jw.unblock()
		<-ticked
	}
	if got := sup.RevisionsApplied(); got != 1 {
		t.Fatalf("%d revisions applied, want 1", got)
	}
	// Acks only overtake the lease if the tick had to thaw the disk.
	acks := 0
	rest := asLease(w.exchange(w.request(1 << 10)))
	for ; accepted(rest); rest = asLease(w.recv()) {
		acks++
	}
	if rest.Type != MsgWorkBatch {
		t.Fatalf("lease after the revision %+v", rest)
	}
	w.send(w.submission(answer(t, rest, nil)))
	jw.unblock()
	for ; acks < 3; acks++ {
		if ack := w.recv(); !accepted(ack) {
			t.Fatalf("ack %d: %+v", acks, ack)
		}
	}

	var lines []journalLine
	for _, raw := range bytes.Split(bytes.TrimSpace(jw.Snapshot()), []byte("\n")) {
		var l journalLine
		if err := json.Unmarshal(raw, &l); err != nil {
			t.Fatalf("journal line %q: %v", raw, err)
		}
		lines = append(lines, l)
	}
	revAt := -1
	revised := map[int]bool{}
	for i, l := range lines {
		if l.Revision == nil {
			continue
		}
		if revAt >= 0 {
			t.Fatalf("second revision line at %d", i)
		}
		revAt = i
		for _, pr := range l.Revision.Promotions {
			revised[pr.TaskID] = true
		}
		for _, m := range l.Revision.Minted {
			revised[m.TaskID] = true
		}
	}
	if revAt < 0 || len(revised) == 0 {
		t.Fatalf("no revision revising any task in %d journal lines", len(lines))
	}
	adjudicated := map[[2]int]bool{}
	for _, r := range early {
		adjudicated[[2]int{r.TaskID, r.Copy}] = true
	}
	dependent := 0
	for i, l := range lines {
		if l.Revision != nil {
			continue
		}
		if adjudicated[[2]int{l.TaskID, l.Copy}] && i > revAt {
			t.Errorf("task %d copy %d, adjudicated before the revision, is journaled after it (line %d > %d)", l.TaskID, l.Copy, i, revAt)
		}
		if revised[l.TaskID] {
			dependent++
			if i < revAt {
				t.Errorf("task %d copy %d, a revised copy, is journaled ahead of the revision (line %d < %d)", l.TaskID, l.Copy, i, revAt)
			}
		}
	}
	if dependent == 0 {
		t.Error("no result for a revised copy was journaled")
	}
}
