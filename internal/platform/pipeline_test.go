package platform

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"reflect"
	"sync"
	"testing"
	"time"

	"redundancy/internal/dist"
	"redundancy/internal/obs"
	"redundancy/internal/plan"
	"redundancy/internal/sched"
)

// The tests below pin the order and the grouping of replies when a client
// pipelines its results and its next work request (PROTOCOL.md,
// "Pipelining and reply order"). They count socket calls on the
// supervisor's side of the connection and wait only on replies, never on
// the clock.

// wireLog records what the supervisor wrote to its worker connections, one
// entry per Write, and counts the Reads that delivered bytes to it.
type wireLog struct {
	mu     sync.Mutex
	writes [][]byte
	reads  int
}

func (l *wireLog) counts() (reads, writes int) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.reads, len(l.writes)
}

// since returns the writes made after the first n.
func (l *wireLog) since(n int) [][]byte {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([][]byte(nil), l.writes[n:]...)
}

// wrap is a SupervisorConfig.WrapListener: every accepted connection logs
// into l.
func (l *wireLog) wrap(ln net.Listener) net.Listener { return &loggedListener{ln, l} }

type loggedListener struct {
	net.Listener
	l *wireLog
}

func (ln *loggedListener) Accept() (net.Conn, error) {
	c, err := ln.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &loggedConn{c, ln.l}, nil
}

type loggedConn struct {
	net.Conn
	l *wireLog
}

// Read counts on return and Write logs before it writes, so by the time a
// client has read a reply, the read that delivered its request and the
// write that carried it are both on record.
func (c *loggedConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	if n > 0 {
		c.l.mu.Lock()
		c.l.reads++
		c.l.mu.Unlock()
	}
	return n, err
}

func (c *loggedConn) Write(p []byte) (int, error) {
	c.l.mu.Lock()
	c.l.writes = append(c.l.writes, append([]byte(nil), p...))
	c.l.mu.Unlock()
	return c.Conn.Write(p)
}

// startLogged starts a supervisor on n two-copy tasks (2n assignments, no
// ringers) whose connections log into the returned wireLog.
func startLogged(tb testing.TB, n int, cfg SupervisorConfig) (*Supervisor, string, *wireLog) {
	tb.Helper()
	cfg, l := loggedConfig(tb, n, cfg)
	sup, err := NewSupervisor(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	addr, err := sup.Start("127.0.0.1:0")
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { sup.Close() })
	return sup, addr, l
}

// loggedConfig is startLogged's configuration: cfg on n two-copy tasks,
// its connections logged into the returned wireLog.
func loggedConfig(tb testing.TB, n int, cfg SupervisorConfig) (SupervisorConfig, *wireLog) {
	tb.Helper()
	p, err := plan.FromDistribution(dist.Simple(float64(n)), 0.5)
	if err != nil {
		tb.Fatal(err)
	}
	l := &wireLog{}
	cfg.Plan, cfg.WorkKind, cfg.Iters, cfg.WrapListener = p, "hashchain", 4, l.wrap
	if cfg.Seed == 0 {
		cfg.Seed = 5
	}
	return cfg, l
}

// rawWorker is a hand-driven participant: a registered connection in the
// given codec, speaking the given verb pair.
type rawWorker struct {
	tb   testing.TB
	v    verbs
	conn net.Conn
	c    *Codec
	id   int
}

func dialRaw(tb testing.TB, dial func(string) (net.Conn, error), addr string, v verbs, proto string) *rawWorker {
	tb.Helper()
	conn, c := dialCodec(tb, dial, addr)
	w := &rawWorker{tb: tb, v: v, conn: conn, c: c}
	welcome := w.exchange(Message{Type: MsgRegister, Name: "raw", Proto: proto})
	if welcome.Type != MsgRegistered {
		tb.Fatalf("register: %+v", welcome)
	}
	if welcome.Proto == ProtoBinary {
		w.c.EnableBinary()
	}
	w.id = welcome.ParticipantID
	return w
}

func (w *rawWorker) recv() Message {
	w.tb.Helper()
	m, err := w.c.Recv()
	if err != nil {
		w.tb.Fatal(err)
	}
	// Binary frames alias codec scratch; the tests hold replies across
	// receives.
	m.Work = append([]WorkItem(nil), m.Work...)
	m.Acks = append([]ResultAck(nil), m.Acks...)
	return m
}

// exchange is one strict request→reply round trip.
func (w *rawWorker) exchange(m Message) Message {
	w.tb.Helper()
	if err := w.c.Send(m); err != nil {
		w.tb.Fatal(err)
	}
	return w.recv()
}

func (w *rawWorker) request(n int) Message {
	if w.v == batchVerbs {
		return Message{Type: MsgGetWork, ParticipantID: w.id, Batch: n}
	}
	return Message{Type: MsgRequestWork, ParticipantID: w.id}
}

// submission is the frame(s) returning a lease's results: one result_batch,
// or the single result a request_work lease holds.
func (w *rawWorker) submission(results []ResultItem) Message {
	if w.v == batchVerbs {
		return Message{Type: MsgResultBatch, ParticipantID: w.id, Results: results}
	}
	if len(results) != 1 {
		w.tb.Fatalf("single verbs carry one result, have %d", len(results))
	}
	r := results[0]
	return Message{Type: MsgResult, ParticipantID: w.id, TaskID: r.TaskID, Copy: r.Copy, Value: r.Value}
}

// send writes the messages in one Write.
func (w *rawWorker) send(msgs ...Message) {
	w.tb.Helper()
	for _, m := range msgs {
		if err := w.c.queue(m); err != nil {
			w.tb.Fatal(err)
		}
	}
	if err := w.c.flush(); err != nil {
		w.tb.Fatal(err)
	}
}

// asLease gives a work reply the one-item work_batch shape answer expects.
func asLease(m Message) Message {
	if m.Type == MsgWork {
		return Message{Type: MsgWorkBatch, Kind: m.Kind, Iters: m.Iters,
			Work: []WorkItem{{TaskID: m.TaskID, Copy: m.Copy, Seed: m.Seed}}}
	}
	return m
}

func accepted(m Message) bool {
	if m.Type == MsgAck {
		return true
	}
	if m.Type != MsgBatchAck || len(m.Acks) == 0 {
		return false
	}
	for _, a := range m.Acks {
		if !a.OK {
			return false
		}
	}
	return true
}

// forEachWireCase runs body over both codecs and both verb pairs, the
// table every ordering test covers.
func forEachWireCase(t *testing.T, body func(t *testing.T, v verbs, proto string)) {
	for _, proto := range []string{ProtoJSON, ProtoBinary} {
		for _, v := range bothVerbs {
			t.Run(fmt.Sprintf("%s/%s", proto, v), func(t *testing.T) { body(t, v, proto) })
		}
	}
}

// TestPipelinedCycleIsOneWrite: one client Write carrying results and the
// next work request is answered by the ack, then the lease, in exactly one
// supervisor Write (and read in one supervisor Read).
func TestPipelinedCycleIsOneWrite(t *testing.T) {
	forEachWireCase(t, func(t *testing.T, v verbs, proto string) {
		sup, addr, log := startLogged(t, 4, SupervisorConfig{})
		w := dialRaw(t, dialTCP, addr, v, proto)
		lease := asLease(w.exchange(w.request(2)))
		for cycle := 0; lease.Type == MsgWorkBatch; cycle++ {
			reads, writes := log.counts()
			w.send(w.submission(answer(t, lease, nil)), w.request(2))
			ack := w.recv()
			next := w.recv()
			if !accepted(ack) {
				t.Fatalf("cycle %d: first reply %+v, want the ack", cycle, ack)
			}
			if next.Type != MsgWork && next.Type != MsgWorkBatch && next.Type != MsgDone {
				t.Fatalf("cycle %d: second reply %+v, want the lease", cycle, next)
			}
			if r, wr := log.counts(); wr-writes != 1 || r-reads != 1 {
				t.Errorf("cycle %d: supervisor made %d writes and %d reads for one pipelined write, want 1 and 1",
					cycle, wr-writes, r-reads)
			}
			lease = asLease(next)
		}
		if lease.Type != MsgDone {
			t.Fatalf("run ended with %+v", lease)
		}
		sup.Wait()
		snap := sup.Metrics().Snapshot()
		_, writes := log.counts()
		if got, _ := snap.Value("redundancy_conn_flushes_total"); int(got) != writes {
			t.Errorf("conn_flushes_total = %v, the connection saw %d writes", got, writes)
		}
	})
}

// TestAckFlushedBeforeLeaseParks: the last ready copy is out with another
// participant, so the work request pipelined behind a result has to park.
// Its ack must not park with it — it arrives alone, at once — and the
// lease resolves when the holder submits.
func TestAckFlushedBeforeLeaseParks(t *testing.T) {
	forEachWireCase(t, func(t *testing.T, v verbs, proto string) {
		sup, addr, log := startLogged(t, 1, SupervisorConfig{})
		a := dialRaw(t, dialTCP, addr, v, proto)
		b := dialRaw(t, dialTCP, addr, v, proto)
		mine := asLease(a.exchange(a.request(1)))
		theirs := asLease(b.exchange(b.request(1)))
		if mine.Type != MsgWorkBatch || theirs.Type != MsgWorkBatch {
			t.Fatalf("leases %+v / %+v", mine, theirs)
		}
		_, writes := log.counts()
		a.send(a.submission(answer(t, mine, nil)), a.request(1))
		if ack := a.recv(); !accepted(ack) {
			t.Fatalf("reply while the lease is parked: %+v, want the ack", ack)
		}
		// The lease cannot have resolved: b still holds the only other copy.
		if _, wr := log.counts(); wr-writes != 1 {
			t.Fatalf("%d writes before the holder submitted, want the ack alone", wr-writes)
		}
		if ack := b.exchange(b.submission(answer(t, theirs, nil))); !accepted(ack) {
			t.Fatalf("holder's result: %+v", ack)
		}
		if m := a.recv(); m.Type != MsgDone {
			t.Fatalf("parked lease resolved to %+v, want done", m)
		}
		sup.Wait()
	})
}

// TestStrictClientUnaffected: a client that waits for each reply before it
// sends the next request gets every reply in a Write of its own, and the
// same replies, byte for byte, as a client that pipelines the same
// requests — pipelining changes how replies are grouped into writes and
// nothing else.
func TestStrictClientUnaffected(t *testing.T) {
	forEachWireCase(t, func(t *testing.T, v verbs, proto string) {
		run := func(pipelined bool) (writes [][]byte, replies []Message) {
			sup, addr, log := startLogged(t, 3, SupervisorConfig{})
			w := dialRaw(t, dialTCP, addr, v, proto)
			_, registered := log.counts() // the registered reply carries a random token
			lease := w.exchange(w.request(2))
			replies = append(replies, lease)
			for asLease(lease).Type == MsgWorkBatch {
				sub, req := w.submission(answer(t, asLease(lease), nil)), w.request(2)
				var ack Message
				if pipelined {
					w.send(sub, req)
					ack, lease = w.recv(), w.recv()
				} else {
					ack = w.exchange(sub)
					lease = w.exchange(req)
				}
				replies = append(replies, ack, lease)
			}
			sup.Wait()
			return log.since(registered), replies
		}
		strictWrites, strictReplies := run(false)
		pipedWrites, pipedReplies := run(true)
		if len(strictWrites) != len(strictReplies) {
			t.Errorf("strict client: %d supervisor writes for %d replies, want one each", len(strictWrites), len(strictReplies))
		}
		if last := strictReplies[len(strictReplies)-1]; last.Type != MsgDone {
			t.Errorf("strict client's last reply %+v, want done", last)
		}
		if !reflect.DeepEqual(strictReplies, pipedReplies) {
			t.Errorf("reply sequences differ:\nstrict    %+v\npipelined %+v", strictReplies, pipedReplies)
		}
		if s, p := bytes.Join(strictWrites, nil), bytes.Join(pipedWrites, nil); !bytes.Equal(s, p) {
			t.Errorf("reply bytes differ between a strict and a pipelining client:\n%q\n%q", s, p)
		}
		// First lease alone, then ack+lease together each cycle.
		if want := 1 + (len(pipedReplies)-1)/2; len(pipedWrites) != want {
			t.Errorf("pipelining client: %d supervisor writes, want %d", len(pipedWrites), want)
		}
	})
}

// TestMaxAssignmentsNeverOverLeases: the work request riding with a
// submission asks only for what MaxAssignments leaves room for, so a
// worker that stops at n was never leased an (n+1)th copy for the
// supervisor to take back.
func TestMaxAssignmentsNeverOverLeases(t *testing.T) {
	for _, proto := range []string{ProtoJSON, ProtoBinary} {
		for _, batch := range []int{1, 4} {
			t.Run(fmt.Sprintf("%s/batch-%d", proto, batch), func(t *testing.T) {
				const n = 6 // at batch 4: a lease of 4, then one of 2
				sup, addr, _ := startLogged(t, 10, SupervisorConfig{})
				st, err := RunWorker(WorkerConfig{Addr: addr, Name: "leaver", Proto: proto,
					BatchSize: batch, MaxAssignments: n})
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

// dieAfterWrite is a connection that dies right after its k-th Write has
// been delivered and answered: the Read that follows waits for the
// supervisor's reply, drops it, and fails.
type dieAfterWrite struct {
	net.Conn
	k, writes int
}

func (c *dieAfterWrite) Write(p []byte) (int, error) {
	c.writes++
	return c.Conn.Write(p)
}

func (c *dieAfterWrite) Read(p []byte) (int, error) {
	if c.writes == c.k {
		c.Conn.Read(p)
		return 0, errors.New("connection died before the reply was read")
	}
	return c.Conn.Read(p)
}

// dialDying returns a WorkerConfig.Dial whose first connection dies right
// after its k-th write was delivered and answered; then runs before the
// second dial.
func dialDying(k int, then func()) func(string) (net.Conn, error) {
	dials := 0
	return func(a string) (net.Conn, error) {
		conn, err := net.Dial("tcp", a)
		if dials++; err != nil || dials > 1 {
			if dials == 2 {
				then()
			}
			return conn, err
		}
		return &dieAfterWrite{Conn: conn, k: k}, nil
	}
}

// TestConnectionDiesAfterPipelinedWrite kills the worker's connection
// right after its first results+request write (register, first request,
// then that). The results were accepted and a new lease granted, and the
// worker saw neither reply. The resumed session resubmits the results
// (refused: they landed), and the granted lease goes exactly one way per
// copy — re-issued to the resumed identity, or reclaimed from the dead
// connection to the queue — so every assignment is credited exactly once.
func TestConnectionDiesAfterPipelinedWrite(t *testing.T) {
	for _, proto := range []string{ProtoJSON, ProtoBinary} {
		for _, batch := range []int{1, 3} {
			t.Run(fmt.Sprintf("%s/batch-%d", proto, batch), func(t *testing.T) {
				sup, addr, _ := startLogged(t, 6, SupervisorConfig{})
				total := sup.cfg.Plan.TotalAssignments()
				st, err := RunWorker(WorkerConfig{
					Addr: addr, Name: "mortal", Proto: proto, BatchSize: batch,
					Reconnect: true, Seed: 3, BackoffBase: time.Millisecond, BackoffMax: 5 * time.Millisecond,
					Dial: dialDying(3, func() {}),
				})
				if err != nil {
					t.Fatal(err)
				}
				sup.Wait()
				if st.Completed != total-batch {
					t.Errorf("worker booked %d, want %d (all but the lease whose ack died)", st.Completed, total-batch)
				}
				snap := sup.Metrics().Snapshot()
				if v, _ := snap.Value("redundancy_results_accepted_total"); int(v) != total {
					t.Errorf("accepted %v results, want exactly %d", v, total)
				}
				if v, _ := snap.Value("redundancy_results_rejected_total", ReasonUnassigned); int(v) != batch {
					t.Errorf("%v resubmitted results refused as unassigned, want %d", v, batch)
				}
				reissued, _ := snap.Value("redundancy_assignments_reissued_total")
				reclaimed, _ := snap.Value("redundancy_assignments_reclaimed_total", "disconnect")
				if int(reissued+reclaimed) != batch {
					t.Errorf("the dead request's lease of %d: %v re-issued + %v reclaimed, want each copy to go one way",
						batch, reissued, reclaimed)
				}
				credit := 0
				sum := sup.Summary()
				for _, c := range sum.Credits {
					credit += c.Credit
				}
				if credit != total || sum.WrongResults != 0 || sum.Verify.MismatchDetected != 0 {
					t.Errorf("credit %d of %d, %d wrong, %d mismatches", credit, total, sum.WrongResults, sum.Verify.MismatchDetected)
				}
			})
		}
	}
}

// TestPipelinedAckSettledBeforeLeaseRead: in binary mode a batch_ack's
// items live in codec scratch until the next Recv, and with a journal the
// ack trails the lease that was pipelined behind its results: the worker
// meets it on the way to a later lease and must settle it, against the
// submission it answers and not the one sent last, before it reads on. A
// refusal in the middle of that batch (the copy was reclaimed under the
// worker while it computed) must be booked as exactly that: every accepted
// item counted, the refused one not, the reclaimed copy redone.
func TestPipelinedAckSettledBeforeLeaseRead(t *testing.T) {
	jw := &cacheSimWriter{}
	defer jw.unblock()
	// One copy of a task out at a time, so the task the hook names is one
	// lease item.
	sup, addr, _ := startLogged(t, 6, SupervisorConfig{Deadline: time.Hour, MaxBatch: 3, Policy: sched.OneOutstanding,
		Journal: jw, JournalSync: true})
	total := sup.cfg.Plan.TotalAssignments()
	calls := 0
	st, err := RunWorker(WorkerConfig{
		Addr: addr, Name: "robbed", Proto: ProtoBinary, BatchSize: 3, Reconnect: true,
		// The hook runs on the worker's goroutine between computing an item
		// and submitting the lease. On the second of the first lease's three
		// items, reclaim that copy (copy 0, as nothing has completed, from
		// participant 0, the only one): out of the lease table, as a claim
		// takes it, and back into the queue. Then freeze the journal: the
		// first submission's ack cannot leave. On the first item of the
		// second lease (the lease overtook that ack) thaw it, so the ack
		// with the refusal in it arrives behind the second lease.
		Cheat: func(taskID int, honest uint64) uint64 {
			switch calls++; calls {
			case 2:
				sup.stateMu.Lock()
				a, _, refused, _ := sup.lease.Claim(0, taskID, 0, time.Now())
				if refused == 0 {
					sup.lease.Queue().Abandon(a)
				}
				sup.stateMu.Unlock()
				if refused != 0 {
					t.Errorf("reclaiming task %d copy 0 from participant 0: refused %d", taskID, refused)
				}
				jw.block()
			case 4:
				jw.unblock()
			}
			return honest
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	sup.Wait()
	if st.Completed != total {
		t.Errorf("worker booked %d, want %d: each accepted item once, the refused one only when redone", st.Completed, total)
	}
	snap := sup.Metrics().Snapshot()
	if v, _ := snap.Value("redundancy_results_rejected_total", ReasonUnassigned); v != 1 {
		t.Errorf("%v results refused, want the one reclaimed mid-lease", v)
	}
	if v, _ := snap.Value("redundancy_results_accepted_total"); int(v) != total {
		t.Errorf("accepted %v results, want %d", v, total)
	}
}

// TestShutdownDrainsPipelined: a result sent with the next work request
// behind it while a drain begins is acked, and Shutdown does not close the
// connection over the queued ack — busy stays raised until the flush that
// carries it.
func TestShutdownDrainsPipelined(t *testing.T) {
	forEachWireCase(t, func(t *testing.T, v verbs, proto string) {
		sup, addr, _ := startLogged(t, 4, SupervisorConfig{})
		w := dialRaw(t, dialTCP, addr, v, proto)
		lease := asLease(w.exchange(w.request(1)))
		shutdownErr := make(chan error, 1)
		go func() {
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			shutdownErr <- sup.Shutdown(ctx)
		}()
		// Every cycle's result is in flight when it lands, drain begun or
		// not, and must be acked before the connection is closed. A request
		// that beat the drain is granted a lease, which the drain then waits
		// for in turn; the first one that did not ends the exchange.
		cycles := 0
		for ; lease.Type == MsgWorkBatch; cycles++ {
			w.send(w.submission(answer(t, lease, nil)), w.request(1))
			if ack := w.recv(); !accepted(ack) {
				t.Fatalf("in-flight result during drain: %+v", ack)
			}
			lease = asLease(w.recv())
		}
		if lease.Type != MsgNoWork && lease.Type != MsgDone {
			t.Fatalf("request during drain answered %+v", lease)
		}
		if err := <-shutdownErr; err != nil {
			t.Fatalf("drained shutdown returned %v", err)
		}
		if v, _ := sup.Metrics().Snapshot().Value("redundancy_results_accepted_total"); int(v) != cycles {
			t.Errorf("accepted %v results through the drain, want %d", v, cycles)
		}
	})
}

// TestCodecQueueFlush: queued frames leave in one Write, in order, each
// counted under the codec it was framed in; Send still writes before it
// returns; an unframeable message leaves the queue as it was.
func TestCodecQueueFlush(t *testing.T) {
	var wire countingBuffer
	c := NewCodec(&wire)
	if err := c.queue(Message{Type: MsgRegistered, ParticipantID: 3, Proto: ProtoBinary}); err != nil {
		t.Fatal(err)
	}
	c.EnableBinary()
	if err := c.queue(Message{Type: MsgNoWork, Wait: 0.5}); err != nil {
		t.Fatal(err)
	}
	if wire.writes != 0 {
		t.Fatalf("queue wrote to the stream (%d writes)", wire.writes)
	}
	big := Message{Type: MsgResultBatch, Results: make([]ResultItem, maxFrame/3+1)}
	queued := len(c.out)
	if err := c.queue(big); !errors.Is(err, ErrFrameTooLong) || len(c.out) != queued {
		t.Fatalf("oversized frame: err %v, queue %d → %d bytes", err, queued, len(c.out))
	}
	if err := c.flush(); err != nil {
		t.Fatal(err)
	}
	if wire.writes != 1 || len(c.out) != 0 {
		t.Fatalf("flush made %d writes and left %d bytes queued", wire.writes, len(c.out))
	}
	jsonLen := bytes.IndexByte(wire.Bytes(), '\n') + 1
	if j, b := c.WireBytes(); int(j) != jsonLen || int(b) != wire.Len()-jsonLen {
		t.Errorf("WireBytes = (%d json, %d bin) for %d + %d bytes on the wire", j, b, jsonLen, wire.Len()-jsonLen)
	}
	if err := c.flush(); err != nil || wire.writes != 1 {
		t.Errorf("empty flush: err %v, %d writes", err, wire.writes)
	}
	if err := c.Send(Message{Type: MsgDone}); err != nil || wire.writes != 2 {
		t.Errorf("Send: err %v, %d writes, want it written on return", err, wire.writes)
	}

	r := NewCodec(&wire)
	if m, err := r.Recv(); err != nil || m.Type != MsgRegistered {
		t.Fatalf("first frame %+v, %v", m, err)
	}
	r.EnableBinary()
	for _, want := range []string{MsgNoWork, MsgDone} {
		if !r.buffered() {
			t.Errorf("buffered() = false with the %s frame read ahead", want)
		}
		if m, err := r.Recv(); err != nil || m.Type != want {
			t.Fatalf("frame %+v, %v; want %s", m, err, want)
		}
	}
	if r.buffered() {
		t.Error("buffered() = true after the last frame")
	}
}

// TestBufferedWantsWholeFrame: a frame only partly received is not a
// request waiting in the buffer — Recv would block on the rest of it — in
// either codec; once the rest is there, it is.
func TestBufferedWantsWholeFrame(t *testing.T) {
	for _, proto := range []string{ProtoJSON, ProtoBinary} {
		t.Run(proto, func(t *testing.T) {
			var frames bytes.Buffer
			enc := NewCodec(&frames)
			if proto == ProtoBinary {
				enc.EnableBinary()
			}
			for _, m := range []Message{{Type: MsgAck}, {Type: MsgGetWork, ParticipantID: 1, Batch: 4}} {
				if err := enc.Send(m); err != nil {
					t.Fatal(err)
				}
			}
			wire := frames.Bytes()
			torn := len(wire) - 3
			// One Read delivers the first frame and most of the second, the
			// next the rest.
			r := NewCodec(struct {
				io.Reader
				io.Writer
			}{io.MultiReader(bytes.NewReader(wire[:torn]), bytes.NewReader(wire[torn:])), io.Discard})
			if proto == ProtoBinary {
				r.EnableBinary()
			}
			if m, err := r.Recv(); err != nil || m.Type != MsgAck {
				t.Fatalf("first frame %+v, %v", m, err)
			}
			if r.br.Buffered() == 0 || r.buffered() {
				t.Errorf("%d bytes of a torn frame read ahead: buffered() = %v, want false", r.br.Buffered(), r.buffered())
			}
			if m, err := r.Recv(); err != nil || m.Type != MsgGetWork || m.Batch != 4 {
				t.Fatalf("second frame %+v, %v", m, err)
			}
		})
	}
}

// TestBufferedIgnoresBlankLines: Recv skips blank JSON lines and then
// blocks on the stream, so they must not count as a request waiting in the
// buffer — or a reply would be held for a request that never comes.
func TestBufferedIgnoresBlankLines(t *testing.T) {
	_, addr, _ := startLogged(t, 1, SupervisorConfig{})
	conn, c := dialCodec(t, dialTCP, addr)
	conn.SetReadDeadline(time.Now().Add(5 * time.Second)) // fail, not hang, if the reply is held
	if _, err := conn.Write([]byte("{\"type\":\"register\",\"name\":\"nc\"}\r\n\r\n\n")); err != nil {
		t.Fatal(err)
	}
	if m, err := c.Recv(); err != nil || m.Type != MsgRegistered {
		t.Fatalf("reply to a request followed by blank lines: %+v, %v", m, err)
	}
}

// TestAckNotHeldBehindTornRequest: a client whose write tore in the middle
// of the work request gets the ack for the results in front of it at once,
// not when the rest of the request arrives — with no IOTimeout that could
// be never — and the lease once it does.
func TestAckNotHeldBehindTornRequest(t *testing.T) {
	forEachWireCase(t, func(t *testing.T, v verbs, proto string) {
		_, addr, _ := startLogged(t, 4, SupervisorConfig{})
		w := dialRaw(t, dialTCP, addr, v, proto)
		lease := asLease(w.exchange(w.request(1)))
		for _, m := range []Message{w.submission(answer(t, lease, nil)), w.request(1)} {
			if err := w.c.queue(m); err != nil {
				t.Fatal(err)
			}
		}
		rest := append([]byte(nil), w.c.out[len(w.c.out)-3:]...)
		w.c.out = w.c.out[:len(w.c.out)-3]
		if err := w.c.flush(); err != nil {
			t.Fatal(err)
		}
		w.conn.SetReadDeadline(time.Now().Add(10 * time.Second)) // fail, not hang, if the ack is held
		if ack := w.recv(); !accepted(ack) {
			t.Fatalf("reply to results with a torn request behind them: %+v", ack)
		}
		if _, err := w.conn.Write(rest); err != nil {
			t.Fatal(err)
		}
		if m := asLease(w.recv()); m.Type != MsgWorkBatch {
			t.Fatalf("reply to the completed request: %+v", m)
		}
	})
}

// TestQueuedReplyFlushedBeforeCommitWait: nothing waits out a result's
// commit but its own ack. The client sends a lease's results and its next
// work request in one write while the journal's fsync is frozen: the lease
// arrives during the freeze, alone, and the durable image holds none of the
// records; the ack arrives only after the fsync returns, and then it does.
func TestQueuedReplyFlushedBeforeCommitWait(t *testing.T) {
	forEachWireCase(t, func(t *testing.T, v verbs, proto string) {
		jw := &cacheSimWriter{}
		defer jw.unblock() // never leave the committer wedged at teardown
		_, addr, log := startLogged(t, 4, SupervisorConfig{Journal: jw, JournalSync: true})
		w := dialRaw(t, dialTCP, addr, v, proto)
		lease := asLease(w.exchange(w.request(2)))
		entered := jw.block()
		_, writes := log.counts()
		w.send(w.submission(answer(t, lease, nil)), w.request(2))
		w.conn.SetReadDeadline(time.Now().Add(10 * time.Second)) // fail, not hang
		if next := asLease(w.recv()); next.Type != MsgWorkBatch {
			t.Fatalf("reply during the frozen commit: %+v, want the next lease", next)
		}
		<-entered // the committer is inside the fsync
		if _, wr := log.counts(); wr-writes != 1 {
			t.Fatalf("%d supervisor writes during the frozen commit, want the lease alone", wr-writes)
		}
		if img := jw.Snapshot(); len(img) != 0 {
			t.Fatalf("%d journal bytes durable inside the frozen fsync", len(img))
		}
		jw.unblock()
		if ack := w.recv(); !accepted(ack) {
			t.Fatalf("reply after the commit: %+v, want the ack", ack)
		}
		if img := jw.Snapshot(); bytes.Count(img, []byte("\n")) != len(lease.Work) {
			t.Errorf("ack received with %d of %d records durable", bytes.Count(img, []byte("\n")), len(lease.Work))
		}
	})
}

type countingBuffer struct {
	bytes.Buffer
	writes int
}

func (b *countingBuffer) Write(p []byte) (int, error) {
	b.writes++
	return b.Buffer.Write(p)
}

// BenchmarkLoopbackLeaseCycle is the root module's guard on the wire cost
// of one lease cycle (bench/ is a separate module the Tier-1 build does
// not see): a hand-driven worker over loopback TCP computes a lease, sends
// its results and its next request in one write, and reads the ack and the
// next lease. writes/op and reads/op are the supervisor's socket calls per
// cycle; anything but 1 and 1 fails the benchmark.
func BenchmarkLoopbackLeaseCycle(b *testing.B) {
	for _, bc := range []struct {
		name  string
		v     verbs
		proto string
		batch int
	}{
		{"json-1", singleVerbs, ProtoJSON, 1},
		{"bin-16", batchVerbs, ProtoBinary, 16},
	} {
		b.Run(bc.name, func(b *testing.B) {
			const tasks = 8192
			var (
				sup   *Supervisor
				log   *wireLog
				w     *rawWorker
				lease Message
				left  int
			)
			reset := func() {
				if sup != nil {
					sup.Close()
				}
				var addr string
				sup, addr, log = startLogged(b, tasks, SupervisorConfig{MaxBatch: bc.batch, Metrics: obs.NewRegistry()})
				w = dialRaw(b, dialTCP, addr, bc.v, bc.proto)
				lease = asLease(w.exchange(w.request(bc.batch)))
				left = 2*tasks - len(lease.Work)
			}
			reset()
			results := make([]ResultItem, 0, bc.batch)
			var reads, writes int
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if left < bc.batch {
					b.StopTimer()
					reset()
					b.StartTimer()
				}
				r0, w0 := log.counts()
				results = results[:0]
				for _, it := range lease.Work {
					results = append(results, ResultItem{TaskID: it.TaskID, Copy: it.Copy, Value: HashChain(it.Seed, lease.Iters)})
				}
				w.send(w.submission(results), w.request(bc.batch))
				if ack := w.recv(); !accepted(ack) {
					b.Fatalf("ack %+v", ack)
				}
				if lease = asLease(w.recv()); lease.Type != MsgWorkBatch {
					b.Fatalf("lease %+v", lease)
				}
				left -= len(lease.Work)
				r1, w1 := log.counts()
				reads, writes = reads+r1-r0, writes+w1-w0
			}
			b.StopTimer()
			b.ReportMetric(float64(writes)/float64(b.N), "writes/op")
			b.ReportMetric(float64(reads)/float64(b.N), "reads/op")
			if writes != b.N || reads != b.N {
				b.Errorf("%d writes and %d reads for %d cycles, want one each per cycle", writes, reads, b.N)
			}
		})
	}
}
