package platform

import (
	"errors"
	"fmt"
	"io"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"redundancy/internal/dist"
	"redundancy/internal/obs"
	"redundancy/internal/plan"
	"redundancy/internal/rng"
	"redundancy/internal/sched"
)

func TestFrameTooLongError(t *testing.T) {
	big := strings.Repeat("x", 2<<20) + "\n"
	c := NewCodec(struct {
		io.Reader
		io.Writer
	}{strings.NewReader(big), io.Discard})
	if _, err := c.Recv(); !errors.Is(err, ErrFrameTooLong) {
		t.Errorf("oversized frame: got %v, want ErrFrameTooLong", err)
	}
}

func TestNoWorkWaitCappedAndJittered(t *testing.T) {
	r := rng.New(1)
	for i := 0; i < 100; i++ {
		if d := noWorkDelay(1000, r); d < 2500*time.Millisecond || d >= 7500*time.Millisecond {
			t.Fatalf("absurd wait not capped: slept %v", d)
		}
		if d := noWorkDelay(0.05, r); d < 25*time.Millisecond || d >= 75*time.Millisecond {
			t.Fatalf("wait=0.05 jittered to %v, want [25ms,75ms)", d)
		}
	}
	if d := noWorkDelay(0, r); d != 0 {
		t.Errorf("wait=0 slept %v", d)
	}
}

func TestReconnectDelayBackoff(t *testing.T) {
	r := rng.New(2)
	base, max := 50*time.Millisecond, 5*time.Second
	prevCeil := time.Duration(0)
	for attempt := 1; attempt <= 10; attempt++ {
		d := reconnectDelay(attempt, WorkerConfig{BackoffBase: base, BackoffMax: max}, r)
		ideal := base << (attempt - 1)
		if ideal > max || ideal <= 0 {
			ideal = max
		}
		if d < ideal/2 || d >= ideal+ideal/2 {
			t.Errorf("attempt %d: delay %v outside [%v, %v)", attempt, d, ideal/2, ideal+ideal/2)
		}
		if ceil := ideal + ideal/2; ceil < prevCeil {
			t.Errorf("attempt %d: backoff ceiling shrank", attempt)
		} else {
			prevCeil = ceil
		}
	}
}

// dialTCP is the dial of the tests that run on the wall clock over loopback
// TCP; the tests in vtime_test.go dial their bubble's in-memory network.
func dialTCP(addr string) (net.Conn, error) { return net.Dial("tcp", addr) }

// dialCodec opens a raw protocol connection for tests that drive the wire
// by hand.
func dialCodec(t testing.TB, dial func(string) (net.Conn, error), addr string) (net.Conn, *Codec) {
	t.Helper()
	conn, err := dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	return conn, NewCodec(conn)
}

func roundTrip(t *testing.T, c *Codec, m Message) Message {
	t.Helper()
	if err := c.Send(m); err != nil {
		t.Fatal(err)
	}
	reply, err := c.Recv()
	if err != nil {
		t.Fatal(err)
	}
	return reply
}

// verbs names the wire verb pair a hand-driven participant speaks — the
// table input that runs one test body over both edges of the lease core.
// lease and submit hide the reply shapes, so the body reads the same.
type verbs string

const (
	batchVerbs  verbs = "batch-verbs"  // get_work / result_batch
	singleVerbs verbs = "single-verbs" // request_work / result
)

var bothVerbs = []verbs{batchVerbs, singleVerbs}

// lease asks for up to n assignments (request_work has no size: one).
// A work reply comes back as the one-item work_batch it is served as;
// every other reply is returned as received.
func (v verbs) lease(t *testing.T, c *Codec, id, n int) Message {
	t.Helper()
	if v == batchVerbs {
		return roundTrip(t, c, Message{Type: MsgGetWork, ParticipantID: id, Batch: n})
	}
	return asLease(roundTrip(t, c, Message{Type: MsgRequestWork, ParticipantID: id}))
}

// submit returns results — one result_batch, or one result message each —
// and reports the per-item acks in the batch shape.
func (v verbs) submit(t *testing.T, c *Codec, id int, results []ResultItem) []ResultAck {
	t.Helper()
	acks, err := v.trySubmit(c, id, results)
	if err != nil {
		t.Fatal(err)
	}
	return acks
}

// trySubmit is submit for goroutines that may not call t.Fatal.
func (v verbs) trySubmit(c *Codec, id int, results []ResultItem) ([]ResultAck, error) {
	exchange := func(m Message) (Message, error) {
		if err := c.Send(m); err != nil {
			return Message{}, err
		}
		return c.Recv()
	}
	if v == batchVerbs {
		ack, err := exchange(Message{Type: MsgResultBatch, ParticipantID: id, Results: results})
		if err == nil && (ack.Type != MsgBatchAck || len(ack.Acks) != len(results)) {
			err = fmt.Errorf("batch ack %+v for %d results", ack, len(results))
		}
		return ack.Acks, err
	}
	acks := make([]ResultAck, 0, len(results))
	for _, r := range results {
		m, err := exchange(Message{Type: MsgResult, ParticipantID: id,
			TaskID: r.TaskID, Copy: r.Copy, Value: r.Value})
		if err == nil && m.Type != MsgAck && m.Type != MsgError {
			err = fmt.Errorf("result reply %+v", m)
		}
		if err != nil {
			return acks, err
		}
		acks = append(acks, ResultAck{TaskID: r.TaskID, Copy: r.Copy,
			OK: m.Type == MsgAck, Reason: m.Reason, Error: m.Error})
	}
	return acks, nil
}

// answer computes what a participant running cheat (nil: honest) returns
// for a lease.
func answer(t *testing.T, lease Message, cheat CheatFunc) []ResultItem {
	t.Helper()
	fn, err := Work(lease.Kind)
	if err != nil {
		t.Fatal(err)
	}
	results := make([]ResultItem, 0, len(lease.Work))
	for _, w := range lease.Work {
		v := fn(w.Seed, lease.Iters)
		if cheat != nil {
			v = cheat(w.TaskID, v)
		}
		results = append(results, ResultItem{TaskID: w.TaskID, Copy: w.Copy, Value: v})
	}
	return results
}

// driveRoundRobin registers one participant per cheat function (nil:
// honest), each on its own connection from dial, and runs the computation
// from this goroutine alone; see drainRoundRobin.
func driveRoundRobin(t *testing.T, v verbs, dial func(string) (net.Conn, error), addr string, n int, cheats ...CheatFunc) {
	t.Helper()
	codecs := make([]*Codec, len(cheats))
	ids := make([]int, len(cheats))
	for i := range cheats {
		_, codecs[i] = dialCodec(t, dial, addr)
		w := roundTrip(t, codecs[i], Message{Type: MsgRegister, Name: fmt.Sprintf("p%d", i)})
		if w.Type != MsgRegistered {
			t.Fatalf("register p%d: %+v", i, w)
		}
		ids[i] = w.ParticipantID
	}
	drainRoundRobin(t, v, n, codecs, ids, cheats)
}

// drainRoundRobin has the registered participants take turns leasing up to
// n assignments and returning them, in slice order, until each has been
// told done or been refused as blacklisted. Nothing races, so a seeded
// supervisor deals every run the same copies to the same participants in
// the same order.
func drainRoundRobin(t *testing.T, v verbs, n int, codecs []*Codec, ids []int, cheats []CheatFunc) {
	t.Helper()
	codecs = append([]*Codec(nil), codecs...)
	for active := len(codecs); active > 0; {
		for i, c := range codecs {
			if c == nil {
				continue
			}
			m := v.lease(t, c, ids[i], n)
			switch {
			case m.Type == MsgWorkBatch:
				for _, a := range v.submit(t, c, ids[i], answer(t, m, cheats[i])) {
					if !a.OK {
						t.Fatalf("p%d: task %d copy %d refused: %s", i, a.TaskID, a.Copy, a.Reason)
					}
				}
			case m.Type == MsgDone, m.Type == MsgError && m.Reason == ReasonBlacklisted:
				codecs[i] = nil
				active--
			default:
				t.Fatalf("p%d: unexpected lease reply %+v", i, m)
			}
		}
	}
}

// TestWorkerReconnectsAndResumes walks the resume protocol by hand: an
// identity registered on one connection is re-attached on a second (token
// in hand) while the first is still open — the half-open-connection case —
// and the in-flight assignment follows it there.
func TestWorkerReconnectsAndResumes(t *testing.T) {
	p, err := plan.FromDistribution(dist.Simple(10), 0.5)
	if err != nil {
		t.Fatal(err)
	}
	sup, addr := startSupervisor(t, p, sched.Free)

	_, c1 := dialCodec(t, dialTCP, addr)
	welcome := roundTrip(t, c1, Message{Type: MsgRegister, Name: "ghost"})
	if welcome.Type != MsgRegistered || welcome.Token == 0 {
		t.Fatalf("registration reply %+v (token must be minted)", welcome)
	}
	id, token := welcome.ParticipantID, welcome.Token
	work := roundTrip(t, c1, Message{Type: MsgRequestWork, ParticipantID: id})
	if work.Type != MsgWork {
		t.Fatalf("work reply %+v", work)
	}

	// An impostor who knows the ID but not the token is turned away.
	_, cBad := dialCodec(t, dialTCP, addr)
	refuse := roundTrip(t, cBad, Message{Type: MsgRegister, Resume: true, ParticipantID: id, Token: token + 1})
	if refuse.Type != MsgError || refuse.Reason != ReasonResumeRefused {
		t.Fatalf("bad-token resume got %+v, want %s", refuse, ReasonResumeRefused)
	}

	// The real worker resumes on a fresh connection (the old one may be
	// half-open for minutes) and is handed the same assignment back.
	_, c2 := dialCodec(t, dialTCP, addr)
	back := roundTrip(t, c2, Message{Type: MsgRegister, Resume: true, ParticipantID: id, Token: token})
	if back.Type != MsgRegistered || back.ParticipantID != id {
		t.Fatalf("resume reply %+v", back)
	}
	again := roundTrip(t, c2, Message{Type: MsgRequestWork, ParticipantID: id})
	if again.Type != MsgWork || again.TaskID != work.TaskID || again.Copy != work.Copy {
		t.Fatalf("reissued %+v, want task %d copy %d back", again, work.TaskID, work.Copy)
	}

	// Completing it on the new connection is an ordinary acceptance.
	fn, err := Work(again.Kind)
	if err != nil {
		t.Fatal(err)
	}
	ack := roundTrip(t, c2, Message{
		Type: MsgResult, ParticipantID: id, TaskID: again.TaskID, Copy: again.Copy,
		Value: fn(again.Seed, again.Iters),
	})
	if ack.Type != MsgAck {
		t.Fatalf("result on resumed connection: %+v", ack)
	}

	snap := sup.Metrics().Snapshot()
	if v, _ := snap.Value("redundancy_workers_resumed_total"); v != 1 {
		t.Errorf("workers_resumed = %v, want 1", v)
	}
	if v, _ := snap.Value("redundancy_assignments_reissued_total"); v != 1 {
		t.Errorf("assignments_reissued = %v, want 1", v)
	}
}

// flakyDialer returns conns whose writeToFail-th Write fails without
// delivering a byte, killing the connection — the crash window between a
// worker computing a result and its submission landing.
type flakyDialer struct {
	mu          sync.Mutex
	dials       int
	writeToFail int // fail this (1-based) write of the first conn; 0 = never
}

type flakyConn struct {
	net.Conn
	d      *flakyDialer
	writes int
	arm    bool
}

func (d *flakyDialer) dial(addr string) (net.Conn, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	d.mu.Lock()
	d.dials++
	first := d.dials == 1
	d.mu.Unlock()
	return &flakyConn{Conn: conn, d: d, arm: first && d.writeToFail > 0}, nil
}

func (c *flakyConn) Write(p []byte) (int, error) {
	c.writes++
	if c.arm && c.writes == c.d.writeToFail {
		c.Conn.Close()
		return 0, errors.New("flaky: connection died before the frame left")
	}
	return c.Conn.Write(p)
}

// TestWorkerResubmitsPendingResult kills the worker's connection exactly at
// the result submission (the third frame: register, lease, results). The
// reconnect logic must resume the identity and resubmit, and the work must
// be accepted exactly once — one result over the single verbs, a whole
// lease over the batch verbs.
func TestWorkerResubmitsPendingResult(t *testing.T) {
	for _, batch := range []int{1, 4} {
		t.Run(fmt.Sprintf("batch-%d", batch), func(t *testing.T) {
			p, err := plan.FromDistribution(dist.Simple(6), 0.5)
			if err != nil {
				t.Fatal(err)
			}
			reg := obs.NewRegistry()
			sup, err := NewSupervisor(SupervisorConfig{
				Plan: p, WorkKind: "hashchain", Iters: 10, Seed: 3, Metrics: reg,
			})
			if err != nil {
				t.Fatal(err)
			}
			addr, err := sup.Start("127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { sup.Close() })

			d := &flakyDialer{writeToFail: 3}
			wreg := obs.NewRegistry()
			st, err := RunWorker(WorkerConfig{
				Addr: addr, Name: "flaky", Reconnect: true, Seed: 11, BatchSize: batch,
				BackoffBase: time.Millisecond, BackoffMax: 10 * time.Millisecond,
				Dial: d.dial, Metrics: wreg,
			})
			if err != nil {
				t.Fatalf("worker did not survive the torn submission: %v", err)
			}
			sup.Wait()
			sum := sup.Summary()
			total := p.TotalAssignments()
			if st.Completed != total {
				t.Errorf("worker completed %d, want %d (resubmitted results must be acked)", st.Completed, total)
			}
			if sum.Verify.MismatchDetected != 0 || sum.WrongResults != 0 {
				t.Errorf("resubmission corrupted state: %+v wrong=%d", sum.Verify, sum.WrongResults)
			}
			snap := reg.Snapshot()
			if v, _ := snap.Value("redundancy_results_accepted_total"); int(v) != total {
				t.Errorf("accepted %v results, want exactly %d (no double acceptance)", v, total)
			}
			if v, _ := snap.Value("redundancy_workers_resumed_total"); v != 1 {
				t.Errorf("workers_resumed = %v, want 1", v)
			}
			if v, _ := wreg.Snapshot().Value("redundancy_worker_reconnects_total"); v != 1 {
				t.Errorf("worker_reconnects = %v, want 1", v)
			}
		})
	}
}
