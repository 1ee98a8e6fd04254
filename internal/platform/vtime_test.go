//go:build goexperiment.synctest

// go.mod says go 1.22, whose timer channels synctest.Run refuses.
//go:debug asynctimerchan=0

package platform

// The tests in this file run the real supervisor and real workers inside
// testing/synctest bubbles, over vnet, an in-memory network: every clock
// they read and every sleep, timer, deadline and ticker is the bubble's
// virtual clock, which jumps ahead whenever every goroutine in the bubble is
// blocked. A test that waits out a 400 ms probation or a 2 s IOTimeout takes
// microseconds, and one that waited for "at least N within T" calls
// synctest.Wait and asserts exactly N. DESIGN.md §8 has the rules they keep.
//
// They need GOEXPERIMENT=synctest (go1.24). Under a plain build each one
// keeps its name in vtime_plain_test.go and reports a child run of this
// file, so `go test ./...` runs them.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"syscall"
	"testing"
	"testing/synctest"
	"time"

	"redundancy/internal/adapt"
	"redundancy/internal/dist"
	"redundancy/internal/faults"
	"redundancy/internal/health"
	"redundancy/internal/obs"
	"redundancy/internal/plan"
	"redundancy/internal/rng"
	"redundancy/internal/sched"
)

// sendBuffer bounds the bytes one connection end holds written but not yet
// taken by the pipe, as a socket's send buffer does.
const sendBuffer = 64 << 10

// vnet is one bubble's network. listen is a SupervisorConfig.WrapListener
// that stands a pipe listener in for the TCP listener Start opened, at its
// address (the TCP listener keeps the port until the pipe listener closes);
// dial connects to it and serves as WorkerConfig.Dial and as dialCodec's
// and dialRaw's dial. Every connection end is a bufConn.
type vnet struct {
	mu      sync.Mutex
	lns     map[string]*pipeListener
	clients []net.Conn
	sups    []*Supervisor
	fleets  []*fleet
	inj     *faults.Injector // see faulty; nil for a clean network
	drops   *rng.Source      // draws inj's dial drops
	dropped uint64           // dial drops drawn so far
}

// bubble runs body on a fresh vnet in a synctest bubble. It closes every
// client end the body dialed, then every supervisor it owns, then halts its
// fleets and closes the ends they dialed meanwhile, inside the bubble: a
// t.Cleanup runs after synctest.Run returns, where touching a bubble's
// channel panics, and a supervisor left open keeps its tickers, so Run
// would never return. In go1.24 Run's return does not order memory
// either, so a body asserts what it found before it returns. The body runs
// on the bubble's root goroutine: t.Fatal there ends it, and the deferred
// close still runs.
func bubble(t *testing.T, body func(n *vnet)) {
	t.Helper()
	synctest.Run(func() {
		n := &vnet{lns: make(map[string]*pipeListener)}
		defer n.close()
		body(n)
	})
}

func (n *vnet) close() {
	n.closeClients()
	n.mu.Lock()
	sups, fleets := n.sups, n.fleets
	n.mu.Unlock()
	for _, s := range sups {
		s.Close()
	}
	for _, f := range fleets {
		f.halt()
	}
	n.closeClients()
}

func (n *vnet) closeClients() {
	n.mu.Lock()
	clients := n.clients
	n.mu.Unlock()
	for _, c := range clients {
		c.Close()
	}
}

// own has the bubble close sup.
func (n *vnet) own(sup *Supervisor) {
	n.mu.Lock()
	n.sups = append(n.sups, sup)
	n.mu.Unlock()
}

// start starts a supervisor on cfg at a fresh address of this network,
// beneath any WrapListener cfg has, and has the bubble close it.
func (n *vnet) start(t *testing.T, cfg SupervisorConfig) (*Supervisor, string) {
	t.Helper()
	if wrap := cfg.WrapListener; wrap != nil {
		cfg.WrapListener = func(ln net.Listener) net.Listener { return wrap(n.listen(ln)) }
	} else {
		cfg.WrapListener = n.listen
	}
	sup, err := NewSupervisor(cfg)
	if err != nil {
		t.Fatal(err)
	}
	n.own(sup)
	addr, err := sup.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	return sup, addr
}

func (n *vnet) listen(ln net.Listener) net.Listener {
	l := &pipeListener{Listener: ln, n: n, conns: make(chan net.Conn), done: make(chan struct{})}
	n.mu.Lock()
	n.lns[ln.Addr().String()] = l
	n.mu.Unlock()
	return l
}

// faulty injects inj's faults into every connection dialed from here on:
// both pipe ends are wrapped beneath their send buffers (rule 2), and a
// dial is refused with inj's DialDrop probability, drawn from a stream
// seeded by inj's seed. The supervisor then takes no WrapListener of the
// injector's: its faultConn would sit above the buffer.
func (n *vnet) faulty(inj *faults.Injector) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.inj, n.drops = inj, rng.New(inj.Config().Seed)
}

var errRefused = &net.OpError{Op: "dial", Net: "pipe", Err: syscall.ECONNREFUSED}

func (n *vnet) dial(addr string) (net.Conn, error) {
	n.mu.Lock()
	l, inj := n.lns[addr], n.inj
	drop := inj != nil && n.drops.Bernoulli(inj.Config().DialDrop)
	if drop {
		n.dropped++
	}
	n.mu.Unlock()
	if drop {
		return nil, fmt.Errorf("vnet: dial drop to %s: %w", addr, faults.ErrInjected)
	}
	if l == nil {
		return nil, errRefused
	}
	var c, s net.Conn = net.Pipe()
	if inj != nil {
		c, s = inj.Wrap(c), inj.Wrap(s)
	}
	client, server := newBufConn(c), newBufConn(s)
	client.peer, server.peer = server, client
	select {
	case l.conns <- server:
	case <-l.done:
		client.Close()
		server.Close()
		return nil, errRefused
	}
	n.mu.Lock()
	n.clients = append(n.clients, client)
	n.mu.Unlock()
	return client, nil
}

type pipeListener struct {
	net.Listener // the TCP listener Start opened: it holds the address and never accepts
	n            *vnet
	conns        chan net.Conn
	done         chan struct{}
	once         sync.Once
}

func (l *pipeListener) Accept() (net.Conn, error) {
	select {
	case c := <-l.conns:
		return c, nil
	case <-l.done:
		return nil, net.ErrClosed
	}
}

func (l *pipeListener) Close() error {
	err := net.ErrClosed
	l.once.Do(func() {
		close(l.done)
		addr := l.Addr().String()
		l.n.mu.Lock()
		if l.n.lns[addr] == l {
			delete(l.n.lns, addr)
		}
		l.n.mu.Unlock()
		err = l.Listener.Close()
	})
	return err
}

// bufConn is one end of a vnet connection: a net.Pipe end behind a bounded
// send buffer. Write returns once its bytes are buffered, and a pump
// goroutine feeds them to the pipe, so a writer blocks only on a full
// buffer, until its write deadline, and a dropped connection surfaces on a
// later call, as on TCP. A bare pipe would block a writer until the peer
// read, and one blocked holding a mutex stops the bubble's clock: a mutex
// wait is not durably blocked. Read, the read deadline and the addresses
// are the pipe's.
//
// Close is TCP's: a Read or Write here fails at once, and what is still
// buffered reaches a peer that reads it, then EOF. A peer with bytes on
// their way here, at Close or after it, resets the connection instead, as
// a TCP RST: what is buffered on either end is dropped. After the first
// call Close touches nothing, so a t.Cleanup may repeat it outside the
// bubble.
type bufConn struct {
	net.Conn
	peer *bufConn // the other end; nil for an end over a bare pipe

	mu      sync.Mutex
	buf     []byte    // written, not yet taken by the pump
	sending bool      // the pump holds bytes its pipe write has not delivered
	closing bool      // Close was called; the pump closes the pipe once buf is delivered
	err     error     // sticky: reset here, or the pump's write failed
	wdl     time.Time // write deadline
	data    chan struct{}
	space   chan struct{}
	dead    chan struct{} // closed when err is set
}

func newBufConn(c net.Conn) *bufConn {
	b := &bufConn{Conn: c, data: make(chan struct{}, 1), space: make(chan struct{}, 1), dead: make(chan struct{})}
	go b.pump()
	return b
}

func (b *bufConn) Write(p []byte) (int, error) {
	if b.peer != nil {
		b.peer.resetIfClosing() // before b.mu: no end's lock is held with the other's
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	for {
		if b.err != nil {
			return 0, b.err
		}
		if b.closing {
			return 0, net.ErrClosed
		}
		if !b.wdl.IsZero() && !time.Now().Before(b.wdl) {
			return 0, os.ErrDeadlineExceeded
		}
		if len(b.buf) < sendBuffer {
			break
		}
		timer := time.NewTimer(time.Until(b.wdl))
		if b.wdl.IsZero() {
			timer.Stop() // no deadline: its channel never fires
		}
		b.mu.Unlock()
		select {
		case <-b.space:
		case <-b.dead:
		case <-timer.C:
		}
		timer.Stop()
		b.mu.Lock()
	}
	b.buf = append(b.buf, p...)
	signal(b.data)
	return len(p), nil
}

func (b *bufConn) pump() {
	for {
		b.mu.Lock()
		chunk, err, closing := b.buf, b.err, b.closing
		b.buf, b.sending = nil, len(chunk) > 0
		b.mu.Unlock()
		if err != nil {
			return
		}
		if len(chunk) == 0 {
			if closing {
				b.Conn.Close() // all delivered: the peer reads EOF next
				return
			}
			select {
			case <-b.data:
			case <-b.dead:
			}
			continue
		}
		signal(b.space)
		if _, err := b.Conn.Write(chunk); err != nil {
			b.fail(err)
			return
		}
	}
}

func (b *bufConn) fail(err error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.err == nil {
		b.err = err
		close(b.dead)
	}
}

func (b *bufConn) Close() error {
	b.mu.Lock()
	if b.closing {
		b.mu.Unlock()
		return net.ErrClosed
	}
	b.closing = true
	flushing := b.err == nil && (len(b.buf) > 0 || b.sending)
	signal(b.data)
	signal(b.space)
	b.mu.Unlock()
	if flushing && !b.peer.hasOutbound() {
		return b.Conn.SetReadDeadline(time.Unix(1, 0)) // ends a Read here; the pump closes the pipe
	}
	b.reset()
	return nil
}

// reset drops both directions at once, as a TCP RST.
func (b *bufConn) reset() {
	b.fail(net.ErrClosed)
	b.Conn.Close()
}

func (b *bufConn) resetIfClosing() {
	if b.closed() {
		b.reset()
	}
}

// hasOutbound reports whether b has bytes buffered or in a pipe write.
func (b *bufConn) hasOutbound() bool {
	if b == nil {
		return false
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	return len(b.buf) > 0 || b.sending
}

func (b *bufConn) Read(p []byte) (int, error) {
	n, err := b.Conn.Read(p)
	if err != nil && b.closed() {
		err = net.ErrClosed
	}
	return n, err
}

func (b *bufConn) closed() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.closing
}

func (b *bufConn) SetReadDeadline(t time.Time) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closing {
		return net.ErrClosed // keep the deadline Close set
	}
	return b.Conn.SetReadDeadline(t)
}

func (b *bufConn) SetWriteDeadline(t time.Time) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.wdl = t
	return nil
}

func (b *bufConn) SetDeadline(t time.Time) error {
	b.SetWriteDeadline(t)
	return b.SetReadDeadline(t)
}

// TestBufConnWriteDeadline: a Write to a full send buffer waits for space
// until its write deadline, then fails with a timeout, at the deadline.
func TestBufConnWriteDeadline(t *testing.T) {
	bubble(t, func(n *vnet) {
		a, peer := net.Pipe()
		defer peer.Close()
		c := newBufConn(a)
		defer c.Close()
		chunk := make([]byte, sendBuffer)
		for i := 0; i < 2; i++ { // the pump holds the first in its pipe write, the buffer the second
			if _, err := c.Write(chunk); err != nil {
				t.Fatalf("write %d: %v", i, err)
			}
			synctest.Wait()
		}
		start := time.Now()
		c.SetWriteDeadline(start.Add(time.Second))
		_, err := c.Write([]byte{1})
		if !errors.Is(err, os.ErrDeadlineExceeded) {
			t.Fatalf("write to a full buffer: %v, want a timeout", err)
		}
		if ne, ok := err.(net.Error); !ok || !ne.Timeout() {
			t.Errorf("%v is not a net.Error timeout", err)
		}
		if waited := time.Since(start); waited != time.Second {
			t.Errorf("write failed after %v, want at its deadline (1s)", waited)
		}
	})
}

// TestBufConnCloseUnblocks: Close ends a Write blocked on a full buffer and
// a Read blocked on an empty pipe.
func TestBufConnCloseUnblocks(t *testing.T) {
	bubble(t, func(n *vnet) {
		a, peer := net.Pipe()
		defer peer.Close()
		c := newBufConn(a)
		chunk := make([]byte, sendBuffer)
		for i := 0; i < 2; i++ {
			c.Write(chunk)
			synctest.Wait()
		}
		errs := make(chan error, 2)
		go func() { _, err := c.Write([]byte{1}); errs <- err }()
		go func() { _, err := c.Read(make([]byte, 1)); errs <- err }()
		synctest.Wait()
		select {
		case err := <-errs:
			t.Fatalf("an op returned (%v) before Close", err)
		default:
		}
		c.Close()
		for i := 0; i < 2; i++ {
			if err := <-errs; err == nil {
				t.Error("an op blocked across Close returned no error")
			}
		}
	})
}

// TestVirtualTimeIsDeterministic: the same seeded scenario, run twice, ends
// at the same virtual instant.
func TestVirtualTimeIsDeterministic(t *testing.T) {
	var ends [2]time.Duration
	for i := range ends {
		took := make(chan time.Duration, 1)
		bubble(t, func(n *vnet) { took <- disconnectDeadlineReclaimOverlap(t, n) })
		select {
		case ends[i] = <-took:
		default:
			return // the scenario failed and said why
		}
	}
	if ends[0] != ends[1] {
		t.Errorf("two runs of one scenario ended at %v and %v of virtual time", ends[0], ends[1])
	}
	t.Logf("scenario ends at %v of virtual time", ends[0])
}

// metricValue reads the named series from reg's current snapshot (0 when
// absent).
func metricValue(reg *obs.Registry, name string, labels ...string) float64 {
	v, _ := reg.Snapshot().Value(name, labels...)
	return v
}

// honestValue computes the true answer for a task the way a worker would.
func honestValue(t *testing.T, kind string, taskID, iters int) uint64 {
	t.Helper()
	fn, err := Work(kind)
	if err != nil {
		t.Fatal(err)
	}
	return fn(TaskSeed(taskID), iters)
}

// TestSpeculativeFirstResultWins drives the speculative tier by hand: a
// straggler leases one copy and sits on it, a fast participant completes
// everything else (feeding the latency roster), the sweeper flags the
// stuck lease, the fast participant receives the clone and wins the race,
// and the straggler's eventual submission is rejected as a duplicate —
// credited exactly once, end to end. The clone is served by the lease
// core, so a request_work requester wins it exactly as a get_work one.
func TestSpeculativeFirstResultWins(t *testing.T) {
	for _, v := range bothVerbs {
		t.Run(string(v), func(t *testing.T) {
			bubble(t, func(n *vnet) { testSpeculativeFirstResultWins(t, n, v) })
		})
	}
}

func testSpeculativeFirstResultWins(t *testing.T, n *vnet, v verbs) {
	p, err := plan.FromDistribution(dist.Simple(40), 0.5)
	if err != nil {
		t.Fatal(err)
	}
	var events syncBuffer // read while the supervisor can still emit (worker_left at cleanup)
	reg := obs.NewRegistry()
	sup, addr := n.start(t, SupervisorConfig{
		Plan: p, WorkKind: "hashchain", Iters: 10, Seed: 3,
		Deadline: 4 * time.Second, SpeculatePct: 0.9,
		Metrics: reg, Events: obs.NewSink(&events),
	})

	// The straggler leases one copy and goes quiet.
	_, slow := dialCodec(t, n.dial, addr)
	w1 := roundTrip(t, slow, Message{Type: MsgRegister, Name: "straggler"})
	if w1.Type != MsgRegistered {
		t.Fatalf("register: %+v", w1)
	}
	slowID := w1.ParticipantID
	lease := v.lease(t, slow, slowID, 1)
	if lease.Type != MsgWorkBatch || len(lease.Work) != 1 {
		t.Fatalf("lease: %+v", lease)
	}
	stuck := lease.Work[0]

	// The fast participant drains the pool, populating the
	// completion-latency sample window past MinLatencySamples. Once the
	// sweeper flags the straggler's lease, a lease will carry the
	// speculative clone of exactly that stuck copy — parked requests wake
	// on the flagging sweep, so the clone simply shows up inside the
	// ordinary lease loop.
	_, fast := dialCodec(t, n.dial, addr)
	w2 := roundTrip(t, fast, Message{Type: MsgRegister, Name: "fast"})
	fastID := w2.ParticipantID
	completed := 0
	var clone *WorkItem
	deadline := time.Now().Add(30 * time.Second)
	for clone == nil {
		if time.Now().After(deadline) {
			t.Fatalf("speculative clone never issued (completed %d, spec metric %v)",
				completed, metricValue(reg, "redundancy_speculative_issued_total"))
		}
		m := v.lease(t, fast, fastID, 8)
		if m.Type != MsgWorkBatch {
			time.Sleep(10 * time.Millisecond)
			continue
		}
		results := make([]ResultItem, 0, len(m.Work))
		for _, it := range m.Work {
			it := it
			if it.TaskID == stuck.TaskID && it.Copy == stuck.Copy {
				clone = &it // the speculative duplicate of the stuck lease
				continue
			}
			results = append(results, ResultItem{
				TaskID: it.TaskID, Copy: it.Copy,
				Value: honestValue(t, m.Kind, it.TaskID, m.Iters),
			})
		}
		if len(results) == 0 {
			continue // the lease was the clone alone
		}
		for _, a := range v.submit(t, fast, fastID, results) {
			if !a.OK {
				t.Fatalf("fast result refused: %+v", a)
			}
			completed++
		}
	}
	if completed < 20 {
		t.Fatalf("clone issued after only %d completions; the quantile gate should need 20 samples", completed)
	}
	if got := metricValue(reg, "redundancy_speculative_issued_total"); got != 1 {
		t.Errorf("speculative_issued = %v, want 1", got)
	}

	// The clone wins the race...
	if ack := v.submit(t, fast, fastID, []ResultItem{{
		TaskID: clone.TaskID, Copy: clone.Copy,
		Value: honestValue(t, "hashchain", clone.TaskID, 10),
	}})[0]; !ack.OK {
		t.Fatalf("clone result rejected: %+v", ack)
	}
	if got := metricValue(reg, "redundancy_speculative_wins_total"); got != 1 {
		t.Errorf("speculative_wins = %v, want 1", got)
	}

	// ...and the straggler's late submission is adjudicated exactly once:
	// rejected as a duplicate, never double-credited.
	if late := v.submit(t, slow, slowID, []ResultItem{{
		TaskID: stuck.TaskID, Copy: stuck.Copy,
		Value: honestValue(t, "hashchain", stuck.TaskID, 10),
	}})[0]; late.OK || late.Reason != ReasonDuplicate {
		t.Fatalf("loser's submission got %+v, want %s", late, ReasonDuplicate)
	}
	if got := metricValue(reg, "redundancy_speculative_wasted_total"); got != 1 {
		t.Errorf("speculative_wasted = %v, want 1", got)
	}

	// Finish whatever the pool still holds (the clone may have arrived
	// before the drain completed).
	drainRoundRobin(t, v, 8, []*Codec{fast}, []int{fastID}, []CheatFunc{nil})

	sup.Wait()
	sum := sup.Summary()
	if sum.Verify.Accepted != p.N {
		t.Errorf("certified %d of %d", sum.Verify.Accepted, p.N)
	}
	total := 0
	for _, e := range sum.Credits {
		total += e.Credit
		if e.Participant == slowID && e.Credit != 0 {
			t.Errorf("race loser holds %d credits, want 0", e.Credit)
		}
	}
	if total != p.TotalAssignments() {
		t.Errorf("total credit %d, want %d (double or lost credit)", total, p.TotalAssignments())
	}
	if !strings.Contains(events.String(), `"event":"assignment_speculated"`) {
		t.Error("no assignment_speculated event emitted")
	}
}

// TestDisconnectDeadlineReclaimOverlap is the regression test for the two
// reclaim paths racing over one lease: a copy reclaimed by the deadline
// sweeper must not be reclaimed again when its holder's connection dies,
// and vice versa. Each direction must count — and reissue — exactly once,
// or queue accounting corrupts and the run never completes.
func TestDisconnectDeadlineReclaimOverlap(t *testing.T) {
	bubble(t, func(n *vnet) { disconnectDeadlineReclaimOverlap(t, n) })
}

// disconnectDeadlineReclaimOverlap runs the scenario and returns the
// virtual time it took.
func disconnectDeadlineReclaimOverlap(t *testing.T, n *vnet) time.Duration {
	start := time.Now()
	p, err := plan.FromDistribution(dist.Simple(5), 0.5)
	if err != nil {
		t.Fatal(err)
	}
	const deadline = 150 * time.Millisecond // swept every 37.5 ms
	reg := obs.NewRegistry()
	sup, addr := n.start(t, SupervisorConfig{
		Plan: p, WorkKind: "hashchain", Iters: 10, Seed: 1,
		Deadline: deadline, Metrics: reg,
	})

	// Direction 1: deadline fires first, then the connection dies. The
	// disconnect must find nothing left to reclaim.
	conn1, c1 := dialCodec(t, n.dial, addr)
	r1 := roundTrip(t, c1, Message{Type: MsgRegister, Name: "d1"})
	if w := roundTrip(t, c1, Message{Type: MsgRequestWork, ParticipantID: r1.ParticipantID}); w.Type != MsgWork {
		t.Fatalf("lease: %+v", w)
	}
	time.Sleep(deadline + deadline/3) // past the deadline and the sweep after it
	synctest.Wait()
	if v := metricValue(reg, "redundancy_assignments_reclaimed_total", "deadline"); v != 1 {
		t.Fatalf("deadline reclaims = %v one sweep past the deadline, want 1", v)
	}
	conn1.Close()
	synctest.Wait() // the serve goroutine has run its reclaim
	if v := metricValue(reg, "redundancy_assignments_reclaimed_total", "disconnect"); v != 0 {
		t.Fatalf("deadline-swept lease reclaimed again on disconnect (%v times)", v)
	}

	// Direction 2: the connection dies first, then the deadline passes.
	// The sweeper must find nothing left to reclaim.
	conn2, c2 := dialCodec(t, n.dial, addr)
	r2 := roundTrip(t, c2, Message{Type: MsgRegister, Name: "d2"})
	if w := roundTrip(t, c2, Message{Type: MsgRequestWork, ParticipantID: r2.ParticipantID}); w.Type != MsgWork {
		t.Fatalf("lease: %+v", w)
	}
	conn2.Close()
	synctest.Wait()
	if v := metricValue(reg, "redundancy_assignments_reclaimed_total", "disconnect"); v != 1 {
		t.Fatalf("disconnect reclaims = %v once the connection is gone, want 1", v)
	}
	time.Sleep(400 * time.Millisecond) // several sweeps past the lease's deadline
	if v := metricValue(reg, "redundancy_assignments_reclaimed_total", "deadline"); v != 1 {
		t.Fatalf("disconnect-reclaimed lease reclaimed again by the sweeper (deadline count %v)", v)
	}

	// An honest worker finishes the computation; exact accounting proves
	// neither copy was double-queued or lost.
	if _, err := RunWorker(WorkerConfig{Addr: addr, Name: "finisher", Dial: n.dial}); err != nil {
		t.Fatal(err)
	}
	sup.Wait()
	sum := sup.Summary()
	if sum.Verify.Accepted != p.N {
		t.Errorf("certified %d of %d", sum.Verify.Accepted, p.N)
	}
	total := 0
	for _, e := range sum.Credits {
		total += e.Credit
	}
	if total != p.TotalAssignments() {
		t.Errorf("total credit %d, want %d", total, p.TotalAssignments())
	}
	// 5 first issues + exactly one reissue per reclaimed copy.
	if v := metricValue(reg, "redundancy_assignments_issued_total"); v != float64(p.TotalAssignments()+2) {
		t.Errorf("assignments issued %v, want %d (each reclaimed copy reissued exactly once)",
			v, p.TotalAssignments()+2)
	}
	return time.Since(start)
}

// quarantinePlan builds a small plan whose regular tasks have multiplicity
// 3 and 4 (so a lone cheater is always the strict-majority suspect, never
// an even split) plus ringers for the probation diet: 6 tasks @3, 16 tail
// tasks @4, 4 ringers @5.
func quarantinePlan(t *testing.T) *plan.Plan {
	t.Helper()
	d := &dist.Distribution{}
	d.SetCount(3, 6)
	for i := 4; i <= 23; i++ {
		d.SetCount(i, 0.8)
	}
	p, err := plan.FromDistribution(d, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if p.TailMultiplicity != 4 || p.Ringers < 4 {
		t.Fatalf("plan shape drifted: tail mult %d, %d ringers", p.TailMultiplicity, p.Ringers)
	}
	return p
}

// TestQuarantineLifecycle walks a cheating participant through the whole
// health arc: circumstantial suspect verdicts accumulate to quarantine
// (regular leases refused, the outstanding lease reclaimed within one
// sweep), the probation clock re-admits it to ringer-only work, and a
// clean ringer streak restores full standing — with the event and metric
// trail proving every step. The probation diet is served by the lease
// core, so the probationer is fed ringers whichever verb it asks with.
func TestQuarantineLifecycle(t *testing.T) {
	for _, v := range bothVerbs {
		t.Run(string(v), func(t *testing.T) {
			bubble(t, func(n *vnet) { testQuarantineLifecycle(t, n, v) })
		})
	}
}

func testQuarantineLifecycle(t *testing.T, n *vnet, v verbs) {
	p := quarantinePlan(t)
	var events syncBuffer
	reg := obs.NewRegistry()
	sup, addr := n.start(t, SupervisorConfig{
		Plan: p, WorkKind: "hashchain", Iters: 10, Seed: 5,
		Metrics: reg, Events: obs.NewSink(&events),
		Health: &health.Config{
			SuspectLimit: 3, Probation: 400 * time.Millisecond, ProbationRingers: 2,
		},
	})
	const sweep = 100 * time.Millisecond // the health-only sweep cadence

	// Four manual participants: one future cheater, three honest.
	reg4 := func(name string) (net.Conn, *Codec, int) {
		conn, c := dialCodec(t, n.dial, addr)
		w := roundTrip(t, c, Message{Type: MsgRegister, Name: name})
		if w.Type != MsgRegistered {
			t.Fatalf("register %s: %+v", name, w)
		}
		return conn, c, w.ParticipantID
	}
	_, mc, mID := reg4("mallory")
	var honestConn [3]net.Conn
	var honest [3]*Codec
	var honestID [3]int
	for i := range honest {
		honestConn[i], honest[i], honestID[i] = reg4(fmt.Sprintf("honest-%d", i))
	}

	// Phase 1: everyone batch-leases a slice of the pool.
	type copyKey struct{ task, copy int }
	mHeld := map[copyKey]bool{}
	mPerTask := map[int]int{}
	mb := roundTrip(t, mc, Message{Type: MsgGetWork, ParticipantID: mID, Batch: 8})
	if mb.Type != MsgWorkBatch || len(mb.Work) != 8 {
		t.Fatalf("cheater batch lease: %+v", mb)
	}
	for _, it := range mb.Work {
		mHeld[copyKey{it.TaskID, it.Copy}] = true
		mPerTask[it.TaskID]++
	}
	type heldItem struct {
		task, copy int
	}
	var hHeld [3][]heldItem
	for i := range honest {
		hb := roundTrip(t, honest[i], Message{Type: MsgGetWork, ParticipantID: honestID[i], Batch: 4})
		if hb.Type != MsgWorkBatch {
			t.Fatalf("honest %d batch lease: %+v", i, hb)
		}
		for _, it := range hb.Work {
			hHeld[i] = append(hHeld[i], heldItem{it.TaskID, it.Copy})
		}
	}

	// The cheater corrupts exactly SuspectLimit regular tasks where it
	// holds exactly one copy (so the honest majority always outs it, and
	// no suspect verdict can land after probation begins and knock it back
	// into quarantine), answers everything else honestly, and keeps one
	// lease outstanding so the quarantine reclaim has something to take
	// back. Sort the held set so the outstanding pick and the cheat
	// choices are deterministic.
	held := make([]copyKey, 0, len(mHeld))
	for k := range mHeld {
		held = append(held, k)
	}
	sort.Slice(held, func(i, j int) bool {
		if held[i].task != held[j].task {
			return held[i].task < held[j].task
		}
		return held[i].copy < held[j].copy
	})
	// Outstanding: prefer a copy the cheat rule would skip anyway (a
	// ringer or a doubled-up task) so it never costs us a cheat slot.
	outIdx := 0
	for i, k := range held {
		if k.task >= p.N || mPerTask[k.task] > 1 {
			outIdx = i
			break
		}
	}
	cheatedTasks := 0
	for i, k := range held {
		if i == outIdx {
			continue
		}
		v := honestValue(t, "hashchain", k.task, 10)
		if k.task < p.N && mPerTask[k.task] == 1 && cheatedTasks < 3 {
			v ^= 0xDEADBEEFCAFEBABE
			cheatedTasks++
		}
		ack := roundTrip(t, mc, Message{Type: MsgResult, ParticipantID: mID, TaskID: k.task, Copy: k.copy, Value: v})
		if ack.Type != MsgAck {
			t.Fatalf("cheater submission refused: %+v", ack)
		}
	}
	if cheatedTasks < 3 {
		t.Fatalf("only %d singleton tasks cheated on; raise the lease count (need >= SuspectLimit 3)", cheatedTasks)
	}
	for i := range honest {
		for _, h := range hHeld[i] {
			ack := roundTrip(t, honest[i], Message{
				Type: MsgResult, ParticipantID: honestID[i],
				TaskID: h.task, Copy: h.copy, Value: honestValue(t, "hashchain", h.task, 10),
			})
			if ack.Type != MsgAck {
				t.Fatalf("honest submission refused: %+v", ack)
			}
		}
	}

	// Phase 2: honest participants batch-lease the rest of the pool,
	// submitting regular copies but holding every ringer copy they draw,
	// so the cheated tasks adjudicate (firing quarantine) while a reserve
	// of ringer work survives for the probation diet. Their held ringer
	// copies requeue when they disconnect below.
	var hSeen [3]map[copyKey]bool
	for i := range hSeen {
		hSeen[i] = map[copyKey]bool{}
	}
	deadline := time.Now().Add(30 * time.Second)
	for metricValue(reg, "redundancy_quarantines_entered_total") < 1 {
		if time.Now().After(deadline) {
			t.Fatalf("quarantine never fired (suspect verdicts incomplete?)")
		}
		progressed := false
		for i := range honest {
			m := roundTrip(t, honest[i], Message{Type: MsgGetWork, ParticipantID: honestID[i], Batch: 16})
			if m.Type != MsgWorkBatch {
				continue
			}
			for _, it := range m.Work {
				k := copyKey{it.TaskID, it.Copy}
				if hSeen[i][k] {
					continue // a held ringer copy re-issued by get_work
				}
				hSeen[i][k] = true
				progressed = true
				if it.TaskID >= p.N {
					continue // hold ringer copies back for probation
				}
				ack := roundTrip(t, honest[i], Message{
					Type: MsgResult, ParticipantID: honestID[i],
					TaskID: it.TaskID, Copy: it.Copy, Value: honestValue(t, "hashchain", it.TaskID, 10),
				})
				if ack.Type != MsgAck {
					t.Fatalf("honest submission refused: %+v", ack)
				}
			}
		}
		if !progressed {
			time.Sleep(10 * time.Millisecond)
		}
	}

	// Quarantined: no new leases on either path, and the outstanding lease
	// is reclaimed within a sweep.
	if m := roundTrip(t, mc, Message{Type: MsgRequestWork, ParticipantID: mID}); m.Type != MsgNoWork {
		t.Fatalf("quarantined participant leased regular work: %+v", m)
	}
	if m := roundTrip(t, mc, Message{Type: MsgGetWork, ParticipantID: mID, Batch: 4}); m.Type != MsgNoWork {
		t.Fatalf("quarantined participant leased a batch: %+v", m)
	}
	time.Sleep(sweep)
	synctest.Wait()
	if v := metricValue(reg, "redundancy_assignments_reclaimed_total", "quarantine"); v != 1 {
		t.Fatalf("quarantine reclaims = %v a sweep after quarantine, want the 1 outstanding lease", v)
	}

	// Release the honest workers' held ringer copies back to the queue so
	// probation has a diet to draw from.
	for i := range honestConn {
		honestConn[i].Close()
	}

	// Probation: the clock promotes the cheater to ringer-only work.
	probeState := func() health.State {
		for _, ph := range sup.HealthSnapshot() {
			if ph.Participant == mID {
				return ph.State
			}
		}
		return health.Healthy
	}
	deadline = time.Now().Add(5 * time.Second)
	for probeState() != health.Probation {
		if time.Now().After(deadline) {
			t.Fatalf("probation never began (state %v)", probeState())
		}
		time.Sleep(20 * time.Millisecond)
	}
	// Each lease is answered before the next is asked for: a request_work
	// reply has room for one item, and a held copy is always re-issued
	// ahead of a fresh one.
	ringers := 0
	deadline = time.Now().Add(5 * time.Second)
	for ringers < 2 {
		if time.Now().After(deadline) {
			t.Fatalf("probation fed only %d ringer copies, need 2", ringers)
		}
		m := v.lease(t, mc, mID, 2)
		if m.Type != MsgWorkBatch {
			time.Sleep(20 * time.Millisecond)
			continue
		}
		for _, it := range m.Work {
			if it.TaskID < p.N {
				t.Fatalf("probation leased regular task %d (ringers start at %d)", it.TaskID, p.N)
			}
		}
		for _, a := range v.submit(t, mc, mID, answer(t, m, nil)) {
			if !a.OK {
				t.Fatalf("probation ringer result refused: %+v", a)
			}
			ringers++
		}
	}

	// Phase 3: honest participants finish everything (including the other
	// copies of the probation ringers), which fires the clean ringer
	// verdicts that re-admit the cheater.
	doneCh := make(chan struct{})
	go func() { sup.Wait(); close(doneCh) }()
	var fin [3]*Codec
	var finID [3]int
	for i := range fin {
		_, fin[i], finID[i] = reg4(fmt.Sprintf("finisher-%d", i))
	}
	finishers := make(chan error, 3)
	for i := range fin {
		go func(i int) {
			c, id := fin[i], finID[i]
			for {
				m := roundTrip(t, c, Message{Type: MsgRequestWork, ParticipantID: id})
				switch m.Type {
				case MsgDone:
					finishers <- nil
					return
				case MsgNoWork:
					time.Sleep(10 * time.Millisecond)
					continue
				case MsgWork:
					ack := roundTrip(t, c, Message{
						Type: MsgResult, ParticipantID: id,
						TaskID: m.TaskID, Copy: m.Copy, Value: honestValue(t, "hashchain", m.TaskID, 10),
					})
					if ack.Type != MsgAck {
						finishers <- fmt.Errorf("finisher %d: submission refused: %+v", i, ack)
						return
					}
				default:
					finishers <- fmt.Errorf("finisher %d: unexpected %+v", i, m)
					return
				}
			}
		}(i)
	}
	for i := 0; i < 3; i++ {
		if err := <-finishers; err != nil {
			t.Fatal(err)
		}
	}
	select {
	case <-doneCh:
	case <-time.After(30 * time.Second):
		t.Fatal("computation never completed after re-admission")
	}

	synctest.Wait()
	if v := metricValue(reg, "redundancy_quarantines_exited_total"); v != 1 {
		t.Errorf("quarantines_exited = %v once the run is done, want 1", v)
	}
	if st := probeState(); st != health.Healthy {
		t.Errorf("re-admitted participant state %v, want Healthy", st)
	}

	// The event trail must show the full arc in order.
	lines := strings.Split(events.String(), "\n")
	arc := []string{EvParticipantQuarantined, EvParticipantProbation, EvParticipantReadmitted}
	idx := 0
	for _, line := range lines {
		if idx == len(arc) {
			break
		}
		var ev map[string]any
		if json.Unmarshal([]byte(line), &ev) != nil {
			continue
		}
		if ev["event"] == arc[idx] {
			if pid, _ := ev["participant"].(float64); int(pid) != mID {
				t.Errorf("%s names participant %v, want %d", arc[idx], ev["participant"], mID)
			}
			idx++
		}
	}
	if idx != len(arc) {
		t.Errorf("event trail incomplete: found %d of %v", idx, arc)
	}
	sum := sup.Summary()
	if sum.Verify.MismatchDetected < 3 {
		t.Errorf("mismatches detected %d, want >= 3", sum.Verify.MismatchDetected)
	}
	if len(sum.Convicted) != 0 {
		t.Errorf("circumstantial cheater was convicted: %v", sum.Convicted)
	}
}

// TestQuarantineFeedsEstimator checks the control-plane coupling: a
// quarantine the lease path causes (a hold reclaimed past its deadline)
// counts as adversary evidence in the adaptive p̂ estimator, exactly like a
// caught cheat.
func TestQuarantineFeedsEstimator(t *testing.T) {
	bubble(t, func(n *vnet) {
		p, err := plan.Balanced(50, 0.5)
		if err != nil {
			t.Fatal(err)
		}
		const deadline = time.Minute
		sup, err := NewSupervisor(SupervisorConfig{
			Plan: p, WorkKind: "hashchain", Iters: 10, Seed: 1, Deadline: deadline,
			Health: &health.Config{MinEvents: 1},
			Adapt:  &adapt.Config{TargetEpsilon: 0.5},
		})
		if err != nil {
			t.Fatal(err)
		}
		n.own(sup)
		before, on := sup.AdaptiveEstimate()
		if !on {
			t.Fatal("adaptive estimator not enabled")
		}
		cs := newConnState(nil) // nothing is flushed: the lease finds work
		pid := sup.register(Message{Type: MsgRegister, Name: "stall"}, cs).ParticipantID
		t0 := time.Now()
		if m := sup.leaseBatch(pid, 1, false, cs, t0); m.Type != MsgWorkBatch {
			t.Fatalf("lease: %+v", m)
		}
		sup.sweepExpired(t0.Add(2 * deadline))
		if st := sup.roster.State(pid); st != health.Quarantined {
			t.Fatalf("the stalled holder is %v after its deadline reclaim, want quarantined", st)
		}
		after, _ := sup.AdaptiveEstimate()
		if !(after.PHat > before.PHat) {
			t.Errorf("quarantine did not move p̂: before %v after %v", before.PHat, after.PHat)
		}
	})
}

// TestProbationExpiresWhenRingerStarved regresses the fleet-wide
// quarantine deadlock: a plan with no ringer tasks (dist.Simple mints
// none) quarantines every participant at once, so nobody is left to
// drain the regular queue and nobody can earn ringer-proven
// re-admission. The probation clock must expire instead
// ("probation_expired"), re-admit the fleet, and let the run finish —
// whichever verb the starved participants keep asking with.
func TestProbationExpiresWhenRingerStarved(t *testing.T) {
	for _, v := range bothVerbs {
		t.Run(string(v), func(t *testing.T) {
			bubble(t, func(n *vnet) { testProbationExpires(t, n, v) })
		})
	}
}

func testProbationExpires(t *testing.T, n *vnet, v verbs) {
	p, err := plan.FromDistribution(dist.Simple(6), 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if p.Ringers != 0 {
		t.Fatalf("dist.Simple plan minted %d ringers; the starved scenario needs zero", p.Ringers)
	}
	var events syncBuffer
	reg := obs.NewRegistry()
	sup, addr := n.start(t, SupervisorConfig{
		Plan: p, WorkKind: "hashchain", Iters: 10, Seed: 11,
		Metrics: reg, Events: obs.NewSink(&events),
		Health: &health.Config{
			SuspectLimit: 1, Probation: 300 * time.Millisecond, ProbationRingers: 1,
		},
	})
	const sweep = 100 * time.Millisecond // the health-only sweep cadence

	reg2 := func(name string) (*Codec, int) {
		_, c := dialCodec(t, n.dial, addr)
		w := roundTrip(t, c, Message{Type: MsgRegister, Name: name})
		if w.Type != MsgRegistered {
			t.Fatalf("register %s: %+v", name, w)
		}
		return c, w.ParticipantID
	}
	w1, id1 := reg2("liar")
	w2, id2 := reg2("honest")
	codecs, ids := []*Codec{w1, w2}, []int{id1, id2}

	// The liar takes one copy; the honest participant leases everything
	// else and completes only the sibling copy of the liar's task,
	// holding the rest so real work is still queued when the axe falls.
	lease := v.lease(t, w1, id1, 1)
	if lease.Type != MsgWorkBatch || len(lease.Work) != 1 {
		t.Fatalf("liar lease: %+v", lease)
	}
	target := lease.Work[0]
	rest := roundTrip(t, w2, Message{Type: MsgGetWork, ParticipantID: id2, Batch: 16})
	if rest.Type != MsgWorkBatch || len(rest.Work) != p.TotalAssignments()-1 {
		t.Fatalf("honest lease: %+v", rest)
	}
	var sibling *WorkItem
	for i := range rest.Work {
		if rest.Work[i].TaskID == target.TaskID {
			sibling = &rest.Work[i]
		}
	}
	if sibling == nil {
		t.Fatalf("no sibling copy of task %d in the honest lease", target.TaskID)
	}
	if acks := v.submit(t, w2, id2, []ResultItem{{
		TaskID: sibling.TaskID, Copy: sibling.Copy,
		Value: honestValue(t, "hashchain", sibling.TaskID, 10),
	}}); !acks[0].OK {
		t.Fatalf("sibling ack: %+v", acks[0])
	}

	// The lie completes the tuple: a mismatch, circumstantial suspects
	// for both holders, and — at SuspectLimit 1 — a fleet-wide
	// quarantine with ten copies reclaimed back into the queue at the
	// next sweep.
	if acks := v.submit(t, w1, id1, []ResultItem{{
		TaskID: target.TaskID, Copy: target.Copy,
		Value: honestValue(t, "hashchain", target.TaskID, 10) ^ 0xBAD,
	}}); !acks[0].OK {
		t.Fatalf("cheat ack: %+v", acks[0])
	}
	synctest.Wait()
	if v := metricValue(reg, "redundancy_quarantines_entered_total"); v != 2 {
		t.Fatalf("quarantines_entered = %v once the lie is adjudicated, want 2", v)
	}
	time.Sleep(sweep)
	synctest.Wait()
	if v := metricValue(reg, "redundancy_assignments_reclaimed_total", "quarantine"); int(v) != p.TotalAssignments()-2 {
		t.Fatalf("quarantine reclaims = %v a sweep later, want the %d copies held", v, p.TotalAssignments()-2)
	}

	// With no ringers to prove themselves on, both must ride the
	// probation clock back in. One goroutine, fixed order: each keeps
	// asking — a starved probationer is answered no_work at once, never
	// parked, so it waits a little before it asks again — until the clock
	// re-admits it and it is dealt regular work, and then holds that
	// lease. While the first holds copies the run cannot finish under the
	// second, so the second is provably still asking when its own clock
	// runs out.
	held := make([]Message, len(codecs))
	deadline := time.Now().Add(30 * time.Second)
	for i, c := range codecs {
		for held[i].Type != MsgWorkBatch {
			if time.Now().After(deadline) {
				t.Fatalf("participant %d still starved after 30s", ids[i])
			}
			held[i] = v.lease(t, c, ids[i], 4)
			if held[i].Type == MsgNoWork {
				time.Sleep(10 * time.Millisecond)
			} else if held[i].Type != MsgWorkBatch {
				t.Fatalf("participant %d: unexpected %+v", ids[i], held[i])
			}
		}
	}
	if got := metricValue(reg, "redundancy_quarantines_exited_total"); got != 2 {
		t.Errorf("quarantines_exited = %v with both participants leasing regular work, want 2", got)
	}
	for _, ph := range sup.HealthSnapshot() {
		if ph.State != health.Healthy {
			t.Errorf("participant %d state %v, want Healthy", ph.Participant, ph.State)
		}
	}

	// Return the held leases and finish the run.
	for i, c := range codecs {
		for _, a := range v.submit(t, c, ids[i], answer(t, held[i], nil)) {
			if !a.OK {
				t.Fatalf("participant %d: task %d copy %d refused: %s", ids[i], a.TaskID, a.Copy, a.Reason)
			}
		}
	}
	drainRoundRobin(t, v, 4, codecs, ids, make([]CheatFunc, len(codecs)))
	sup.Wait()

	// Both re-admissions must carry the clock-expiry reason — no ringer
	// existed to earn the proven kind.
	expired := 0
	for _, line := range strings.Split(events.String(), "\n") {
		var ev map[string]any
		if json.Unmarshal([]byte(line), &ev) != nil {
			continue
		}
		if ev["event"] == EvParticipantReadmitted {
			if ev["reason"] != "probation_expired" {
				t.Errorf("readmission reason %v, want probation_expired", ev["reason"])
			}
			expired++
		}
	}
	if expired != 2 {
		t.Errorf("found %d probation_expired re-admissions, want 2", expired)
	}
	sum := sup.Summary()
	if sum.Verify.MismatchDetected != 1 {
		t.Errorf("mismatches detected %d, want 1", sum.Verify.MismatchDetected)
	}
	if len(sum.Convicted) != 0 {
		t.Errorf("circumstantial suspects were convicted: %v", sum.Convicted)
	}
}

// TestSlowLorisDisconnectedByIOTimeout opens a connection that never sends
// a frame; with IOTimeout set the supervisor must drop it instead of
// pinning a goroutine forever.
func TestSlowLorisDisconnectedByIOTimeout(t *testing.T) {
	bubble(t, func(n *vnet) {
		p, err := plan.FromDistribution(dist.Simple(5), 0.5)
		if err != nil {
			t.Fatal(err)
		}
		const ioTimeout = 150 * time.Millisecond
		reg := obs.NewRegistry()
		_, addr := n.start(t, SupervisorConfig{
			Plan: p, Iters: 5, Metrics: reg, IOTimeout: ioTimeout,
		})

		conn, err := n.dial(addr)
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()

		start := time.Now()
		deadline := start.Add(5 * time.Second)
		for {
			if _, err := conn.Read(make([]byte, 1)); err != nil {
				break // supervisor hung up on us
			}
			if time.Now().After(deadline) {
				t.Fatal("slow-loris connection was never dropped")
			}
		}
		if waited := time.Since(start); waited != ioTimeout {
			t.Errorf("dropped after %v of silence, want IOTimeout (%v)", waited, ioTimeout)
		}
		synctest.Wait()
		if v, _ := reg.Snapshot().Value("redundancy_workers_connected"); v != 0 {
			t.Fatalf("connection gauge %v after the drop, want 0", v)
		}
	})
}

// TestShutdownDrains checks the graceful path: Shutdown stops accepting
// and issuing but lets the in-flight result land before returning nil, at
// the instant its ack is flushed, which a drain that polled could only
// meet on its poll grid.
func TestShutdownDrains(t *testing.T) {
	bubble(t, func(n *vnet) {
		p, err := plan.FromDistribution(dist.Simple(8), 0.5)
		if err != nil {
			t.Fatal(err)
		}
		dir := t.TempDir()
		jf, err := os.OpenFile(filepath.Join(dir, "journal.jsonl"), os.O_CREATE|os.O_RDWR, 0o644)
		if err != nil {
			t.Fatal(err)
		}
		defer jf.Close()
		reg := obs.NewRegistry()
		sup, addr := n.start(t, SupervisorConfig{
			Plan: p, Iters: 10, Metrics: reg, Journal: jf, JournalSync: true,
		})

		_, c := dialCodec(t, n.dial, addr)
		welcome := roundTrip(t, c, Message{Type: MsgRegister, Name: "slow"})
		work := roundTrip(t, c, Message{Type: MsgRequestWork, ParticipantID: welcome.ParticipantID})
		if work.Type != MsgWork {
			t.Fatalf("work reply %+v", work)
		}

		shutdownErr := make(chan error, 1)
		var shutdownAt time.Time
		go func() {
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			err := sup.Shutdown(ctx)
			shutdownAt = time.Now()
			shutdownErr <- err
		}()

		// Drain visibly started: the listener refuses new connections.
		synctest.Wait()
		if probe, err := n.dial(addr); err == nil {
			probe.Close()
			t.Fatal("listener still accepting during shutdown")
		}

		// The in-flight result still lands and is acked.
		fn, err := Work(work.Kind)
		if err != nil {
			t.Fatal(err)
		}
		ack := roundTrip(t, c, Message{
			Type: MsgResult, ParticipantID: welcome.ParticipantID,
			TaskID: work.TaskID, Copy: work.Copy, Value: fn(work.Seed, work.Iters),
		})
		if ack.Type != MsgAck {
			t.Fatalf("in-flight result during drain: %+v", ack)
		}
		acked := time.Now()

		if err := <-shutdownErr; err != nil {
			t.Fatalf("drained shutdown returned %v", err)
		}
		if !shutdownAt.Equal(acked) {
			t.Errorf("Shutdown returned %v after the ack, want at its instant", shutdownAt.Sub(acked))
		}
		snap := reg.Snapshot()
		if v, _ := snap.Value("redundancy_results_accepted_total"); v != 1 {
			t.Errorf("accepted %v results through the drain, want 1", v)
		}
		if v, _ := snap.Value("redundancy_journal_syncs_total"); v < 1 {
			t.Errorf("journal_syncs = %v, want >= 1 (JournalSync mode)", v)
		}
		// And the journaled record survived to disk.
		data, err := os.ReadFile(jf.Name())
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Contains(data, []byte(`"value"`)) {
			t.Errorf("journal on disk is missing the accepted record: %q", data)
		}
	})
}

// TestShutdownTimeoutForceCloses checks the impatient path: a worker that
// never returns its assignment cannot hold Shutdown hostage past ctx.
func TestShutdownTimeoutForceCloses(t *testing.T) {
	bubble(t, func(n *vnet) {
		p, err := plan.FromDistribution(dist.Simple(8), 0.5)
		if err != nil {
			t.Fatal(err)
		}
		sup, addr := n.start(t, SupervisorConfig{Plan: p, Iters: 10})

		_, c := dialCodec(t, n.dial, addr)
		welcome := roundTrip(t, c, Message{Type: MsgRegister, Name: "hostage"})
		if work := roundTrip(t, c, Message{Type: MsgRequestWork, ParticipantID: welcome.ParticipantID}); work.Type != MsgWork {
			t.Fatalf("work reply %+v", work)
		}
		// ... and never submit it.

		const budget = 100 * time.Millisecond
		ctx, cancel := context.WithTimeout(context.Background(), budget)
		defer cancel()
		start := time.Now()
		err = sup.Shutdown(ctx)
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Errorf("hostage shutdown returned %v, want DeadlineExceeded", err)
		}
		if elapsed := time.Since(start); elapsed < budget || elapsed > 5*time.Second {
			t.Errorf("shutdown took %v on a %v budget", elapsed, budget)
		}
	})
}

// TestPipelinedThenStallDisconnectedByIOTimeout: a peer that pipelines a
// cycle and then goes quiet — or stalls in the middle of the second frame —
// is answered for what it sent and disconnected after IOTimeout, and the
// lease it was granted goes back to the queue.
func TestPipelinedThenStallDisconnectedByIOTimeout(t *testing.T) {
	for _, torn := range []bool{false, true} {
		t.Run(fmt.Sprintf("torn-%v", torn), func(t *testing.T) {
			bubble(t, func(n *vnet) {
				const ioTimeout = 150 * time.Millisecond
				cfg, _ := loggedConfig(t, 4, SupervisorConfig{IOTimeout: ioTimeout})
				sup, addr := n.start(t, cfg)
				w := dialRaw(t, n.dial, addr, singleVerbs, ProtoJSON)
				lease := asLease(w.exchange(w.request(1)))
				if err := w.c.queue(w.submission(answer(t, lease, nil))); err != nil {
					t.Fatal(err)
				}
				if err := w.c.queue(w.request(1)); err != nil {
					t.Fatal(err)
				}
				if torn {
					w.c.out = w.c.out[:len(w.c.out)-5] // the request_work frame never completes
				}
				if err := w.c.flush(); err != nil {
					t.Fatal(err)
				}
				if ack := w.recv(); !accepted(ack) {
					t.Fatalf("reply to the result: %+v", ack)
				}
				held := 0
				if !torn {
					if m := w.recv(); m.Type != MsgWork {
						t.Fatalf("reply to the request: %+v", m)
					}
					held = 1
				}
				start := time.Now()
				if m, err := w.c.Recv(); err == nil {
					t.Fatalf("stalled peer got %+v, want to be hung up on", m)
				}
				if waited := time.Since(start); waited != ioTimeout {
					t.Errorf("disconnect took %v, want IOTimeout (%v)", waited, ioTimeout)
				}
				sup.Close()
				if v, _ := sup.Metrics().Snapshot().Value("redundancy_assignments_reclaimed_total", "disconnect"); int(v) != held {
					t.Errorf("%v assignments reclaimed from the stalled peer, want %d", v, held)
				}
			})
		})
	}
}

// TestFloodWithoutReadingIsBounded: a peer that keeps sending requests and
// never reads a reply costs the supervisor a bounded queue, then blocks it
// in a write and is disconnected after IOTimeout — it cannot make the
// supervisor buffer replies for as long as it cares to send.
func TestFloodWithoutReadingIsBounded(t *testing.T) {
	bubble(t, func(n *vnet) {
		const ioTimeout = 150 * time.Millisecond
		cfg, log := loggedConfig(t, 1, SupervisorConfig{IOTimeout: ioTimeout})
		sup, addr := n.start(t, cfg)
		conn, err := n.dial(addr)
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		start := time.Now()
		conn.SetWriteDeadline(start.Add(60 * time.Second))
		burst := bytes.Repeat([]byte("{\"type\":\"x\"}\n"), 8192) // ~100 KiB of requests, ~7x that in replies
		sent := 0
		for ; sent < 1<<30; sent += len(burst) {
			if _, err := conn.Write(burst); err != nil {
				break // hung up on
			}
		}
		if sent >= 1<<30 {
			t.Fatal("supervisor kept serving a peer that never reads")
		}
		if took := time.Since(start); took != ioTimeout {
			t.Errorf("hung up on after %v, want the blocked write's IOTimeout (%v)", took, ioTimeout)
		}
		sup.Close()
		const slack = 4096 // the reply that crossed the bound
		for i, w := range log.since(0) {
			if len(w) > maxQueuedReplyBytes+slack {
				t.Fatalf("write %d carried %d bytes of queued replies, bound %d", i, len(w), maxQueuedReplyBytes)
			}
		}
		if _, writes := log.counts(); writes < 2 {
			t.Errorf("%d supervisor writes for %d bytes of requests", writes, sent)
		}
	})
}

// TestSlowCommitDoesNotTripIOTimeout: while an ack of the peer's own waits
// for the disk, its silence is not a stall. A strict client whose commit
// takes four I/O timeouts is still connected when the ack arrives, and the
// clock the ack's flush starts disconnects it when it then says nothing.
func TestSlowCommitDoesNotTripIOTimeout(t *testing.T) {
	bubble(t, func(n *vnet) {
		const ioTimeout = 50 * time.Millisecond
		jw := &cacheSimWriter{}
		entered := jw.block()
		defer jw.unblock() // never leave the committer wedged at teardown
		cfg, _ := loggedConfig(t, 2, SupervisorConfig{IOTimeout: ioTimeout, Journal: jw, JournalSync: true})
		_, addr := n.start(t, cfg)
		w := dialRaw(t, n.dial, addr, batchVerbs, ProtoBinary)
		lease := asLease(w.exchange(w.request(1)))
		w.send(w.submission(answer(t, lease, nil)))
		<-entered
		time.Sleep(4 * ioTimeout) // the timeout is the subject
		jw.unblock()
		if ack := w.recv(); !accepted(ack) {
			t.Fatalf("reply after a commit of four I/O timeouts: %+v", ack)
		}
		start := time.Now()
		w.conn.SetReadDeadline(start.Add(10 * time.Second)) // fail, not hang
		if m, err := w.c.Recv(); err == nil {
			t.Fatalf("stalled peer got %+v, want to be hung up on", m)
		}
		if waited := time.Since(start); waited != ioTimeout {
			t.Errorf("hung up on %v after the ack, want IOTimeout (%v)", waited, ioTimeout)
		}
	})
}

// TestMetricsAndEventsEndToEnd drives a deterministic one-task scenario and
// checks every counter it must move: a colluding participant submits a wrong
// value for copy 0, a second participant takes copy 1 and stalls past the
// deadline (deadline reclaim), and an honest worker finishes the re-issued
// copy, exposing the mismatch.
func TestMetricsAndEventsEndToEnd(t *testing.T) {
	bubble(t, func(n *vnet) {
		reg := obs.NewRegistry()
		events := &syncBuffer{}
		sink := obs.NewSink(events)

		// One real task, two copies, no ringers.
		p := &plan.Plan{
			Epsilon:            0.5,
			N:                  1,
			Counts:             []int{0, 1},
			TailMultiplicity:   2,
			RingerMultiplicity: 2,
		}
		const deadline = 250 * time.Millisecond
		sup, addr := n.start(t, SupervisorConfig{
			Plan:     p,
			Policy:   sched.Free,
			WorkKind: "hashchain",
			Iters:    25,
			Deadline: deadline,
			Metrics:  reg,
			Events:   sink,
		})

		// dial registers a hand-driven participant and requests one assignment.
		dial := func(name string) (*Codec, net.Conn, int, Message) {
			t.Helper()
			conn, err := n.dial(addr)
			if err != nil {
				t.Fatal(err)
			}
			c := NewCodec(conn)
			if err := c.Send(Message{Type: MsgRegister, Name: name}); err != nil {
				t.Fatal(err)
			}
			welcome, err := c.Recv()
			if err != nil || welcome.Type != MsgRegistered {
				t.Fatalf("%s register: %+v %v", name, welcome, err)
			}
			if err := c.Send(Message{Type: MsgRequestWork, ParticipantID: welcome.ParticipantID}); err != nil {
				t.Fatal(err)
			}
			work, err := c.Recv()
			if err != nil || work.Type != MsgWork {
				t.Fatalf("%s work: %+v %v", name, work, err)
			}
			return c, conn, welcome.ParticipantID, work
		}

		// Colluder: takes copy 0 and returns a deliberately wrong value.
		cc, cconn, cid, cwork := dial("colluder")
		defer cconn.Close()
		honest := HashChain(cwork.Seed, cwork.Iters)
		if err := cc.Send(Message{
			Type: MsgResult, ParticipantID: cid,
			TaskID: cwork.TaskID, Copy: cwork.Copy, Value: honest ^ 0xDEADBEEF,
		}); err != nil {
			t.Fatal(err)
		}
		if ack, err := cc.Recv(); err != nil || ack.Type != MsgAck {
			t.Fatalf("wrong result not accepted into verification: %+v %v", ack, err)
		}

		// Staller: takes copy 1 and goes silent, holding the connection open so
		// the only way the copy comes back is the deadline sweeper.
		_, sconn, _, swork := dial("staller")
		defer sconn.Close()
		if swork.TaskID != cwork.TaskID {
			t.Fatalf("staller got task %d, want %d", swork.TaskID, cwork.TaskID)
		}

		// Wait out the deadline and the sweep after it before letting the
		// honest worker in, so the assignment flow is deterministic.
		time.Sleep(deadline + deadline/3)
		synctest.Wait()
		if v, _ := reg.Snapshot().Value("redundancy_assignments_reclaimed_total", "deadline"); v != 1 {
			t.Fatalf("deadline reclaims = %v a sweep past the deadline, want 1", v)
		}

		// Honest worker finishes the re-issued copy with its own metrics registry.
		wreg := obs.NewRegistry()
		if _, err := RunWorker(WorkerConfig{Addr: addr, Name: "honest", Metrics: wreg, Dial: n.dial}); err != nil {
			t.Fatal(err)
		}
		sup.Wait()
		// Close the hand-driven connections before Close: it joins the
		// connection handlers, which block on reads until these hang up.
		cconn.Close()
		sconn.Close()
		sup.Close()

		snap := sup.Metrics().Snapshot()
		for _, tc := range []struct {
			name   string
			labels []string
			want   float64
		}{
			{"redundancy_workers_registered_total", nil, 3},
			{"redundancy_assignments_issued_total", nil, 3},
			{"redundancy_assignments_reclaimed_total", []string{"deadline"}, 1},
			{"redundancy_results_accepted_total", nil, 2},
			{"redundancy_mismatch_detected_total", nil, 1},
			{"redundancy_tasks_certified_total", nil, 0},
			{"redundancy_ringer_failures_total", nil, 0},
		} {
			got, ok := snap.Value(tc.name, tc.labels...)
			if tc.want != 0 && !ok {
				t.Errorf("%s%v: series missing", tc.name, tc.labels)
				continue
			}
			if got != tc.want {
				t.Errorf("%s%v = %v, want %v", tc.name, tc.labels, got, tc.want)
			}
		}
		// The supervisor observed per-worker turnaround for the accepting workers.
		if got, ok := snap.Value("redundancy_assignment_turnaround_seconds", "honest"); !ok || got != 1 {
			t.Errorf("turnaround{honest} count = %v (ok=%v), want 1", got, ok)
		}

		// The honest worker's RTT histogram saw its exchanges.
		if got, ok := wreg.Snapshot().Value("redundancy_worker_rtt_seconds"); !ok || got == 0 {
			t.Error("worker RTT histogram recorded no observations")
		}

		// The event stream names every lifecycle step of the scenario.
		stream := events.String()
		for _, ev := range []string{
			`"event":"worker_joined"`,
			`"event":"assignment_issued"`,
			`"event":"result_accepted"`,
			`"event":"assignment_reclaimed"`,
			`"reason":"deadline"`,
			`"event":"mismatch_detected"`,
		} {
			if !strings.Contains(stream, ev) {
				t.Errorf("event stream missing %s:\n%s", ev, stream)
			}
		}

		// The rendered exposition includes the headline series by name.
		var buf bytes.Buffer
		if err := reg.WritePrometheus(&buf); err != nil {
			t.Fatal(err)
		}
		for _, series := range []string{
			"redundancy_assignments_issued_total 3",
			"redundancy_results_accepted_total 2",
			"redundancy_mismatch_detected_total 1",
		} {
			if !strings.Contains(buf.String(), series) {
				t.Errorf("exposition missing %q", series)
			}
		}
	})
}

// TestDeadlineReclaimKeepsComputationLive: a participant that takes one
// assignment and holds it forever cannot stall the run; the deadline
// sweeper reclaims the copy so the fast worker can finish.
func TestDeadlineReclaimKeepsComputationLive(t *testing.T) {
	bubble(t, func(n *vnet) {
		p, err := plan.FromDistribution(dist.Simple(20), 0.5)
		if err != nil {
			t.Fatal(err)
		}
		sup, addr := n.start(t, SupervisorConfig{
			Plan:     p,
			WorkKind: "hashchain",
			Iters:    5,
			Deadline: 100 * time.Millisecond,
		})

		// The stalling participant takes one assignment and holds it forever;
		// the supervisor must reclaim it so the fast worker can finish.
		_, staller := dialCodec(t, n.dial, addr)
		reg := roundTrip(t, staller, Message{Type: MsgRegister, Name: "staller"})
		if reg.Type != MsgRegistered {
			t.Fatalf("register: %+v", reg)
		}
		if work := roundTrip(t, staller, Message{Type: MsgRequestWork, ParticipantID: reg.ParticipantID}); work.Type != MsgWork {
			t.Fatalf("work: %+v", work)
		}

		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := RunWorker(WorkerConfig{Addr: addr, Name: "fast", Dial: n.dial}); err != nil {
				t.Error(err)
			}
		}()
		done := make(chan struct{})
		go func() { sup.Wait(); close(done) }()
		select {
		case <-done:
		case <-time.After(15 * time.Second):
			t.Fatal("computation stalled despite deadline reclaim")
		}
		wg.Wait()
		if sum := sup.Summary(); sum.Verify.Tasks != 20 {
			t.Errorf("adjudicated %d tasks", sum.Verify.Tasks)
		}
	})
}

// TestCheatersDetectedEndToEnd: a coalition of two workers that cheats on
// every task it touches shares a 200-task pool with four honest workers,
// and the supervisor detects the mismatches and blacklists someone. Each
// assignment costs a virtual millisecond of compute, so the six workers
// share the pool instead of the first to connect draining it, and
// colluders and honest workers meet on tasks.
func TestCheatersDetectedEndToEnd(t *testing.T) {
	bubble(t, func(n *vnet) {
		p, err := plan.Balanced(200, 0.5)
		if err != nil {
			t.Fatal(err)
		}
		sup, addr := n.start(t, SupervisorConfig{
			Plan: p, Policy: sched.Free, WorkKind: "hashchain", Iters: 25, Seed: 1,
		})

		coal := NewCoalition(1, 7) // cheat on every task it touches
		var wg sync.WaitGroup
		for w := 0; w < 6; w++ {
			wg.Add(1)
			cheat := CheatFunc(nil)
			name := "honest"
			if w < 2 { // two coalition members
				cheat = coal.CheatFunc()
				name = "colluder"
			}
			go func() {
				defer wg.Done()
				// Cheaters may be blacklisted mid-run and refused further
				// work; that error is expected.
				_, _ = RunWorker(WorkerConfig{
					Addr: addr, Name: name, Cheat: cheat, Dial: n.dial,
					Speed: &SpeedModel{Base: time.Millisecond},
				})
			}()
		}
		wg.Wait()
		sup.Wait()

		sum := sup.Summary()
		if sum.Verify.MismatchDetected == 0 {
			t.Error("no cheats detected despite an always-cheat coalition")
		}
		if len(sum.Blacklist) == 0 {
			t.Error("nobody blacklisted")
		}
		// Certified-but-wrong results can only come from fully-controlled
		// tuples; with 1/3 of workers colluding some may exist, but every
		// detection must be real:
		if sum.Verify.MismatchDetected > sum.Verify.Tasks {
			t.Error("impossible detection count")
		}
	})
}

// TestShardedWorkerWaitsOutRestores starts a sharded worker on a 2-shard
// cluster whose shards are both down, then restores shard 0 and, 1.01
// virtual seconds later, shard 1. The worker first finds no shard up, and
// later only shard 1 left and still down, so it blocks on the map's change
// both times. It finishes at the very instant of the last restore, which a
// worker that polled could only meet on its poll grid; it finishes every
// assignment, the cluster grants exactly one credit per copy, and the last
// epoch the worker saw is 4: two kills, then two restores.
func TestShardedWorkerWaitsOutRestores(t *testing.T) {
	bubble(t, func(n *vnet) {
		p, err := plan.Balanced(40, 0.5)
		if err != nil {
			t.Fatal(err)
		}
		c, err := NewCluster(SupervisorConfig{
			Plan: p, Shards: 2, Seed: 5, WorkKind: "hashchain", Iters: 5,
			JournalDir: t.TempDir(), WrapListener: n.listen,
		})
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		for i := 0; i < 2; i++ {
			if err := c.KillShard(i); err != nil {
				t.Fatal(err)
			}
		}
		var st WorkerStats
		var returned time.Time
		done := make(chan error)
		go func() {
			var err error
			st, err = RunShardedWorker(WorkerConfig{Name: "patient", BatchSize: 4, Dial: n.dial}, c.ShardMap)
			returned = time.Now()
			done <- err
		}()
		var restored time.Time
		for i := 0; i < 2; i++ {
			time.Sleep(1010 * time.Millisecond)
			if err := c.RestoreShard(i); err != nil {
				t.Fatal(err)
			}
			restored = time.Now()
		}
		if err := <-done; err != nil {
			t.Fatal(err)
		}
		if !returned.Equal(restored) {
			t.Errorf("worker returned %v after the last restore, want at its instant", returned.Sub(restored))
		}
		if st.Completed != p.TotalAssignments() || st.Epoch != 4 {
			t.Errorf("worker completed %d assignments at epoch %d, want %d at epoch 4",
				st.Completed, st.Epoch, p.TotalAssignments())
		}
		credit := 0
		for _, cr := range c.Aggregate().Credits {
			credit += cr
		}
		if credit != p.TotalAssignments() {
			t.Errorf("merged credit %d, want %d", credit, p.TotalAssignments())
		}
	})
}

// TestShardedWorkerReleasedByClose: a sharded worker that has drained the
// one live shard of a 2-shard cluster blocks on the killed one, and
// Cluster.Close releases it: it returns an error at the instant of Close,
// with every assignment of the live shard done.
func TestShardedWorkerReleasedByClose(t *testing.T) {
	bubble(t, func(n *vnet) {
		c, err := NewCluster(SupervisorConfig{
			Plan: mustClusterPlan(t, 20), Shards: 2, Seed: 5, WorkKind: "hashchain", Iters: 5,
			WrapListener: n.listen,
		})
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		if err := c.KillShard(1); err != nil {
			t.Fatal(err)
		}
		type result struct {
			st  WorkerStats
			err error
			at  time.Time
		}
		done := make(chan result, 1)
		go func() {
			st, err := RunShardedWorker(WorkerConfig{Name: "stranded", BatchSize: 4, Dial: n.dial}, c.ShardMap)
			done <- result{st, err, time.Now()}
		}()
		time.Sleep(time.Second)
		if !supDone(c.Supervisor(0)) || len(done) != 0 {
			t.Fatalf("after a second: shard 0 finished %v, worker returned %v; want true, false",
				supDone(c.Supervisor(0)), len(done) != 0)
		}
		want := c.Aggregate().Assignments
		closed := time.Now()
		c.Close()
		synctest.Wait()
		select {
		case r := <-done:
			if r.err == nil {
				t.Error("worker returned nil with shard 1's work undone")
			}
			if !r.at.Equal(closed) {
				t.Errorf("worker returned %v after Close, want at its instant", r.at.Sub(closed))
			}
			if r.st.Completed != want {
				t.Errorf("worker completed %d assignments, shard 0 has %d", r.st.Completed, want)
			}
		default:
			t.Fatal("worker still running after Close")
		}
		if err := c.RestoreShard(1); err == nil {
			t.Error("a closed cluster restored a shard")
		}
	})
}

// TestClusterWaitSkipsKilledShard: a shard killed while Wait waits on it is
// skipped, as Wait's doc says. Both shards of an unserved cluster are
// killed under a waiting Wait, which must then return: the old supervisors'
// done never closes.
func TestClusterWaitSkipsKilledShard(t *testing.T) {
	bubble(t, func(n *vnet) {
		c, err := NewCluster(SupervisorConfig{
			Plan: mustClusterPlan(t, 20), Shards: 2, Seed: 5, WorkKind: "hashchain", Iters: 5,
			WrapListener: n.listen,
		})
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		returned := make(chan struct{})
		go func() {
			c.Wait()
			close(returned)
		}()
		synctest.Wait()
		for i := 0; i < 2; i++ {
			if err := c.KillShard(i); err != nil {
				t.Fatal(err)
			}
		}
		synctest.Wait()
		select {
		case <-returned:
		default:
			t.Fatal("Wait still blocked after both shards were killed")
		}
	})
}
