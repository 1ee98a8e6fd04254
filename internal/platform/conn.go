package platform

// The connection edge: one goroutine per worker connection serves requests
// in arrival order through the domains' methods and owns the connection's
// write side (wmu, the reply queue, the ring of acks awaiting their commit).

import (
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"redundancy/internal/sched"
	"redundancy/internal/verify"
)

// connState is one worker connection. The write side is guarded by wmu;
// everything else is touched only by this connection's serve goroutine.
type connState struct {
	// names holds the participants created (or resumed) over this
	// connection, with their display names. Work requests and results must
	// name one of them, so a client cannot impersonate another participant
	// (e.g. by guessing a small ID); resuming requires the supervisor-minted
	// token. The hot path labels metrics from it, never taking ident.mu.
	names map[int]string

	conn  net.Conn
	codec *Codec

	// The connection's write side, one writer at a time under wmu: replies
	// are queued in codec and leave together in flushLocked. queued counts
	// the replies sitting in the codec, each of them a request Shutdown's
	// drain still counts as busy; werr is the write error that ended the
	// connection.
	wmu    sync.Mutex
	queued int64
	werr   error
	// seenJSON and seenBin are the codec's wire-byte totals already folded
	// into redundancy_wire_bytes_total.
	seenJSON, seenBin int64

	// deferred is the ring of acks waiting for their commit: slots
	// dhead..dtail-1 (mod its size), oldest first, both counts under wmu.
	// serve fills slot dtail and publishes it by raising dtail; being the
	// only one to raise it, serve may read dtail bare. Whoever flushes next
	// after a slot's window is down pops it. Each is a request the drain
	// still counts as busy.
	deferred     [maxDeferredAcks]deferredAck
	dhead, dtail uint
	// kick (buffered 1) tells the connection's ack goroutine that the ring
	// went non-empty; gone is closed when serve returns. Both are made with
	// the goroutine, at the connection's first deferred ack.
	kick chan struct{}
	gone chan struct{}

	// Per-request scratch, reused across the serve loop: a reply is fully
	// encoded into the codec's buffer before the next request is read, so
	// its backing arrays are free again. This removes the per-batch slice
	// allocations from the hot path. What outlives the request (a deferred
	// ack and the records its commit reads) lives in the deferred ring.
	items []WorkItem
	fill  []sched.Assignment
	pend  []pendingResult
	subs  []verify.Result  // pend's claimed results, as the collector takes them
	outs  []verify.Outcome // the collector's outcome for each
	one   [1]ResultItem    // a single-verb result, as the batch it is served as
}

// deferredAck is the reply to one result submission whose records are with
// the committer: it is written once request seq is durable. The slot owns
// its storage because both outlive the handler: the committer reads recs
// until the window is down, and acks are encoded only then.
type deferredAck struct {
	acks   []ResultAck
	recs   []journalRecord
	seq    uint64
	single bool // submitted as result: the reply is ack, not batch_ack
}

// maxQueuedReplyBytes bounds the replies one connection may have queued:
// past it serve flushes even though further requests are already buffered.
// Far above a pipelined cycle's ack plus lease, so a conforming worker
// never meets it.
const maxQueuedReplyBytes = 64 << 10

// maxDeferredAcks bounds how far one connection may run ahead of the disk:
// with this many submissions awaiting their commit, serve waits for the
// oldest before it reads the next request. It bounds what a peer can pin
// (the ring), what a worker must resubmit after a crash, and how far Wait
// can return ahead of durability (connections × maxDeferredAcks × MaxBatch
// records). A bound of zero would be a handler that waits out every commit.
const maxDeferredAcks = 8

func newConnState(conn net.Conn) *connState {
	return &connState{
		names: make(map[int]string),
		conn:  conn,
		codec: NewCodec(conn),
	}
}

func (s *Supervisor) acceptLoop() {
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return // listener closed
		}
		s.connMu.Lock()
		if s.closed {
			s.connMu.Unlock()
			conn.Close()
			return
		}
		s.conns[conn] = struct{}{}
		s.connMu.Unlock()
		s.connWG.Add(1)
		go func() {
			defer s.connWG.Done()
			defer func() {
				s.connMu.Lock()
				delete(s.conns, conn)
				s.connMu.Unlock()
				conn.Close()
			}()
			if err := s.serve(conn); err != nil && !errors.Is(err, io.EOF) {
				s.logf("connection error: %v", err)
			}
		}()
	}
}

// closeConns stops admitting connections and force-closes every open one;
// their serve loops return on the next read or write.
func (s *Supervisor) closeConns() {
	s.connMu.Lock()
	defer s.connMu.Unlock()
	s.closed = true
	for c := range s.conns {
		c.Close()
	}
}

// serve handles one worker connection. When the connection ends — cleanly
// or not — any assignment it still holds is returned to the queue and
// re-issued to another participant: volunteer hosts leave all the time and
// the computation must not stall on them.
//
// Requests are handled strictly in arrival order and every reply but one
// kind is queued in that order: the ack of a result submission that
// journaled something is deferred until its commit window is down
// (resultBatch), so the lease riding behind the results may overtake it.
// The queue is flushed whenever the goroutine is about to block (beforeRecv,
// and the handlers before a lease parks), so a client that pipelines its
// results and its next work request is answered in one write (two with a
// journal), and one that waits for each reply gets each reply alone.
func (s *Supervisor) serve(conn net.Conn) error {
	cs := newConnState(conn)
	s.metrics.workersConnected.Inc()
	defer s.metrics.workersConnected.Dec()
	defer s.reclaim(cs)
	defer s.endWrites(cs)
	for {
		if err := s.beforeRecv(cs); err != nil {
			return err
		}
		m, err := cs.codec.Recv()
		if err != nil {
			return err
		}
		s.busy.Add(1)
		var reply Message
		switch m.Type {
		case MsgRegister:
			reply = s.register(m, cs)
		case MsgRequestWork, MsgGetWork, MsgResult, MsgResultBatch:
			if _, ok := cs.names[m.ParticipantID]; !ok {
				reply = Message{Type: MsgError, Reason: ReasonUnregistered,
					Error: "participant not registered on this connection"}
				break
			}
			// The single-item verbs are size-1 leases translated here, at
			// the connection edge: one item in, one item out, same core.
			// The clock is read once per request, here.
			now := time.Now()
			switch m.Type {
			case MsgRequestWork:
				reply = s.leaseBatch(m.ParticipantID, 1, true, cs, now)
				if reply.Type == MsgWorkBatch {
					it := reply.Work[0]
					reply = Message{Type: MsgWork, TaskID: it.TaskID, Copy: it.Copy,
						Kind: reply.Kind, Seed: it.Seed, Iters: reply.Iters}
				}
			case MsgGetWork:
				reply = s.leaseBatch(m.ParticipantID, m.Batch, false, cs, now)
			case MsgResult, MsgResultBatch:
				single := m.Type == MsgResult
				if single {
					cs.one[0] = ResultItem{TaskID: m.TaskID, Copy: m.Copy, Value: m.Value}
					m.Results = cs.one[:]
				}
				acks, deferred := s.resultBatch(m.ParticipantID, m.Results, single, cs, now)
				if deferred {
					continue // the ack follows its commit; the request stays busy till then
				}
				reply = ackReply(acks, single)
			}
		default:
			reply = Message{Type: MsgError, Reason: ReasonUnknownType,
				Error: fmt.Sprintf("unknown message type %q", m.Type)}
		}
		cs.wmu.Lock()
		err = s.queueLocked(cs, reply)
		cs.wmu.Unlock()
		if err != nil {
			s.unbusy(1)
			return err
		}
	}
}

// ackReply shapes a submission's acks as the reply its verb expects: a
// batch_ack, or for a single result the ack or error it is re-shaped into.
func ackReply(acks []ResultAck, single bool) Message {
	if !single {
		return Message{Type: MsgBatchAck, Acks: acks}
	}
	if a := acks[0]; !a.OK {
		return Message{Type: MsgError, Reason: a.Reason, Error: a.Error}
	}
	return Message{Type: MsgAck}
}

// resultBatch serves one participant's results. One critical section
// (settleResults) claims each result's copy from the lease table, feeds the
// claimed results through the verification pipeline in one SubmitBatch,
// which resolves their task slots before adjudicating any, queues their
// journal records with the committer in adjudication order, and completes
// the accepted copies, emitting every lease and verdict event under the
// one lock the chaos soak's event replay relies on. The committer's window
// covers the records with one buffered write and, with JournalSync, one
// fsync amortized over every submission queued meanwhile. Metrics and the
// rejection events follow outside it.
//
// The handler never waits for that commit. A submission that journaled
// something returns deferred: its acks and records stay in the ring slot
// they were built in, and the ack is encoded and written only after the
// window is down (queueDurableLocked), so an acked result survives a crash.
// One that journaled nothing is answered inline, after the acks of the
// submissions ahead of it, so acks stay in submission order. now is the
// caller's one clock reading for the submission: every step stamps and
// measures with it. The returned acks alias the slot and are valid until
// the next call.
func (s *Supervisor) resultBatch(pid int, results []ResultItem, single bool, cs *connState, now time.Time) (acks []ResultAck, deferred bool) {
	// Free by the run-ahead bound: beforeRecv let this request in with at
	// most maxDeferredAcks-1 slots taken.
	d := &cs.deferred[cs.dtail%maxDeferredAcks]
	accepted, deferred := s.settleResults(pid, results, cs, d, now)
	if accepted > 0 {
		s.metrics.resultsAccepted.Add(uint64(accepted))
		if s.metrics.shardAccepted != nil {
			s.metrics.shardAccepted.Add(uint64(accepted))
		}
		tn := s.metrics.turnaround.With(cs.names[pid])
		for _, p := range cs.pend {
			if p.failed {
				continue
			}
			tn.Observe(now.Sub(p.issuedAt).Seconds())
		}
	}
	for _, ack := range d.acks {
		if ack.OK {
			continue
		}
		s.metrics.resultsRejected.With(ack.Reason).Inc()
		if s.events != nil {
			s.events.Emit(EvResultRejected, map[string]any{
				"task": ack.TaskID, "copy": ack.Copy, "participant": pid, "reason": ack.Reason,
			})
		}
	}
	d.single = single
	switch {
	case deferred:
		s.deferAck(cs)
	case s.committer != nil:
		// Inline, but in order: this reply may not overtake the acks of the
		// submissions ahead of it.
		cs.wmu.Lock()
		s.awaitDeferredLocked(cs, 0)
		cs.wmu.Unlock()
	}
	return d.acks, deferred
}

// queueLocked encodes one reply behind those already queued. Callers hold
// wmu.
func (s *Supervisor) queueLocked(cs *connState, reply Message) error {
	// Shard-map epoch: every reply from a sharded supervisor carries the
	// cluster's current epoch, so a worker learns of a rebalance on its
	// very next round trip and re-resolves its routing. 0 (unsharded, or a
	// cluster before its first membership change) is omitted from the wire
	// entirely, so a quiet cluster's replies are a lone supervisor's.
	if e := s.epoch.Load(); e != 0 {
		reply.Epoch = e
	}
	if err := cs.codec.queue(reply); err != nil {
		return err
	}
	cs.queued++
	// Codec negotiation: the registered reply that echoes proto=bin is the
	// last JSON frame on the connection; both sides switch after it.
	if reply.Type == MsgRegistered && reply.Proto == ProtoBinary && !cs.codec.Binary() {
		cs.codec.EnableBinary()
	}
	return nil
}

// beforeRecv readies the connection for serve's next Recv. A connection
// that has run maxDeferredAcks commits ahead of the disk waits here for its
// oldest. The queue is flushed if the Recv can block on the peer or the
// queue has passed its bound. Only a Recv that can block needs a read
// deadline (the requests of a burst already received are served under
// none), and the peer's clock runs only while the next move is the peer's:
// with an ack of its own still waiting for the disk, its silence is the
// supervisor's doing, and the flush that carries its last ack starts the
// clock (flushLocked).
func (s *Supervisor) beforeRecv(cs *connState) error {
	blocking := !cs.codec.buffered()
	cs.wmu.Lock()
	defer cs.wmu.Unlock()
	s.awaitDeferredLocked(cs, maxDeferredAcks-1)
	if blocking || cs.codec.pending() > maxQueuedReplyBytes {
		s.flushLocked(cs)
	}
	if cs.werr != nil {
		return cs.werr // this flush, a handler's or the ack goroutine's found the connection dead
	}
	if blocking && s.cfg.IOTimeout > 0 {
		var deadline time.Time
		if cs.dhead == cs.dtail {
			deadline = time.Now().Add(s.cfg.IOTimeout)
		}
		cs.conn.SetReadDeadline(deadline)
	}
	return nil
}

// flushReplies writes what the connection has queued; see flushLocked.
// Handlers call it before they park, so a reply is never held behind a
// parked lease.
func (s *Supervisor) flushReplies(cs *connState) error {
	cs.wmu.Lock()
	defer cs.wmu.Unlock()
	return s.flushLocked(cs)
}

// unbusy lowers Shutdown's busy count by n, waking the drain if it empties.
func (s *Supervisor) unbusy(n int64) {
	if s.busy.Add(-n) == 0 && s.lease.draining.Load() {
		signal(s.lease.drained)
	}
}

// flushLocked writes the connection's queued replies, and every deferred
// ack whose commit is down by now, in one socket write, and lowers
// Shutdown's busy count by the requests they answer; with nothing to send
// it is free. The request being handled stays counted as busy until its
// own reply is flushed. A write error is sticky: serve ends the connection
// at its next beforeRecv. Callers hold wmu.
func (s *Supervisor) flushLocked(cs *connState) error {
	if cs.werr != nil {
		return cs.werr
	}
	acked := s.queueDurableLocked(cs)
	if cs.queued == 0 {
		return cs.werr
	}
	if s.cfg.IOTimeout > 0 {
		cs.conn.SetWriteDeadline(time.Now().Add(s.cfg.IOTimeout))
	}
	s.metrics.connFlushes.Inc()
	cs.werr = cs.codec.flush()
	s.foldWire(cs)
	s.unbusy(cs.queued)
	cs.queued = 0
	if acked > 0 && cs.dhead == cs.dtail && s.cfg.IOTimeout > 0 {
		// The peer has its last ack: the next move is its own again. (serve
		// may be in a Recv that beforeRecv armed with no deadline.)
		cs.conn.SetReadDeadline(time.Now().Add(s.cfg.IOTimeout))
	}
	return cs.werr
}

// queueDurableLocked queues, oldest first, every deferred ack whose commit
// window is down and reports how many. This is the one place a deferred ack
// is encoded, and it runs only after the committer published the window:
// no ack is ever written before the fsync covering its records returned.
// Callers hold wmu.
func (s *Supervisor) queueDurableLocked(cs *connState) (n int) {
	for cs.dhead != cs.dtail && cs.werr == nil {
		d := &cs.deferred[cs.dhead%maxDeferredAcks]
		if s.committer.durable.Load() < d.seq {
			break
		}
		if err := s.queueLocked(cs, ackReply(d.acks, d.single)); err != nil {
			cs.werr = err // the ack cannot be framed; endWrites drops it
			break
		}
		cs.dhead++
		n++
	}
	return n
}

// awaitDeferredLocked blocks until at most keep of the connection's acks
// still wait for their commit, queueing each as its window comes down.
// What is already queued is flushed before a wait, so nothing already
// answered waits out a commit. Called, and returns, with wmu held; the wait
// itself holds nothing.
func (s *Supervisor) awaitDeferredLocked(cs *connState, keep uint) {
	for {
		s.queueDurableLocked(cs)
		if cs.dtail-cs.dhead <= keep || cs.werr != nil {
			return
		}
		seq := cs.deferred[(cs.dtail-keep-1)%maxDeferredAcks].seq
		s.flushLocked(cs)
		cs.wmu.Unlock()
		s.committer.wait(seq, nil)
		cs.wmu.Lock()
	}
}

// deferAck publishes the slot resultBatch just filled and wakes the
// connection's ack goroutine, starting it at the connection's first
// deferred ack. Only serve calls it.
func (s *Supervisor) deferAck(cs *connState) {
	cs.wmu.Lock()
	cs.dtail++
	cs.wmu.Unlock()
	if cs.kick == nil {
		cs.kick = make(chan struct{}, 1)
		cs.gone = make(chan struct{})
		s.connWG.Add(1) // under serve's own count, so never from zero
		go func() { defer s.connWG.Done(); s.ackLoop(cs) }()
	}
	select {
	case cs.kick <- struct{}{}:
	default:
	}
}

// ackLoop is the connection's second writer, the one that belongs to the
// connection and not to the committer (which signals and never blocks on a
// peer): it sleeps until the oldest deferred ack's window is down, then
// takes the write side and flushes it, under the same write deadline as
// every flush. serve is usually blocked in a Recv by then; when it is not,
// whichever of the two flushes first carries the ack. It ends with the
// connection.
func (s *Supervisor) ackLoop(cs *connState) {
	for {
		cs.wmu.Lock()
		dead := cs.werr != nil
		pending := cs.dhead != cs.dtail
		var seq uint64
		if pending {
			seq = cs.deferred[cs.dhead%maxDeferredAcks].seq
		}
		cs.wmu.Unlock()
		if dead {
			return
		}
		if !pending {
			select {
			case <-cs.kick:
				continue
			case <-cs.gone:
				return
			}
		}
		if !s.committer.wait(seq, cs.gone) {
			return
		}
		_ = s.flushReplies(cs) // a dead connection is found at the top
	}
}

// endWrites closes the connection's write side as serve returns: however
// the connection ends, the replies already produced still go out (best
// effort), and Shutdown's drain stops counting the requests whose replies a
// dead connection never took, the acks still waiting for the disk among
// them (their results are claimed and journaled regardless).
func (s *Supervisor) endWrites(cs *connState) {
	cs.wmu.Lock()
	_ = s.flushLocked(cs) // the connection is ending either way
	s.foldWire(cs)        // bytes received since the last flush
	s.unbusy(cs.queued + int64(cs.dtail-cs.dhead))
	cs.queued, cs.dhead = 0, cs.dtail
	cs.wmu.Unlock()
	if cs.gone != nil {
		close(cs.gone)
	}
}

// foldWire adds the codec's wire-byte totals to the per-codec counters as
// deltas, at every flush and at disconnect, so /metrics lags a connection
// by at most one flush. Callers hold wmu.
func (s *Supervisor) foldWire(cs *connState) {
	j, b := cs.codec.WireBytes()
	if d := j - cs.seenJSON; d > 0 {
		s.metrics.wireBytesJSON.Add(uint64(d))
		cs.seenJSON = j
	}
	if d := b - cs.seenBin; d > 0 {
		s.metrics.wireBytesBin.Add(uint64(d))
		cs.seenBin = b
	}
}
