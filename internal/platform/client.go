package platform

import (
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"net"
	"sync/atomic"
	"time"

	"redundancy/internal/obs"
	"redundancy/internal/rng"
)

// CheatFunc lets a worker corrupt its results: it receives the task and the
// honestly computed value and returns what to submit. Nil means honest.
// Colluding workers share a CheatFunc (and any state behind it) so their
// incorrect values match.
type CheatFunc func(taskID int, honest uint64) uint64

// SpeedModel makes a worker's per-assignment compute time heterogeneous: a
// base duration, uniform jitter, and a straggler mixture — with probability
// StragglerP an assignment takes StragglerDelay extra. Draws come from the
// worker's own deterministic jitter stream, so a seeded run reproduces the
// same straggler pattern. It is the client half of the speculative-execution
// story: the supervisor's percentile tier exists to cut exactly this tail.
type SpeedModel struct {
	// Base is the fixed per-assignment compute time.
	Base time.Duration
	// Jitter widens Base uniformly to [Base, Base+Jitter).
	Jitter time.Duration
	// StragglerP is the per-assignment probability of a straggler episode.
	StragglerP float64
	// StragglerDelay is the extra time a straggler episode adds.
	StragglerDelay time.Duration
}

// delay draws one assignment's compute time from the model.
func (m *SpeedModel) delay(r *rng.Source) time.Duration {
	d := m.Base
	if m.Jitter > 0 {
		d += time.Duration(r.Float64() * float64(m.Jitter))
	}
	if m.StragglerP > 0 && r.Float64() < m.StragglerP {
		d += m.StragglerDelay
	}
	return d
}

// WorkerConfig parameterizes a worker client.
type WorkerConfig struct {
	// Addr is the supervisor's TCP address.
	Addr string
	// Name identifies the worker in supervisor logs.
	Name string
	// Cheat, when non-nil, corrupts results (a coalition member).
	Cheat CheatFunc
	// MaxAssignments, when positive, stops after that many completions
	// (simulates a participant leaving).
	MaxAssignments int
	// BatchSize, when greater than 1, selects the batch verbs: each
	// get_work round trip leases up to BatchSize assignments (the
	// supervisor caps the grant at its MaxBatch) and their values return
	// in a single result_batch. 0 or 1 runs the same loop over the
	// single-item verbs (request_work/result), one assignment per lease;
	// negative is rejected.
	BatchSize int
	// Speed, when non-nil, delays every assignment by a simulated compute
	// time (base + jitter + straggler mixture), drawn from the worker's
	// seeded jitter stream. A bare Base is a fixed delay that draws
	// nothing from the stream.
	Speed *SpeedModel
	// Proto selects the wire codec to request at registration: "" or
	// ProtoJSON keeps newline-delimited JSON; ProtoBinary asks for the
	// length-prefixed binary framing (PROTOCOL.md). The register exchange
	// itself is always JSON; the connection switches only after the
	// supervisor echoes the capability, so a worker requesting bin from an
	// older supervisor degrades to JSON instead of failing.
	Proto string
	// Reconnect makes session failures survivable: instead of returning the
	// first network error, the worker redials with exponential backoff,
	// resumes its identity (and any in-flight assignment) via a resume
	// register, and resubmits every result whose ack never arrived. Off, any
	// error ends the run — the pre-hardening behavior tests rely on.
	Reconnect bool
	// MaxReconnects caps consecutive failed sessions before giving up
	// (default 8). The counter resets whenever a session makes progress, so
	// a long run on a flaky link is not bounded by its total hiccup count.
	MaxReconnects int
	// BackoffBase is the first reconnect delay (default 50ms); each further
	// consecutive failure doubles it up to BackoffMax (default 5s). Delays
	// are jittered to ±50% so a herd of workers killed by one supervisor
	// restart does not redial in lockstep.
	BackoffBase time.Duration
	BackoffMax  time.Duration
	// Seed fixes the worker's jitter stream (backoff and no_work waits) for
	// reproducible tests. 0 derives a stream from Name and a process-wide
	// counter.
	Seed uint64
	// Dial, when non-nil, replaces net.Dial("tcp", addr) — the hook the
	// fault injector (internal/faults) plugs into.
	Dial func(addr string) (net.Conn, error)
	// Metrics, when non-nil, receives the worker's runtime metrics
	// (protocol RTT histogram, completion counters; see OBSERVABILITY.md).
	Metrics *obs.Registry
	// OnLeaseRTT, when non-nil, observes how long the worker waited for
	// every work-request reply (request_work and get_work), timed from the
	// write that carried the request to the moment the reply was read. In
	// the steady state that write also carried the previous lease's
	// results, so the observation is the whole per-cycle wait: the
	// supervisor's handling of the results and the queue and lock wait of
	// the lease itself — not their journal commit, which the lease does not
	// wait for. Invoked from the worker's own
	// goroutine; keep it cheap. The bench/ suite uses it to report
	// lease_p50_us and lease_p99_us.
	OnLeaseRTT func(time.Duration)
	// Events, when non-nil, receives one JSON line per worker event
	// (assignment_received, result_submitted, reconnect). Nil discards
	// events.
	Events *obs.Sink
}

// WorkerStats reports what one worker did.
type WorkerStats struct {
	ParticipantID int
	Completed     int
	Cheated       int
	// Epoch is the highest shard-map epoch seen in any supervisor reply
	// (0 against an unsharded supervisor, or a cluster that has not yet
	// killed or restored a shard). A sharded worker whose map is older
	// than this re-reads it (RunShardedWorker).
	Epoch uint64
}

// submission is one lease's results, sent and not yet acked.
type submission struct {
	results []ResultItem
	// sent is when the write that carried it left: the start of its ack's
	// round-trip sample, however many later writes the ack trails.
	sent time.Time
}

// workerState is what survives across sessions of one RunWorker call: the
// identity to resume, the submissions awaiting an ack, and the running
// stats.
type workerState struct {
	stats WorkerStats
	id    int    // participant ID, -1 before first registration
	token uint64 // resume credential minted by the supervisor
	// unacked holds, oldest first, the submissions whose ack has not
	// arrived. A supervisor with a journal acks a submission only once the
	// disk has it and hands out the next lease meanwhile, so several can be
	// out at once (the supervisor bounds how many); acks come back in
	// submission order, so each settles the oldest. All of them are
	// resubmitted after the next resume, so a crash between send and ack
	// cannot lose (or double-count) the work.
	unacked []submission
	// spare holds the result arrays of settled submissions for reuse: an
	// unacked submission owns its array until its ack arrives.
	spare      [][]ResultItem
	progressed bool // session made progress; resets the failure counter
}

// outstanding counts the results sent and not yet acked.
func (st *workerState) outstanding() int {
	n := 0
	for _, sub := range st.unacked {
		n += len(sub.results)
	}
	return n
}

// scratch returns an empty result array no unacked submission owns.
func (st *workerState) scratch() []ResultItem {
	if n := len(st.spare); n > 0 {
		r := st.spare[n-1]
		st.spare = st.spare[:n-1]
		return r[:0]
	}
	return nil
}

// terminalError marks a session error reconnecting cannot fix (e.g. the
// participant was blacklisted); RunWorker returns the wrapped error as-is.
type terminalError struct{ err error }

func (e *terminalError) Error() string { return e.err.Error() }
func (e *terminalError) Unwrap() error { return e.err }

// ErrBlacklisted marks a refusal no reconnect can fix: the supervisor
// convicted this participant and will never serve it again. RunWorker
// returns an error wrapping it; sharded workers use errors.Is to stop
// retrying a shard that has banned them (RunShardedWorker).
var ErrBlacklisted = errors.New("participant blacklisted by supervisor")

// maxNoWorkWait caps the supervisor-suggested no_work backoff: a corrupt or
// absurd Wait must not park the worker for minutes.
const maxNoWorkWait = 5 * time.Second

// noWorkDelay converts a no_work Wait (seconds) into a sleep, capped at
// maxNoWorkWait and jittered to [w/2, 3w/2) so workers poll out of phase
// instead of stampeding the supervisor in lockstep.
func noWorkDelay(wait float64, r *rng.Source) time.Duration {
	if wait <= 0 {
		return 0
	}
	d := time.Duration(wait * float64(time.Second))
	if d > maxNoWorkWait {
		d = maxNoWorkWait
	}
	return d/2 + time.Duration(r.Float64()*float64(d))
}

// reconnectDelay is the backoff before reconnect attempt number `attempt`
// (1-based): cfg.BackoffBase doubled per consecutive failure, capped at
// cfg.BackoffMax, jittered to [d/2, 3d/2).
func reconnectDelay(attempt int, cfg WorkerConfig, r *rng.Source) time.Duration {
	d, max := cfg.BackoffBase, cfg.BackoffMax
	if d <= 0 {
		d = 50 * time.Millisecond
	}
	if max <= 0 {
		max = 5 * time.Second
	}
	for i := 1; i < attempt && d < max; i++ {
		d *= 2
	}
	if d > max {
		d = max
	}
	return d/2 + time.Duration(r.Float64()*float64(d))
}

// workDelay sleeps for one assignment's simulated compute time under the
// worker's Speed model, when one is configured. It takes the model, not
// the WorkerConfig, so the work loop copies one pointer per item.
func workDelay(speed *SpeedModel, r *rng.Source) {
	if speed == nil {
		return
	}
	if d := speed.delay(r); d > 0 {
		time.Sleep(d)
	}
}

// workerSeq decorrelates the jitter streams of same-named workers started
// without an explicit Seed.
var workerSeq atomic.Uint64

func workerJitterSeed(cfg WorkerConfig) uint64 {
	if cfg.Seed != 0 {
		return cfg.Seed
	}
	h := fnv.New64a()
	io.WriteString(h, cfg.Name)
	return h.Sum64() ^ workerSeq.Add(1)
}

// RunWorker connects to the supervisor, registers, and processes
// assignments until the supervisor reports the computation done (or
// MaxAssignments is reached). It is the complete participant-side loop:
// download work, execute the local computation, return the result. With
// Reconnect set it also survives the connection dying under it: redial with
// backoff, resume the same identity, pick the in-flight assignment back up.
func RunWorker(cfg WorkerConfig) (WorkerStats, error) {
	if cfg.BatchSize < 0 {
		return WorkerStats{}, errors.New("platform: negative BatchSize")
	}
	reg := cfg.Metrics
	if reg == nil {
		reg = obs.NewRegistry() // instrument unconditionally; discard if unwanted
	}
	wm := newWorkerMetrics(reg)
	dial := cfg.Dial
	if dial == nil {
		dial = func(addr string) (net.Conn, error) { return net.Dial("tcp", addr) }
	}
	maxReconnects := cfg.MaxReconnects
	if maxReconnects <= 0 {
		maxReconnects = 8
	}
	r := rng.New(workerJitterSeed(cfg))
	st := &workerState{id: -1}
	failures := 0
	for {
		err := runSession(cfg, wm, st, dial, r)
		if err == nil {
			return st.stats, nil
		}
		var term *terminalError
		if errors.As(err, &term) {
			return st.stats, term.err
		}
		if !cfg.Reconnect {
			return st.stats, err
		}
		if st.progressed {
			failures = 0
			st.progressed = false
		}
		failures++
		if failures > maxReconnects {
			return st.stats, fmt.Errorf("platform: giving up after %d consecutive failed sessions: %w", failures-1, err)
		}
		wm.reconnects.Inc()
		if cfg.Events != nil {
			cfg.Events.Emit(EvReconnect, map[string]any{
				"attempt": failures, "participant": st.id, "error": err.Error(),
			})
		}
		time.Sleep(reconnectDelay(failures, cfg, r))
	}
}

// session is one connection's worth of worker protocol state: the codec,
// the verb pair BatchSize selected, and the clock the work request's reply
// is timed against.
type session struct {
	cfg   WorkerConfig
	wm    *workerMetrics
	st    *workerState
	codec *Codec
	// single selects the single-item verbs (request_work/result); recvLease
	// and settle hand the loop the batch shapes either way.
	single bool
	one    [1]WorkItem
	oneAck [1]ResultAck
	// sent is when the last write left. A reply is timed from the write
	// that carried its request: the lease from this, an ack from the copy
	// its submission took of it.
	sent time.Time
}

// flush writes the queued frames in one Write and starts the reply clock.
func (s *session) flush() error {
	s.sent = time.Now()
	return s.codec.flush()
}

// recv reads one reply.
func (s *session) recv() (Message, error) {
	m, err := s.codec.Recv()
	if err != nil {
		return Message{}, err
	}
	if m.Epoch > s.st.stats.Epoch {
		s.st.stats.Epoch = m.Epoch
	}
	return m, nil
}

// roundTrip is the strict exchange the registration handshake uses: one
// message out, its reply in.
func (s *session) roundTrip(m Message) (Message, error) {
	if err := s.codec.queue(m); err != nil {
		return Message{}, err
	}
	if err := s.flush(); err != nil {
		return Message{}, err
	}
	m, err := s.recv()
	if err == nil {
		s.wm.rtt.Observe(time.Since(s.sent).Seconds())
	}
	return m, err
}

// queueRequest queues a work request for up to n assignments.
func (s *session) queueRequest(n int) error {
	if s.single {
		return s.codec.queue(Message{Type: MsgRequestWork, ParticipantID: s.st.id})
	}
	return s.codec.queue(Message{Type: MsgGetWork, ParticipantID: s.st.id, Batch: n})
}

// queueResults queues the submission of a lease's results.
func (s *session) queueResults(results []ResultItem) error {
	if s.single {
		r := results[0]
		return s.codec.queue(Message{Type: MsgResult, ParticipantID: s.st.id,
			TaskID: r.TaskID, Copy: r.Copy, Value: r.Value})
	}
	return s.codec.queue(Message{Type: MsgResultBatch, ParticipantID: s.st.id, Results: results})
}

// markSent stamps the newest n unacked submissions with the write that
// just carried them.
func (s *session) markSent(n int) {
	u := s.st.unacked
	for i := len(u) - n; i < len(u); i++ {
		u[i].sent = s.sent
	}
}

// answersResults is the worker's half of PROTOCOL.md's reply-order rule: a
// lease may overtake the ack of results sent ahead of it, so a reply is
// matched by what it is. ack and batch_ack answer the oldest unacked
// submission, and so does an error carrying a reason only a result can
// draw; everything else answers the outstanding work request.
func answersResults(m Message) bool {
	switch m.Type {
	case MsgAck, MsgBatchAck:
		return true
	case MsgError:
		switch m.Reason {
		case ReasonUnassigned, ReasonWrongParticipant, ReasonVerification, ReasonDuplicate:
			return true
		}
	}
	return false
}

// recvLease reads up to the reply to the outstanding work request, settling
// every ack it meets on the way; a single work item comes back as the
// one-item work_batch it is.
func (s *session) recvLease() (Message, error) {
	for {
		m, err := s.recv()
		if err != nil {
			return Message{}, err
		}
		if answersResults(m) {
			if err := s.settle(m); err != nil {
				return Message{}, err
			}
			continue
		}
		s.wm.rtt.Observe(time.Since(s.sent).Seconds())
		if m.Type == MsgWork {
			s.one[0] = WorkItem{TaskID: m.TaskID, Copy: m.Copy, Seed: m.Seed}
			m = Message{Type: MsgWorkBatch, Kind: m.Kind, Iters: m.Iters, Work: s.one[:]}
		}
		return m, nil
	}
}

// recvAcks reads acks, with no work request outstanding, until at most keep
// submissions are still unacked.
func (s *session) recvAcks(keep int) error {
	for len(s.st.unacked) > keep {
		m, err := s.recv()
		if err != nil {
			return err
		}
		if !answersResults(m) {
			return fmt.Errorf("platform: unexpected reply %q (%s) while awaiting an ack", m.Type, m.Error)
		}
		if err := s.settle(m); err != nil {
			return err
		}
	}
	return nil
}

// settle books the supervisor's verdict on the oldest unacked submission:
// accepted results count as completed; a rejected one (reclaimed under a
// deadline, or forgotten by a restarted supervisor — the copy is someone
// else's now) ends the run unless the worker is in Reconnect mode, where
// such races are expected. Either way the submission is no longer unacked.
// A single ack or refusal is the one-item batch_ack it stands for. In
// both codec modes the acks alias codec scratch, so this runs before the
// next recv.
func (s *session) settle(ack Message) error {
	st := s.st
	if len(st.unacked) == 0 {
		return fmt.Errorf("platform: %q with no submission awaiting an ack", ack.Type)
	}
	sub := st.unacked[0]
	st.unacked = append(st.unacked[:0], st.unacked[1:]...)
	st.spare = append(st.spare, sub.results)
	s.wm.rtt.Observe(time.Since(sub.sent).Seconds())
	acks := ack.Acks
	if ack.Type != MsgBatchAck {
		r := sub.results[0]
		s.oneAck[0] = ResultAck{TaskID: r.TaskID, Copy: r.Copy, OK: ack.Type == MsgAck,
			Reason: ack.Reason, Error: ack.Error}
		acks = s.oneAck[:]
	}
	if len(acks) != len(sub.results) {
		return fmt.Errorf("platform: %s carries %d acks for %d results", ack.Type, len(acks), len(sub.results))
	}
	for _, a := range acks {
		if a.OK {
			st.stats.Completed++
			s.wm.completed.Inc()
			st.progressed = true
		} else if !s.cfg.Reconnect {
			return errors.New("platform: result rejected: " + a.Error)
		}
	}
	return nil
}

// room is how many assignments the next work request may ask for:
// BatchSize, capped by what MaxAssignments leaves once every result still
// awaiting its ack is accepted.
func (s *session) room() int {
	want := max(s.cfg.BatchSize, 1)
	if s.cfg.MaxAssignments > 0 {
		want = min(want, s.cfg.MaxAssignments-s.st.stats.Completed-s.st.outstanding())
	}
	return max(want, 0)
}

// runSession runs one connection's worth of the worker loop: dial, register
// (or resume), resubmit every unacked submission, then request/execute/
// submit until done. A nil return ends RunWorker; errors are retried or not
// by the caller.
func runSession(cfg WorkerConfig, wm *workerMetrics, st *workerState, dial func(string) (net.Conn, error), r *rng.Source) error {
	conn, err := dial(cfg.Addr)
	if err != nil {
		return err
	}
	defer conn.Close()
	s := &session{cfg: cfg, wm: wm, st: st, codec: NewCodec(conn), single: cfg.BatchSize <= 1}

	// Register — or, after a reconnect, resume the identity we already hold
	// so credit accrues to one participant and the supervisor can hand back
	// the assignment this worker still owes.
	reg := Message{Type: MsgRegister, Name: cfg.Name, Proto: cfg.Proto}
	if st.id >= 0 {
		reg.Resume, reg.ParticipantID, reg.Token = true, st.id, st.token
	}
	welcome, err := s.roundTrip(reg)
	if err != nil {
		return err
	}
	if welcome.Type == MsgError && welcome.Reason == ReasonResumeRefused && st.id >= 0 {
		// The supervisor does not know us — typically it restarted and
		// resume tokens are in-memory. Start over with a fresh identity;
		// the unacked results name assignments that no longer exist.
		// (Refusals arrive in JSON: the codec only switches on a registered
		// reply, so the fresh register below re-negotiates from scratch.)
		st.id, st.token, st.unacked = -1, 0, nil
		welcome, err = s.roundTrip(Message{Type: MsgRegister, Name: cfg.Name, Proto: cfg.Proto})
		if err != nil {
			return err
		}
	}
	if welcome.Type != MsgRegistered {
		err := fmt.Errorf("platform: unexpected registration reply %q: %s", welcome.Type, welcome.Error)
		if welcome.Reason == ReasonBlacklisted {
			return &terminalError{fmt.Errorf("%w: %v", ErrBlacklisted, err)}
		}
		return err
	}
	if welcome.Proto == ProtoBinary {
		// The supervisor granted proto=bin and switched after sending this
		// reply; everything from here on is binary-framed.
		s.codec.EnableBinary()
	}
	st.id = welcome.ParticipantID
	st.token = welcome.Token
	st.stats.ParticipantID = st.id

	// Resubmit every submission whose ack never arrived, oldest first in
	// one write, and alone: the work request that follows a resume is a
	// bare one, because the supervisor answers it with every assignment
	// this identity still holds. An OK ack means the crash hit between send
	// and ack and the original submission was lost; a rejection means it
	// landed (the duplicate is "unassigned") or the copy was reclaimed
	// meanwhile — either way it is out of our hands now.
	if n := len(st.unacked); n > 0 {
		for _, sub := range st.unacked {
			if err := s.queueResults(sub.results); err != nil {
				return err
			}
		}
		if err := s.flush(); err != nil {
			return err
		}
		s.markSent(n)
		if err := s.recvAcks(0); err != nil {
			return err
		}
	}
	return s.leaseLoop(r)
}

// leaseLoop is the worker's one lease/execute/submit loop, one round trip
// per lease: every item of a lease is executed locally, then the values
// and the next work request leave in one write, and the supervisor's next
// lease comes back behind it. The ack comes when the supervisor's journal
// has the results, which may be after that lease (and after later ones):
// the loop never waits for an ack while it can work, settles acks as it
// meets them on the way to a lease, and collects the rest before it
// returns. The request rides with the results, never ahead of them, so the
// supervisor never sees this worker ask for work while it holds any. The
// first lease, the lease after a no_work, and the lease after a cycle that
// left no room under MaxAssignments at the time are asked for with a bare
// request. The unacked-submission crash window covers every lease sent:
// results are recorded before they are sent, and resubmitted after a
// resume (runSession).
func (s *session) leaseLoop(r *rng.Source) error {
	cfg, wm, st := s.cfg, s.wm, s.st
	var cheatedOn []bool // per-lease scratch for the result_submitted events
	requested := false   // a work request is on the wire, its reply not yet read
	for {
		if !requested {
			want := s.room()
			if want == 0 {
				// MaxAssignments is spoken for by the results sent. With
				// none unacked the run is over; otherwise the oldest ack
				// may still refuse some and leave room.
				if len(st.unacked) == 0 {
					return nil
				}
				if err := s.recvAcks(len(st.unacked) - 1); err != nil {
					return err
				}
				continue
			}
			if err := s.queueRequest(want); err != nil {
				return err
			}
			if err := s.flush(); err != nil {
				return err
			}
		}
		m, err := s.recvLease()
		if err != nil {
			return err
		}
		requested = false
		if cfg.OnLeaseRTT != nil {
			cfg.OnLeaseRTT(time.Since(s.sent))
		}
		switch m.Type {
		case MsgDone:
			return s.recvAcks(0) // done overtook the last acks, as a lease would
		case MsgNoWork:
			wm.noWork.Inc()
			time.Sleep(noWorkDelay(m.Wait, r))
			continue
		case MsgError:
			err := errors.New("platform: supervisor refused work: " + m.Error)
			if m.Reason == ReasonBlacklisted {
				return &terminalError{fmt.Errorf("%w: %v", ErrBlacklisted, err)}
			}
			return err
		case MsgWorkBatch:
			// fall through to execution below
		default:
			return fmt.Errorf("platform: unexpected reply %q", m.Type)
		}
		if len(m.Work) == 0 {
			return errors.New("platform: empty work_batch lease")
		}
		work, err := Work(m.Kind)
		if err != nil {
			// A corrupt frame can garble Kind; reconnecting gets the lease
			// re-issued intact, so this is not terminal.
			return err
		}
		results := st.scratch()
		cheatedOn = cheatedOn[:0]
		for _, item := range m.Work {
			if cfg.Events != nil {
				cfg.Events.Emit(EvAssignmentReceived, map[string]any{
					"task": item.TaskID, "copy": item.Copy, "kind": m.Kind,
				})
			}
			st.progressed = true
			workDelay(cfg.Speed, r)
			value := work(item.Seed, m.Iters)
			cheated := false
			if cfg.Cheat != nil {
				if v := cfg.Cheat(item.TaskID, value); v != value {
					value = v
					cheated = true
					st.stats.Cheated++
					wm.cheats.Inc()
				}
			}
			results = append(results, ResultItem{TaskID: item.TaskID, Copy: item.Copy, Value: value})
			cheatedOn = append(cheatedOn, cheated)
		}
		// Record the submission before sending: if the connection dies
		// anywhere between here and the ack, the next session resubmits
		// the whole lease.
		st.unacked = append(st.unacked, submission{results: results})
		if err := s.queueResults(results); err != nil {
			return err
		}
		if want := s.room(); want > 0 {
			if err := s.queueRequest(want); err != nil {
				return err
			}
			requested = true
		}
		if err := s.flush(); err != nil {
			return err
		}
		s.markSent(1)
		if cfg.Events != nil {
			for i, item := range results {
				cfg.Events.Emit(EvResultSubmitted, map[string]any{
					"task": item.TaskID, "copy": item.Copy, "cheated": cheatedOn[i],
				})
			}
		}
	}
}

// Coalition is the client-side analogue of the adversary model: a group of
// workers that share one cheat policy and return identical wrong values.
// Whether a task is cheated on (with probability CheatProbability) is a
// coin fixed by (seed, task), so every member that meets the task makes
// the same decision without sharing any state.
type Coalition struct {
	// CheatProbability is the chance a task is marked for cheating. 1
	// reproduces the paper's always-cheat coalition.
	CheatProbability float64

	seed uint64
}

// NewCoalition builds a coalition with the given per-task cheat
// probability, deterministic in seed.
func NewCoalition(cheatProbability float64, seed uint64) *Coalition {
	return &Coalition{CheatProbability: cheatProbability, seed: seed}
}

// CheatFunc returns the shared cheat function to install in each member's
// WorkerConfig.
func (c *Coalition) CheatFunc() CheatFunc {
	return func(taskID int, honest uint64) uint64 {
		if c.cheatsOn(taskID) {
			return honest ^ 0xDEADBEEFCAFEBABE
		}
		return honest
	}
}

func (c *Coalition) cheatsOn(taskID int) bool {
	switch {
	case c.CheatProbability >= 1:
		return true
	case c.CheatProbability <= 0:
		return false
	}
	z := rng.Mix64(c.seed ^ (uint64(taskID)+1)*0x9E3779B97F4A7C15)
	return float64(z>>11)/(1<<53) < c.CheatProbability
}
