package platform

// The lease domain's shell around its lease.Table: parking, draining, the
// binding of participants to connections, and the calls requests and sweeps
// come in by. The state mutex (stateMu), which guards this shell, the table
// and the audit state, is locked only in this file.

import (
	"context"
	"sync/atomic"
	"time"

	"redundancy/internal/health"
	"redundancy/internal/lease"
	"redundancy/internal/sched"
	"redundancy/internal/verify"
)

// leaseState is the shell and its table, both guarded by stateMu. Lease
// lifecycle and verdict events are emitted under stateMu, so the event
// stream witnesses the history in order; the chaos soak replays it.
type leaseState struct {
	*lease.Table
	// conns[pid] is the connection pid was last registered or resumed on:
	// a disconnect ends the holds of the participants still bound to it.
	conns map[int]*connState

	finished bool
	draining atomic.Bool   // Shutdown in progress: no new assignments; set under stateMu, read by unbusy too
	drained  chan struct{} // one slot: raised as live or busy reaches 0 while draining
	// waiters parks the get_work requests that found the queue empty, until
	// kickLeaseLocked closes their channels.
	waiters []chan struct{}
}

// leaseParkMax bounds how long an empty-handed get_work request may park
// waiting for assignments before it falls back to a no_work reply. Long
// enough to absorb the common "queue momentarily empty near the tail"
// window, short enough that a worker still polls through pathological
// stalls.
const leaseParkMax = time.Second

// refusals words each lease.Refusal as a result's ack does.
var refusals = [...]struct{ reason, detail string }{
	lease.Unassigned:       {ReasonUnassigned, "result for unassigned work"},
	lease.WrongParticipant: {ReasonWrongParticipant, "result from wrong participant"},
	lease.Duplicate:        {ReasonDuplicate, "copy already completed by the other racer"},
}

// released observes, under stateMu, a hold the table ended without a
// result: one reclaimed{reason} count, one assignment_reclaimed event and
// one log line, and a copy back in the queue wakes parked leases. An
// expired hold is also health evidence (disconnect churn deliberately is
// not), and a quarantine it causes is one bad observation for the adaptive
// estimator, live only: the journal does not record the failures behind
// it (applyVerdict feeds a verdict-caused quarantine itself).
func (s *Supervisor) released(e lease.End) {
	a, pid := e.Assignment, e.Participant
	a.TaskID = s.cfg.ids.global(a.TaskID)
	switch e.Outcome {
	case lease.CloneDropped:
		s.logf("%s: dropped participant %d's clone of task %d copy %d", e.Reason, pid, a.TaskID, a.Copy)
	case lease.Passed:
		s.logf("%s: task %d copy %d passed from participant %d to its clone holder %d",
			e.Reason, a.TaskID, a.Copy, pid, e.Heir)
	case lease.Requeued:
		if s.lease.Live() == 0 && s.lease.draining.Load() {
			signal(s.lease.drained)
		}
		s.kickLeaseLocked()
		s.logf("%s: reclaimed task %d copy %d from participant %d", e.Reason, a.TaskID, a.Copy, pid)
	}
	s.metrics.reclaimed.With(e.Reason).Inc()
	if s.events != nil {
		s.events.Emit(EvAssignmentReclaimed, map[string]any{
			"task": a.TaskID, "copy": a.Copy, "participant": pid, "reason": e.Reason,
		})
	}
	if s.cfg.Health == nil || e.Now.IsZero() { // only an expiry has a clock reading
		return
	}
	if tr := s.roster.ObserveReclaim(pid, e.Now); tr != nil {
		if s.audit.est != nil {
			s.audit.est.Observe(1, 1)
		}
		s.pushTransition(*tr)
	}
}

// bind makes cs the connection pid is served over, at its registration
// and at every resume, and reports how many copies pid holds, as primary
// or clone; it refuses (ok false) a participant convicted on ringer
// evidence. A resume moves no hold: the copies stay pid's, its next lease
// re-sends its primaries over cs, and the end of the connection it left
// reclaims none of them.
func (s *Supervisor) bind(pid int, cs *connState) (holds int, ok bool) {
	s.stateMu.Lock()
	defer s.stateMu.Unlock()
	if s.audit.collector.Convicted(pid) {
		return 0, false
	}
	s.lease.conns[pid] = cs
	return s.lease.Holds(pid), true
}

// withState runs fn holding stateMu: the way in for the code off the
// request path that reads or changes state outside this file (the
// adaptive tick, snapshot capture and the audit readers).
func (s *Supervisor) withState(fn func()) {
	s.stateMu.Lock()
	defer s.stateMu.Unlock()
	fn()
}

// reclaim ends every hold of the participants a dead connection was still
// serving (those still bound to it), unbinds them and records their
// departure; cs.names is cut down to them. One that has resumed on another
// connection has not left, and its holds stay out.
func (s *Supervisor) reclaim(cs *connState) {
	s.stateMu.Lock()
	for pid := range cs.names {
		if s.lease.conns[pid] == cs {
			delete(s.lease.conns, pid)
		} else {
			delete(cs.names, pid)
		}
	}
	if len(cs.names) > 0 {
		s.lease.EndHolds(func(pid int) bool { _, ok := cs.names[pid]; return ok }, "disconnect")
	}
	s.stateMu.Unlock()
	if s.events != nil {
		for id, name := range cs.names {
			s.events.Emit(EvWorkerLeft, map[string]any{"participant": id, "name": name})
		}
	}
}

// kickLeaseLocked wakes every parked get_work request to re-check the
// queue: wherever assignments may have become available (completions,
// reclaims, revisions) or parked requests must see draining or finished.
// Each channel is closed once: a parked request appends a fresh one.
func (s *Supervisor) kickLeaseLocked() {
	for _, ch := range s.lease.waiters {
		close(ch)
	}
	s.lease.waiters = s.lease.waiters[:0]
}

// workItem is copy a as a lease carries it, under its global task ID.
func (s *Supervisor) workItem(a sched.Assignment) WorkItem {
	id := s.cfg.ids.global(a.TaskID)
	return WorkItem{TaskID: id, Copy: a.Copy, Seed: TaskSeed(id)}
}

// leaseBatch fills one lease: under stateMu it refuses a participant
// convicted on ringer evidence, then re-issues every copy this participant
// holds — the whole lease comes back after a resume — then fills the
// remainder with clones and fresh queue pops, up to min(want, MaxBatch);
// over a connection the participant has since left it re-issues only. A
// request that finds the queue empty parks (up to leaseParkMax) until a
// kick instead of bouncing a no_work retry off the supervisor. single
// marks a request_work, whose reply has room for one item. Its time in
// here, parking included, is the lease-wait histogram. now is the caller's
// one clock reading, read again only after a park, so the copies of one
// reply share one issue time.
func (s *Supervisor) leaseBatch(pid, want int, single bool, cs *connState, now time.Time) Message {
	defer func(start time.Time) {
		s.metrics.leaseWait.Observe(time.Since(start).Seconds())
	}(now)
	if s.metrics.shardRouted != nil {
		s.metrics.shardRouted.Inc()
	}
	if want < 1 {
		want = 1
	}
	if want > s.cfg.MaxBatch {
		want = s.cfg.MaxBatch
	}
	s.stateMu.Lock()
	// Only conclusive (ringer) evidence denies further work: a 2-way
	// mismatch cannot say which party lied, and refusing every suspect
	// would let an adversary starve the computation by framing honest
	// participants.
	if s.audit.collector.Convicted(pid) {
		s.stateMu.Unlock()
		return Message{Type: MsgError, Reason: ReasonBlacklisted, Error: "participant is blacklisted"}
	}
	// Health gate: quarantined participants lease nothing; probationary
	// ones lease only ringers (work whose answer the supervisor already
	// knows), so re-admission can be earned without risking real results.
	// AnyUnhealthy keeps the all-healthy hot path to one atomic-free check.
	probation := false
	if s.roster != nil && s.roster.AnyUnhealthy() {
		switch s.roster.State(pid) {
		case health.Quarantined:
			s.stateMu.Unlock()
			return Message{Type: MsgNoWork, Wait: 0.5}
		case health.Probation:
			probation = true
		}
	}
	items := cs.items[:0]
	fresh, specIssued := 0, 0
	var deadline time.Time // parking budget; set on first empty pass
	var empty Message      // the reply when the request ends empty-handed
	// Re-issues are not capped by want: the worker must learn about every
	// copy it still holds, or a resumed lease could silently shrink. A
	// request_work reply carries one; the rest follow on later requests.
	reissues := s.lease.Reissue(pid, now, func(a sched.Assignment) bool {
		it := s.workItem(a)
		items = append(items, it)
		if s.events != nil {
			s.events.Emit(EvAssignmentIssued, map[string]any{
				"task": it.TaskID, "copy": a.Copy,
				"participant": pid, "ringer": a.Ringer, "reissue": true,
			})
		}
		return !single
	})
	for {
		if s.lease.finished {
			empty = Message{Type: MsgDone}
			break
		}
		// Nothing new goes out while draining, or over a connection the
		// participant has left.
		issuing := !s.lease.draining.Load() && s.lease.conns[pid] == cs
		// Straggler clones go out ahead of fresh queue pops, to healthy
		// requesters only: a flagged copy is the work blocking a task's
		// certification, the most valuable lease in the system.
		if issuing && !probation && len(items) < want {
			specIssued += s.lease.Clones(pid, now, func(a sched.Assignment, straggler int) bool {
				it := s.workItem(a)
				items = append(items, it)
				if s.events != nil {
					s.events.Emit(EvAssignmentSpeculated, map[string]any{
						"task": it.TaskID, "copy": a.Copy, "participant": pid, "straggler": straggler,
					})
				}
				return len(items) < want
			})
		}
		if issuing && len(items) < want {
			fill := cs.fill[:0]
			if probation {
				for len(items)+len(fill) < want {
					a, ok := s.lease.Queue().NextRinger()
					if !ok {
						break
					}
					fill = append(fill, a)
				}
			} else {
				fill = s.lease.Queue().NextBatch(fill, want-len(items))
			}
			cs.fill = fill[:0]
			for _, a := range fill {
				s.lease.Issue(a, pid, now)
				fresh++
				it := s.workItem(a)
				items = append(items, it)
				if s.events != nil {
					ev := map[string]any{"task": it.TaskID, "copy": a.Copy, "participant": pid, "ringer": a.Ringer}
					if probation {
						ev["probation"] = true
					}
					s.events.Emit(EvAssignmentIssued, ev)
				}
			}
		}
		if len(items) > 0 {
			break
		}
		if probation {
			// No ringer ready and none held. Probation is time-bounded:
			// when the ringer supply is spent (some plans mint none at
			// all), a participant that has sat out a full extra Probation
			// period re-admits on the clock — otherwise a fleet-wide
			// quarantine deadlocks the run with work still queued. On
			// re-admission, fall through to the regular pool this pass.
			if tr := s.roster.ObserveRingerStarved(pid, now); tr != nil {
				s.pushTransition(*tr)
				probation = false
				continue
			}
			// Still on the clock; do not park a probationary worker against
			// the regular pool, just have it retry.
			empty = Message{Type: MsgNoWork, Wait: 0.5}
			break
		}
		if !issuing {
			empty = Message{Type: MsgNoWork, Wait: 0.2}
			break
		}
		if s.lease.Queue().Done() {
			empty = Message{Type: MsgDone}
			break
		}
		if deadline.IsZero() {
			deadline = now.Add(leaseParkMax)
		}
		wait := deadline.Sub(now)
		if wait <= 0 {
			empty = Message{Type: MsgNoWork, Wait: 0.05}
			break
		}
		ch := make(chan struct{})
		s.lease.waiters = append(s.lease.waiters, ch)
		s.stateMu.Unlock()
		// The replies queued ahead of this request (the ack of the results
		// it was pipelined behind) must not wait out the park.
		if s.flushReplies(cs) != nil {
			return Message{Type: MsgNoWork, Wait: 0.2} // dead connection; serve ends it
		}
		t := time.NewTimer(wait)
		stopped := false
		select {
		case <-ch:
		case <-t.C:
		case <-s.stop:
			stopped = true
		}
		t.Stop()
		if stopped {
			// Teardown in progress; the connection is about to be closed.
			return Message{Type: MsgNoWork, Wait: 0.2}
		}
		s.stateMu.Lock()
		now = time.Now()
	}
	s.stateMu.Unlock()
	if len(items) == 0 {
		return empty
	}
	cs.items = items // keep the grown backing array for the next lease
	if reissues > 0 {
		s.metrics.reissued.Add(uint64(reissues))
	}
	if fresh > 0 {
		s.metrics.assignmentsIssued.Add(uint64(fresh))
		if s.metrics.shardIssued != nil {
			s.metrics.shardIssued.Add(uint64(fresh))
		}
	}
	if specIssued > 0 {
		s.metrics.speculativeIssued.Add(uint64(specIssued))
	}
	s.metrics.batchesIssued.Inc()
	s.metrics.batchSize.Observe(float64(len(items)))
	return Message{Type: MsgWorkBatch, Kind: s.cfg.WorkKind, Iters: s.cfg.Iters, Work: items}
}

// settleResults is resultBatch's one critical section. Under stateMu it
// claims every result's copy from the lease table, answering each in
// d.acks, adjudicates the claimed ones (adjudicateLocked), completes those
// verification accepted, and wakes parked leases if copies were released
// or the run finished. It reports how many it accepted (the rest are
// marked failed in cs.pend) and whether the ack must wait for the records
// it queued with the committer.
func (s *Supervisor) settleResults(pid int, results []ResultItem, cs *connState, d *deferredAck, now time.Time) (accepted int, deferred bool) {
	acks, pend, subs := d.acks[:0], cs.pend[:0], cs.subs[:0]
	s.stateMu.Lock()
	defer s.stateMu.Unlock()
	for _, r := range results {
		a, issuedAt, refused, cloneWon := s.lease.Claim(pid, s.cfg.ids.local(r.TaskID), r.Copy, now)
		if cloneWon {
			s.metrics.speculativeWins.Inc()
		}
		switch refused {
		case 0:
			pend = append(pend, pendingResult{idx: len(acks), issuedAt: issuedAt})
			subs = append(subs, verify.Result{Assignment: a, Participant: pid, Value: r.Value})
		case lease.Duplicate:
			s.metrics.speculativeWasted.Inc()
		}
		why := refusals[refused]
		acks = append(acks, ResultAck{TaskID: r.TaskID, Copy: r.Copy, OK: refused == 0, Reason: why.reason, Error: why.detail})
	}
	d.acks, cs.pend, cs.subs = acks, pend, subs
	if len(pend) == 0 {
		return 0, false
	}
	deferred = s.adjudicateLocked(pid, cs, d, now)
	for i := range pend {
		if pend[i].failed {
			continue
		}
		a := subs[i].Assignment
		s.lease.Queue().Complete(a)
		accepted++
		if s.roster != nil {
			s.roster.ObserveCompletion(pid, now.Sub(pend[i].issuedAt))
		}
		if s.events != nil {
			s.events.Emit(EvResultAccepted, map[string]any{
				"task": s.cfg.ids.global(a.TaskID), "copy": a.Copy, "participant": pid,
			})
		}
	}
	// The last completion finishes the run; any completion may have
	// released held-back copies worth waking parked leases for.
	if s.lease.Queue().Done() && !s.lease.finished {
		s.lease.finished = true
		close(s.done)
		s.kickLeaseLocked()
	} else if len(s.lease.waiters) > 0 && s.lease.Queue().Available() {
		s.kickLeaseLocked()
	}
	return accepted, deferred
}

// sweepExpired is the periodic sweep at now: it reclaims assignments held
// past the deadline, flags straggling leases for speculative reissue, ends
// every hold of a quarantined participant, advances the roster's timed
// transitions and refreshes the health gauges.
// The quarantine pass runs after expiry, whose reclaims can quarantine the
// holder of an earlier record, and before roster.Tick, the one way out of
// Quarantined. So every participant quarantined since the last sweep, by a
// verdict or by this sweep's expiry, loses its holds here, and one
// quarantined earlier already holds nothing.
func (s *Supervisor) sweepExpired(now time.Time) {
	s.stateMu.Lock()
	if s.cfg.Deadline > 0 {
		s.lease.Expire(now, s.cfg.Deadline)
	}
	// Speculative tier: flag the copies leased longer than the completion
	// time percentile, for leaseBatch to clone to another participant.
	if s.cfg.SpeculatePct > 0 && !s.lease.draining.Load() && !s.lease.finished {
		if q, ok := s.roster.Quantile(s.cfg.SpeculatePct); ok && s.lease.Flag(now.Add(-q)) > 0 {
			s.kickLeaseLocked() // parked leases can serve the new candidates
		}
	}
	if s.cfg.Health != nil && s.roster.AnyUnhealthy() {
		s.lease.EndHolds(func(pid int) bool { return s.roster.State(pid) == health.Quarantined }, "quarantine")
		for _, tr := range s.roster.Tick(now) {
			s.pushTransition(tr)
		}
	}
	if s.roster != nil {
		for _, ph := range s.roster.Snapshot() {
			s.healthGauge(ph.Participant).Set(ph.Score)
		}
	}
	s.stateMu.Unlock()
}

// drainLeases stops issuing assignments, wakes parked leases to observe
// that, and waits on drained until no assignment is in flight and no
// request is mid-reply, or ctx expires. The lease table is read first: a
// result handler raises busy before its claim empties the table and lowers
// it (raising drained) only once its ack has been flushed, which is after
// its commit; a release that empties the table raises drained itself.
func (s *Supervisor) drainLeases(ctx context.Context) bool {
	s.stateMu.Lock()
	s.lease.draining.Store(true)
	s.kickLeaseLocked()
	for {
		n := s.lease.Live()
		s.stateMu.Unlock()
		if n == 0 && s.busy.Load() == 0 {
			return true
		}
		select {
		case <-ctx.Done():
			return false
		case <-s.lease.drained:
		}
		s.stateMu.Lock()
	}
}

// signal raises a one-slot wake channel; a wake already pending absorbs it.
func signal(ch chan struct{}) {
	select {
	case ch <- struct{}{}:
	default:
	}
}
