package platform

// The lease domain: who holds each outstanding copy. Every copy out is one
// record naming its primary holder and, while the speculative tier races
// it, a clone holder; a holder is a participant and an issue time. Records
// live in a pool (lease.recs, with its free list) bounded by the copies out
// at once; lease.byTask finds a task's first record and the records of one
// task are chained through leaseRecord.next, so issue, claim and release
// touch no hash map. A copy enters the table at issue and leaves it by
// claim (a result) or by releaseLocked (every other way a hold ends). The
// table's one link to a connection is lease.conns, the connection each
// participant is served over, and only the shell (leaseBatch, the result
// phases, reclaim and bind) names a connection. DESIGN.md §13 has the
// rules. lease.mu is locked only in this file (and by withLeaseAndAudit,
// the one function that locks it and audit.mu).

import (
	"context"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"redundancy/internal/health"
	"redundancy/internal/sched"
	"redundancy/internal/verify"
)

// leaseState guards the scheduler queue and the lease table. Lease-lifecycle
// events (assignment_issued, result_accepted, assignment_reclaimed) are
// emitted while holding lease.mu, so the event stream is a serialization
// witness of lease history — the chaos property test replays it through a
// state machine.
type leaseState struct {
	mu    sync.Mutex
	queue *sched.Queue
	// The lease table. recs is the record pool: a record is in use while
	// its primary has an owner, and free holds the indices of the others.
	// live counts the records in use, so live+len(free) == len(recs).
	// byTask[taskID] is 1 + the index of the task's first record, 0 for a
	// task with no copy out; it is allocated at construction for the
	// highest task ID and grows only when a revision mints past it.
	recs   []leaseRecord
	free   []int32
	live   int
	byTask []int32
	// primaries[pid] counts the records whose primary pid holds, so a lease
	// walks the pool to re-issue only when its requester holds something.
	// conns[pid] is the connection pid was last registered or resumed on:
	// a disconnect ends the holds of the participants still bound to it.
	primaries []int32
	conns     map[int]*connState

	finished bool
	draining atomic.Bool   // Shutdown in progress: no new assignments; set under mu, read by unbusy too
	drained  chan struct{} // one slot: raised as live or busy reaches 0 while draining
	// waiters parks get_work requests that found the queue empty; each
	// channel is closed (once) by kickLeaseLocked when completions, reclaims,
	// or revisions may have made assignments available. Parking replaces
	// most of the no_work/sleep/retry polling near queue exhaustion.
	waiters []chan struct{}

	// Speculative reissue (SpeculatePct): flagged counts the records whose
	// clone is a flag (the sweeper found the primary straggling), each
	// waiting for a second participant to lease a clone; specLosers
	// remembers, for a grace window, which participant lost each resolved
	// race so a late submission gets a precise "duplicate" rejection
	// instead of "unassigned".
	flagged    int
	specLosers map[outstandingKey]specLoser
}

// leaseParkMax bounds how long an empty-handed get_work request may park
// waiting for assignments before it falls back to a no_work reply. Long
// enough to absorb the common "queue momentarily empty near the tail"
// window, short enough that a worker still polls through pathological
// stalls.
const leaseParkMax = time.Second

// specLoser records the losing side of a resolved speculative race.
type specLoser struct {
	participant int
	at          time.Time
}

// outstandingKey identifies one issued copy so results can be matched
// back. Keyed by (task, copy).
type outstandingKey struct{ task, copy int }

// holder is one participant's hold on a copy, since issuedAt: a caller's
// clock reading, which is never the zero time.
type holder struct {
	participant int
	issuedAt    time.Time
}

// live reports whether h holds the copy: a clone that is only a flag has
// no issue time yet, and neither has the primary of a free record.
func (h *holder) live() bool { return h != nil && !h.issuedAt.IsZero() }

// leaseRecord is one outstanding copy. The primary is the holder the queue
// issued it to. clone stays nil unless the speculative tier races the
// copy: without an issue time it is a flag (the sweeper found the primary
// straggling, and lease.flagged counts it), with one it is a duplicate held
// by a participant other than the primary. A clone lives outside the
// queue's accounting: whichever holder submits first claims the copy, and
// the queue sees one Complete or one Abandon for it either way.
type leaseRecord struct {
	a       sched.Assignment
	primary holder
	clone   *holder
	next    int32 // 1 + the index of the task's next record, 0 ends the chain
}

// findLocked returns the index of the record of the copy at key, or -1
// when that copy is not out. key may come off the wire, so any task ID is
// accepted. Callers hold lease.mu.
func (s *Supervisor) findLocked(key outstandingKey) int32 {
	if key.task < 0 || key.task >= len(s.lease.byTask) {
		return -1
	}
	for j := s.lease.byTask[key.task]; j != 0; j = s.lease.recs[j-1].next {
		if s.lease.recs[j-1].a.Copy == key.copy {
			return j - 1
		}
	}
	return -1
}

// growByTaskLocked extends byTask to cover task IDs up to top, for the
// ringers a revision mints past the end of the plan. Callers hold
// lease.mu.
func (s *Supervisor) growByTaskLocked(top int) {
	if n := top + 1; n > len(s.lease.byTask) {
		s.lease.byTask = append(s.lease.byTask, make([]int32, n-len(s.lease.byTask))...)
	}
}

// countLocked adds d to pid's count of primaries, growing the counts to
// cover pid. Callers hold lease.mu.
func (s *Supervisor) countLocked(pid int, d int32) {
	if n := pid + 1; n > len(s.lease.primaries) {
		s.lease.primaries = append(s.lease.primaries, make([]int32, n-len(s.lease.primaries))...)
	}
	s.lease.primaries[pid] += d
}

// dropLocked removes record i from the table: out of its primary's count
// (and the flag count, if its clone is a flag), out of its task's chain,
// and back on the free list. Callers hold lease.mu.
func (s *Supervisor) dropLocked(i int32) {
	r := &s.lease.recs[i]
	s.lease.primaries[r.primary.participant]--
	if r.clone != nil && !r.clone.live() {
		s.lease.flagged--
	}
	link := &s.lease.byTask[r.a.TaskID]
	for *link != i+1 {
		link = &s.lease.recs[*link-1].next
	}
	*link = r.next
	*r = leaseRecord{} // free, and holding no clone alive
	s.lease.free = append(s.lease.free, i)
	s.lease.live--
	if s.lease.live == 0 && s.lease.draining.Load() {
		signal(s.lease.drained)
	}
}

// issueLocked records a fresh queue pop as held by pid. Callers hold
// lease.mu.
func (s *Supervisor) issueLocked(a sched.Assignment, pid int, now time.Time) {
	var i int32
	if n := len(s.lease.free); n > 0 {
		i = s.lease.free[n-1]
		s.lease.free = s.lease.free[:n-1]
	} else {
		i = int32(len(s.lease.recs))
		s.lease.recs = append(s.lease.recs, leaseRecord{})
	}
	// Field by field: a free record is zero, and copying a whole record in
	// would cost a block copy per issue.
	r, head := &s.lease.recs[i], &s.lease.byTask[a.TaskID]
	r.a, r.next = a, *head
	r.primary.participant, r.primary.issuedAt = pid, now
	*head = i + 1
	s.lease.live++
	s.countLocked(pid, 1)
}

// reissueLocked restarts the clock of record i, a copy its primary holder
// is sent again (a resumed lease), and returns the copy. Callers hold
// lease.mu.
func (s *Supervisor) reissueLocked(i int32, now time.Time) sched.Assignment {
	r := &s.lease.recs[i]
	r.primary.issuedAt = now
	return r.a
}

// bind makes cs the connection pid is served over, at its registration
// and at every resume, and reports how many copies pid holds, as primary
// or clone. A resume moves no hold: the copies stay pid's, its next lease
// re-sends its primaries over cs, and the end of the connection it left
// reclaims none of them.
func (s *Supervisor) bind(pid int, cs *connState) (holds int) {
	s.lease.mu.Lock()
	defer s.lease.mu.Unlock()
	s.lease.conns[pid] = cs
	s.countLocked(pid, 0) // pid's leases read its count
	for i := range s.lease.recs {
		r := &s.lease.recs[i]
		if r.primary.live() && r.primary.participant == pid || r.clone.live() && r.clone.participant == pid {
			holds++
		}
	}
	return holds
}

// claimLocked validates one submitted result and removes its copy's
// record, transferring the copy into the caller's exclusive hands: after
// it returns success, no sweep, disconnect, resume, or duplicate
// submission can touch this (task, copy). It returns the copy and when the
// winning holder was issued it. On refusal it returns the rejection reason
// and detail and changes nothing (beyond loser bookkeeping for speculative
// races, stamped with the caller's one clock reading now). Callers hold
// lease.mu.
//
// With a live clone the copy is out twice, and the first of its two
// holders to submit wins: one drop removes both holds, so exactly one
// result per copy can ever reach adjudication (phase B), and the race's
// loser is remembered so its late submission is rejected as a duplicate,
// not double-credited.
func (s *Supervisor) claimLocked(participant, taskID, copy int, now time.Time) (a sched.Assignment, issuedAt time.Time, reason, detail string) {
	key := outstandingKey{taskID, copy}
	i := s.findLocked(key)
	if i < 0 {
		if l, lost := s.lease.specLosers[key]; lost && l.participant == participant {
			s.metrics.speculativeWasted.Inc()
			return a, issuedAt, ReasonDuplicate, "copy already completed by the other racer"
		}
		return a, issuedAt, ReasonUnassigned, "result for unassigned work"
	}
	r := &s.lease.recs[i]
	won, lost := r.primary, r.clone
	if won.participant != participant {
		if !lost.live() || lost.participant != participant {
			return a, issuedAt, ReasonWrongParticipant, "result from wrong participant"
		}
		won, lost = *lost, &r.primary
		s.metrics.speculativeWins.Inc()
	}
	if lost.live() {
		s.lease.specLosers[key] = specLoser{participant: lost.participant, at: now}
	}
	a = r.a
	s.dropLocked(i)
	return a, won.issuedAt, "", ""
}

// releaseLocked ends pid's hold on the copy of record i without a result.
// A dropped clone leaves the primary holding the copy, free to be flagged
// again; a dropped primary hands the copy to its live clone, or, with none,
// returns it to the queue. Each drop is one reclaimed{reason} count, one
// assignment_reclaimed event and one log line. A free record, or one pid
// holds nothing of, is left alone. Callers hold lease.mu.
func (s *Supervisor) releaseLocked(i int32, pid int, reason string) {
	r := &s.lease.recs[i]
	if !r.primary.live() {
		return
	}
	key := outstandingKey{r.a.TaskID, r.a.Copy}
	switch {
	case r.clone.live() && r.clone.participant == pid:
		r.clone = nil
		s.logf("%s: dropped participant %d's clone of task %d copy %d", reason, pid, key.task, key.copy)
	case r.primary.participant != pid:
		return
	case r.clone.live():
		s.countLocked(pid, -1)
		r.primary, r.clone = *r.clone, nil
		s.countLocked(r.primary.participant, 1)
		s.logf("%s: task %d copy %d passed from participant %d to its clone holder %d",
			reason, key.task, key.copy, pid, r.primary.participant)
	default:
		a := r.a
		s.dropLocked(i)
		s.lease.queue.Abandon(a)
		s.kickLeaseLocked()
		s.logf("%s: reclaimed task %d copy %d from participant %d", reason, key.task, key.copy, pid)
	}
	s.metrics.reclaimed.With(reason).Inc()
	if s.events != nil {
		s.events.Emit(EvAssignmentReclaimed, map[string]any{
			"task": key.task, "copy": key.copy, "participant": pid, "reason": reason,
		})
	}
}

// reclaim ends every hold of the participants a dead connection was still
// serving (those still bound to it), unbinds them and records their
// departure; cs.names is cut down to them. One that has resumed on another
// connection has not left, and its holds stay out.
func (s *Supervisor) reclaim(cs *connState) {
	s.lease.mu.Lock()
	for pid := range cs.names {
		if s.lease.conns[pid] == cs {
			delete(s.lease.conns, pid)
		} else {
			delete(cs.names, pid)
		}
	}
	if len(cs.names) > 0 {
		s.endHoldsLocked(func(pid int) bool { _, ok := cs.names[pid]; return ok }, "disconnect")
	}
	s.lease.mu.Unlock()
	if s.events != nil {
		for id, name := range cs.names {
			s.events.Emit(EvWorkerLeft, map[string]any{"participant": id, "name": name})
		}
	}
}

// endHoldsLocked ends, as reason, every hold of each participant gone
// reports: record by record, the clone before the primary, so a copy whose
// two holders are both gone returns to the queue rather than passing from
// one to the other. Callers hold lease.mu.
func (s *Supervisor) endHoldsLocked(gone func(pid int) bool, reason string) {
	for i := range s.lease.recs {
		r := &s.lease.recs[i]
		if c := r.clone; c.live() && gone(c.participant) {
			s.releaseLocked(int32(i), c.participant, reason)
		}
		if r.primary.live() && gone(r.primary.participant) {
			s.releaseLocked(int32(i), r.primary.participant, reason)
		}
	}
}

// expireLocked ends every hold older than the deadline: an expired clone
// first, as speculative, then an expired primary, as deadline. A copy
// whose two holders both expired therefore returns to the queue, and an
// expired primary with a live clone passes the copy to it. Holding a lease
// silently past its deadline is the lease path's one piece of health
// evidence (disconnect churn deliberately is not), and the quarantine it
// may cause is cheat evidence for the estimator too. Resolved races older
// than two deadlines can no longer produce a meaningful "duplicate"
// rejection and are forgotten. Callers hold lease.mu.
func (s *Supervisor) expireLocked(now time.Time) {
	cutoff := now.Add(-s.cfg.Deadline)
	for i := range s.lease.recs {
		r := &s.lease.recs[i]
		if !r.primary.live() {
			continue
		}
		if r.clone.live() && r.clone.issuedAt.Before(cutoff) {
			s.expireHoldLocked(int32(i), r.clone.participant, "speculative", now)
		}
		if r.primary.issuedAt.Before(cutoff) {
			s.expireHoldLocked(int32(i), r.primary.participant, "deadline", now)
		}
	}
	gc := now.Add(-2 * s.cfg.Deadline)
	for key, l := range s.lease.specLosers {
		if l.at.Before(gc) {
			delete(s.lease.specLosers, key)
		}
	}
}

// expireHoldLocked ends pid's expired hold on record i and records it on
// pid's health record; a quarantine that follows (the only transition
// ObserveReclaim returns) is also fed to the estimator, live only, since
// the journal does not record the failures behind it. Callers hold
// lease.mu.
func (s *Supervisor) expireHoldLocked(i int32, pid int, reason string, now time.Time) {
	s.releaseLocked(i, pid, reason)
	if s.cfg.Health == nil {
		return
	}
	if tr := s.roster.ObserveReclaim(pid, now); tr != nil {
		s.noteQuarantine()
		s.pushTransition(*tr)
	}
}

// flagStragglersLocked flags every copy whose primary has held it past the
// SpeculatePct completion-time percentile, and that is not raced already,
// as wanting a clone, and reports how many it flagged. Callers hold
// lease.mu.
func (s *Supervisor) flagStragglersLocked(now time.Time) (flagged int) {
	q, ok := s.roster.Quantile(s.cfg.SpeculatePct)
	if !ok {
		return 0
	}
	cutoff := now.Add(-q)
	for i := range s.lease.recs {
		r := &s.lease.recs[i]
		if !r.primary.live() || r.clone != nil || !r.primary.issuedAt.Before(cutoff) {
			continue
		}
		r.clone = &holder{}
		flagged++
	}
	s.lease.flagged += flagged
	return flagged
}

// fillSpeculativeLocked serves flagged copies as clones to pid, issued at
// now, in record order, up to the lease's capacity and ahead of fresh queue
// work (leaseBatch calls it first). A flag on pid's own straggling lease is
// left for other requesters. Callers hold lease.mu. Returns the number of
// clones issued.
func (s *Supervisor) fillSpeculativeLocked(pid, want int, items *[]WorkItem, now time.Time) (issued int) {
	left := s.lease.flagged
	for i := range s.lease.recs {
		if left == 0 || len(*items) >= want {
			break
		}
		r := &s.lease.recs[i]
		if r.clone == nil || r.clone.live() {
			continue
		}
		if left--; r.primary.participant == pid {
			continue
		}
		*r.clone = holder{participant: pid, issuedAt: now}
		s.lease.flagged--
		issued++
		if s.events != nil {
			s.events.Emit(EvAssignmentSpeculated, map[string]any{
				"task": r.a.TaskID, "copy": r.a.Copy,
				"participant": pid, "straggler": r.primary.participant,
			})
		}
		*items = append(*items, WorkItem{TaskID: r.a.TaskID, Copy: r.a.Copy, Seed: TaskSeed(r.a.TaskID)})
	}
	return issued
}

// kickLeaseLocked wakes every parked get_work request; each re-checks the
// queue under lease.mu. Called (with lease.mu held) wherever assignments
// may have become available — completions that release held-back copies,
// reclaims, plan revisions — and wherever parked requests must observe a
// state change (draining, finished). Channels are closed exactly once:
// the slice is emptied here and each parked request appends a fresh one.
func (s *Supervisor) kickLeaseLocked() {
	for _, ch := range s.lease.waiters {
		close(ch)
	}
	s.lease.waiters = s.lease.waiters[:0]
}

// leaseBatch fills one lease: under lease.mu it first re-issues every
// surviving assignment this participant already holds — the whole lease
// comes back after a resume, so a reconnect never duplicates queue state —
// then fills the remainder with clones and fresh queue pops, up to
// min(want, MaxBatch); over a connection the participant has since left
// (resumed elsewhere) it re-issues only. A request that finds the queue
// empty parks on a waiter channel (up to leaseParkMax) instead of
// immediately bouncing a no_work/sleep/retry cycle off the supervisor;
// completions, reclaims, and revisions kick parked requests awake. single
// marks a request_work, whose reply has room for exactly one item. The
// time the request spends in here, queue wait and parking included, is the
// lease-wait histogram. now is the caller's one clock reading for the
// request; the clock is read again only after a park wakes, so the copies
// of one reply, re-issued or fresh, share one issue time.
func (s *Supervisor) leaseBatch(pid, want int, single bool, cs *connState, now time.Time) Message {
	defer func(start time.Time) {
		s.metrics.leaseWait.Observe(time.Since(start).Seconds())
	}(now)
	if s.metrics.shardRouted != nil {
		s.metrics.shardRouted.Inc()
	}
	if s.convicted(pid) {
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
			return Message{Type: MsgNoWork, Wait: 0.5}
		case health.Probation:
			probation = true
		}
	}
	if want < 1 {
		want = 1
	}
	if want > s.cfg.MaxBatch {
		want = s.cfg.MaxBatch
	}
	items := cs.items[:0]
	fresh, reissues, specIssued := 0, 0, 0
	var deadline time.Time // parking budget; set on first empty pass
	var empty Message      // the reply when the request ends empty-handed
	s.lease.mu.Lock()
	// Re-issues are not capped by want: the worker must learn about every
	// assignment it still holds, or a resumed lease could silently shrink.
	// A request_work reply carries one item, so there the rest of the held
	// set comes back on the following requests. A pipelining worker's
	// results are claimed before its request is served, so it mostly holds
	// nothing here and the pool is not walked.
	left := s.lease.primaries[pid]
	for i := range s.lease.recs {
		if left == 0 || single && len(items) == 1 {
			break
		}
		if r := &s.lease.recs[i]; !r.primary.live() || r.primary.participant != pid {
			continue
		}
		left--
		a := s.reissueLocked(int32(i), now)
		reissues++
		if s.events != nil {
			s.events.Emit(EvAssignmentIssued, map[string]any{
				"task": a.TaskID, "copy": a.Copy,
				"participant": pid, "ringer": a.Ringer, "reissue": true,
			})
		}
		items = append(items, WorkItem{TaskID: a.TaskID, Copy: a.Copy, Seed: TaskSeed(a.TaskID)})
	}
	for {
		if s.lease.finished {
			empty = Message{Type: MsgDone}
			break
		}
		// Nothing new goes out while draining, or over a connection the
		// participant has left.
		issuing := !s.lease.draining.Load() && s.lease.conns[pid] == cs
		// Straggler clones go out ahead of fresh queue pops — a flagged copy
		// is the work blocking a task's certification, so it is the most
		// valuable lease in the system. Healthy requesters only, and never
		// back to the straggler itself.
		if issuing && !probation && len(items) < want {
			specIssued += s.fillSpeculativeLocked(pid, want, &items, now)
		}
		if issuing && len(items) < want {
			fill := cs.fill[:0]
			if probation {
				for len(items)+len(fill) < want {
					a, ok := s.lease.queue.NextRinger()
					if !ok {
						break
					}
					fill = append(fill, a)
				}
			} else {
				fill = s.lease.queue.NextBatch(fill, want-len(items))
			}
			cs.fill = fill[:0]
			for _, a := range fill {
				s.issueLocked(a, pid, now)
				fresh++
				if s.events != nil {
					ev := map[string]any{"task": a.TaskID, "copy": a.Copy, "participant": pid, "ringer": a.Ringer}
					if probation {
						ev["probation"] = true
					}
					s.events.Emit(EvAssignmentIssued, ev)
				}
				items = append(items, WorkItem{TaskID: a.TaskID, Copy: a.Copy, Seed: TaskSeed(a.TaskID)})
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
		if s.lease.queue.Done() {
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
		s.lease.mu.Unlock()
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
		s.lease.mu.Lock()
		now = time.Now()
	}
	s.lease.mu.Unlock()
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

// claimResults is phase A of resultBatch: it claims every result's copy
// (claimLocked), answers each in d.acks, and lists the claimed ones in
// cs.pend and cs.subs.
func (s *Supervisor) claimResults(pid int, results []ResultItem, cs *connState, d *deferredAck, now time.Time) {
	acks, pend, subs := d.acks[:0], cs.pend[:0], cs.subs[:0]
	s.lease.mu.Lock()
	for _, r := range results {
		a, issuedAt, reason, detail := s.claimLocked(pid, r.TaskID, r.Copy, now)
		if reason == "" {
			pend = append(pend, pendingResult{idx: len(acks), issuedAt: issuedAt})
			subs = append(subs, verify.Result{Assignment: a, Participant: pid, Value: r.Value})
		}
		acks = append(acks, ResultAck{TaskID: r.TaskID, Copy: r.Copy, OK: reason == "", Reason: reason, Error: detail})
	}
	s.lease.mu.Unlock()
	d.acks, cs.pend, cs.subs = acks, pend, subs
}

// completeResults is phase C of resultBatch: it completes every copy the
// audit phase accepted and reports how many.
func (s *Supervisor) completeResults(pid int, cs *connState) (accepted int) {
	s.lease.mu.Lock()
	defer s.lease.mu.Unlock()
	for i := range cs.pend {
		if cs.pend[i].failed {
			continue
		}
		a := cs.subs[i].Assignment
		s.lease.queue.Complete(a)
		accepted++
		if s.events != nil {
			s.events.Emit(EvResultAccepted, map[string]any{
				"task": a.TaskID, "copy": a.Copy, "participant": pid,
			})
		}
	}
	// The last completion finishes the run; any completion may have
	// released held-back copies worth waking parked leases for.
	if s.lease.queue.Done() && !s.lease.finished {
		s.lease.finished = true
		close(s.done)
		s.kickLeaseLocked()
	} else if len(s.lease.waiters) > 0 && s.lease.queue.Available() {
		s.kickLeaseLocked()
	}
	return accepted
}

// sweepExpired is the periodic sweep at now: it reclaims assignments held
// past the deadline, flags straggling leases for speculative reissue, ends
// every hold of a quarantined participant, advances the health roster's
// time-driven transitions, and then, outside lease.mu, refreshes the
// health gauges.
//
// The quarantine pass runs after expiry, whose reclaims can quarantine the
// holder of an earlier record, and before roster.Tick, the one way out of
// Quarantined. So every participant quarantined since the last sweep, by a
// verdict or by this sweep's expiry, loses its holds here, and one
// quarantined earlier already holds nothing.
func (s *Supervisor) sweepExpired(now time.Time) {
	s.lease.mu.Lock()
	if s.cfg.Deadline > 0 {
		s.expireLocked(now)
	}
	// Speculative tier: flag still-leased copies whose age exceeds the
	// configured completion-time percentile as candidates for a duplicate
	// issue to a different participant (served by leaseBatch).
	if s.cfg.SpeculatePct > 0 && !s.lease.draining.Load() && !s.lease.finished {
		if s.flagStragglersLocked(now) > 0 {
			s.kickLeaseLocked() // parked leases can serve the new candidates
		}
	}
	if s.cfg.Health != nil && s.roster.AnyUnhealthy() {
		s.endHoldsLocked(func(pid int) bool { return s.roster.State(pid) == health.Quarantined }, "quarantine")
		for _, tr := range s.roster.Tick(now) {
			s.pushTransition(tr)
		}
	}
	s.lease.mu.Unlock()
	if s.roster != nil {
		for _, ph := range s.roster.Snapshot() {
			s.metrics.participantHealth.With(strconv.Itoa(ph.Participant)).Set(ph.Score)
		}
	}
}

// drainLeases stops issuing assignments, wakes parked leases to observe
// that, and waits on drained until no assignment is in flight and no
// request is mid-reply, or ctx expires. The lease table is read first: a
// result handler raises busy before its claim empties the table and lowers
// it only once its ack has been flushed, which is after its commit.
func (s *Supervisor) drainLeases(ctx context.Context) bool {
	s.lease.mu.Lock()
	s.lease.draining.Store(true)
	s.kickLeaseLocked()
	for {
		n := s.lease.live
		s.lease.mu.Unlock()
		if n == 0 && s.busy.Load() == 0 {
			return true
		}
		select {
		case <-ctx.Done():
			return false
		case <-s.lease.drained:
		}
		s.lease.mu.Lock()
	}
}

// signal raises a one-slot wake channel; a wake already pending absorbs it.
func signal(ch chan struct{}) {
	select {
	case ch <- struct{}{}:
	default:
	}
}
