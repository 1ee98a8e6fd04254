package platform

// The lease domain: who holds each outstanding copy. Every copy out is one
// record naming its primary holder and, while the speculative tier races
// it, a clone holder. Records live in a pool (lease.recs, with its free
// list) bounded by the copies out at once; lease.byTask finds a task's
// first record and the records of one task are chained through
// leaseRecord.next, so issue, claim and release touch no hash map. A copy
// enters the table at issue and leaves it by claim (a result) or by
// releaseLocked (every other way a hold ends), and connState.held lists the
// record indices whose primary a connection owns, written only here.
// DESIGN.md §13 has the rules.

import (
	"sync"
	"time"

	"redundancy/internal/sched"
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

	finished bool
	draining bool // Shutdown in progress: no new assignments
	// waiters parks get_work requests that found the queue empty; each
	// channel is closed (once) by kickLeaseLocked when completions, reclaims,
	// or revisions may have made assignments available. Parking replaces
	// most of the no_work/sleep/retry polling near queue exhaustion.
	waiters []chan struct{}

	// Speculative reissue (SpeculatePct): specq holds copies the sweeper
	// flagged as straggling, waiting for a second participant to lease a
	// clone; specLosers remembers, for a grace window, which participant
	// lost each resolved race so a late submission gets a precise
	// "duplicate" rejection instead of "unassigned".
	specq      []outstandingKey
	specLosers map[outstandingKey]specLoser
}

// specLoser records the losing side of a resolved speculative race.
type specLoser struct {
	participant int
	at          time.Time
}

// outstandingKey identifies one issued copy so results can be matched
// back. Keyed by (task, copy).
type outstandingKey struct{ task, copy int }

// holder is one participant's hold on a copy: who, over which connection
// (rewritten when the participant resumes on another), and since when.
type holder struct {
	participant int
	owner       *connState
	issuedAt    time.Time
}

// live reports whether h holds the copy: a clone that is only a flag has
// no owner yet, and neither has the primary of a free record.
func (h *holder) live() bool { return h != nil && h.owner != nil }

// leaseRecord is one outstanding copy. The primary is the holder the queue
// issued it to. clone stays nil unless the speculative tier races the
// copy: without an owner it is a flag (the sweeper found the primary
// straggling and the copy waits in specq), with one it is a duplicate held
// by a participant other than the primary. A clone lives outside the
// queue's accounting: whichever holder submits first claims the copy, and
// the queue sees one Complete or one Abandon for it either way.
type leaseRecord struct {
	a       sched.Assignment
	primary holder
	clone   *holder
	next    int32 // 1 + the index of the task's next record, 0 ends the chain
	at      int32 // this record's position in primary.owner.held
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

// holdLocked lists record i in cs's held index and makes cs its primary's
// owner. Callers hold lease.mu.
func (s *Supervisor) holdLocked(i int32, cs *connState) {
	r := &s.lease.recs[i]
	r.primary.owner = cs
	r.at = int32(len(cs.held))
	cs.held = append(cs.held, i)
}

// unholdLocked removes record i from its primary owner's held index by
// moving the index's last entry into its place. Callers hold lease.mu.
func (s *Supervisor) unholdLocked(i int32) {
	r := &s.lease.recs[i]
	held := r.primary.owner.held
	last := held[len(held)-1]
	held[r.at] = last
	s.lease.recs[last].at = r.at
	r.primary.owner.held = held[:len(held)-1]
}

// dropLocked removes record i from the table: off its owner's held index,
// out of its task's chain, and back on the free list. Callers hold
// lease.mu.
func (s *Supervisor) dropLocked(i int32) {
	s.unholdLocked(i)
	r := &s.lease.recs[i]
	link := &s.lease.byTask[r.a.TaskID]
	for *link != i+1 {
		link = &s.lease.recs[*link-1].next
	}
	*link = r.next
	*r = leaseRecord{} // free, and holding no connection or clone alive
	s.lease.free = append(s.lease.free, i)
	s.lease.live--
}

// issueLocked records a fresh queue pop as held by pid over cs. Callers
// hold lease.mu.
func (s *Supervisor) issueLocked(a sched.Assignment, pid int, cs *connState, now time.Time) {
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
	s.holdLocked(i, cs)
}

// reissueLocked restarts the clock of record i, a copy its primary holder
// is sent again (a resumed lease), and returns the copy. Callers hold
// lease.mu.
func (s *Supervisor) reissueLocked(i int32, now time.Time) sched.Assignment {
	r := &s.lease.recs[i]
	r.primary.issuedAt = now
	return r.a
}

// transferLocked re-attaches every hold of pid to cs, the connection pid
// has just resumed on, and reports how many it moved: the copies stay out,
// only their owner changes. Callers hold lease.mu.
func (s *Supervisor) transferLocked(pid int, cs *connState) (moved int) {
	for i := range s.lease.recs {
		r := &s.lease.recs[i]
		switch {
		case !r.primary.live():
			continue
		case r.primary.participant == pid:
			s.unholdLocked(int32(i))
			s.holdLocked(int32(i), cs)
		case r.clone.live() && r.clone.participant == pid:
			r.clone.owner = cs
		default:
			continue
		}
		moved++
	}
	return moved
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
// assignment_reclaimed event and one log line, and a deadline or
// speculative drop is also health evidence against pid. A free record, or
// one pid holds nothing of, is left alone. Callers hold lease.mu.
func (s *Supervisor) releaseLocked(i int32, pid int, reason string, now time.Time) {
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
		s.unholdLocked(i)
		r.primary, r.clone = *r.clone, nil
		s.holdLocked(i, r.primary.owner)
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
	// Holding a lease silently past its deadline is the health signal;
	// disconnect churn and quarantine deliberately are not.
	if (reason == "deadline" || reason == "speculative") && s.roster != nil && s.quarantine {
		if tr := s.roster.ObserveReclaim(pid, now); tr != nil {
			s.pushTransition(*tr, false)
		}
	}
}

// reclaim ends every hold a dead connection still has and records the
// departure of every participant registered on it. Clones go first, so a
// copy whose two holders were both on this connection returns to the
// queue rather than passing from one to the other; then every primary
// leaves cs.held, which therefore drains from the back.
func (s *Supervisor) reclaim(cs *connState) {
	now := time.Now()
	s.lease.mu.Lock()
	if s.cfg.SpeculatePct > 0 {
		for i := range s.lease.recs {
			if c := s.lease.recs[i].clone; c.live() && c.owner == cs {
				s.releaseLocked(int32(i), c.participant, "disconnect", now)
			}
		}
	}
	for n := len(cs.held); n > 0; n = len(cs.held) {
		i := cs.held[n-1]
		s.releaseLocked(i, s.lease.recs[i].primary.participant, "disconnect", now)
	}
	s.lease.mu.Unlock()
	if s.events != nil {
		for id := range cs.registered {
			s.events.Emit(EvWorkerLeft, map[string]any{"participant": id, "name": cs.names[id]})
		}
	}
}

// expireLocked ends every hold older than the deadline: an expired clone
// first, as speculative, then an expired primary, as deadline. A copy
// whose two holders both expired therefore returns to the queue, and an
// expired primary with a live clone passes the copy to it. Resolved races
// older than two deadlines can no longer produce a meaningful "duplicate"
// rejection and are forgotten. Callers hold lease.mu.
func (s *Supervisor) expireLocked(now time.Time) {
	cutoff := now.Add(-s.cfg.Deadline)
	for i := range s.lease.recs {
		r := &s.lease.recs[i]
		if !r.primary.live() {
			continue
		}
		if r.clone.live() && r.clone.issuedAt.Before(cutoff) {
			s.releaseLocked(int32(i), r.clone.participant, "speculative", now)
		}
		if r.primary.issuedAt.Before(cutoff) {
			s.releaseLocked(int32(i), r.primary.participant, "deadline", now)
		}
	}
	gc := now.Add(-2 * s.cfg.Deadline)
	for key, l := range s.lease.specLosers {
		if l.at.Before(gc) {
			delete(s.lease.specLosers, key)
		}
	}
}

// reclaimParticipantLocked ends every hold of a newly quarantined
// participant. Callers hold lease.mu.
func (s *Supervisor) reclaimParticipantLocked(pid int) {
	now := time.Now()
	for i := range s.lease.recs {
		s.releaseLocked(int32(i), pid, "quarantine", now)
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
		s.lease.specq = append(s.lease.specq, outstandingKey{r.a.TaskID, r.a.Copy})
		flagged++
	}
	return flagged
}

// fillSpeculativeLocked serves flagged copies as clones to pid, issued at
// now, up to the lease's capacity and ahead of fresh queue work
// (leaseBatch calls it first). Stale candidates (resolved, released, or
// already cloned since flagging) are dropped; candidates pid cannot take
// (its own straggling lease) are kept for other requesters. Callers hold
// lease.mu. Returns the number of clones issued.
func (s *Supervisor) fillSpeculativeLocked(pid int, cs *connState, want int, items *[]WorkItem, now time.Time) int {
	if len(s.lease.specq) == 0 {
		return 0
	}
	issued := 0
	kept := s.lease.specq[:0]
	for _, key := range s.lease.specq {
		if len(*items) >= want {
			kept = append(kept, key)
			continue
		}
		i := s.findLocked(key)
		if i < 0 {
			continue
		}
		r := &s.lease.recs[i]
		if r.clone == nil || r.clone.live() {
			continue
		}
		if r.primary.participant == pid {
			kept = append(kept, key)
			continue
		}
		*r.clone = holder{participant: pid, owner: cs, issuedAt: now}
		issued++
		if s.events != nil {
			s.events.Emit(EvAssignmentSpeculated, map[string]any{
				"task": r.a.TaskID, "copy": r.a.Copy,
				"participant": pid, "straggler": r.primary.participant,
			})
		}
		*items = append(*items, WorkItem{TaskID: r.a.TaskID, Copy: r.a.Copy, Seed: TaskSeed(r.a.TaskID)})
	}
	s.lease.specq = kept
	return issued
}
