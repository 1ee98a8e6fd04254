// Package lease is the lease table: who holds each outstanding copy of a
// task, and which one result per copy may reach adjudication. A Table
// takes no lock, reads no clock and knows no connection: times come in as
// arguments, holders are participants, and its owner serializes the calls.
// A copy enters the table at Issue and leaves it by Claim (a result) or by
// a release (every other way a hold ends), which the table reports to the
// observer its owner installed. DESIGN.md §13 has the rules.
package lease

import (
	"time"

	"redundancy/internal/sched"
)

// Outcome is what became of a copy when a hold on it ended.
type Outcome uint8

const (
	CloneDropped Outcome = iota // the primary holds the copy still
	Passed                      // the clone holder is its primary now
	Requeued                    // nobody holds it: back in the queue
)

// End is one hold ended without a result, as the observer is told of it.
type End struct {
	Assignment  sched.Assignment
	Participant int // whose hold ended
	Reason      string
	Outcome     Outcome
	Heir        int       // the clone holder a Passed copy went to
	Now         time.Time // the expiry's clock reading; zero for EndHolds
}

// Refusal is why Claim refused a result; 0 is none.
type Refusal uint8

const (
	Unassigned       Refusal = iota + 1 // no such copy is out
	WrongParticipant                    // the copy is out, not to the claimant
	Duplicate                           // the claimant lost the copy's race
)

// key identifies one issued copy.
type key struct{ task, copy int }

// holder is one participant's hold on a copy since issuedAt, a caller's
// clock reading and so never the zero time.
type holder struct {
	participant int
	issuedAt    time.Time
}

// live reports whether h holds the copy: a clone that is only a flag has
// no issue time yet, and neither has the primary of a free record.
func (h *holder) live() bool { return h != nil && !h.issuedAt.IsZero() }

// record is one outstanding copy. The primary is the holder the queue
// issued it to. clone stays nil unless the speculative tier races the
// copy: without an issue time it is a flag, with one a duplicate held by
// another participant. A clone lives outside the queue's accounting: the
// queue sees one Complete or one Abandon per copy either way.
type record struct {
	a       sched.Assignment
	primary holder
	clone   *holder
	next    int32 // 1 + the index of the task's next record, 0 ends the chain
}

// Table is the lease table. recs is the record pool, in use while a
// record's primary is live; free holds the others' indices. byTask[task]
// is 1 + the index of the task's first record, 0 with no copy out. The
// counts let a re-issue and a clone fill stop walking the pool early, and
// losers holds the loser of each resolved race, stamped when it lost.
type Table struct {
	queue     *sched.Queue
	observe   func(End)
	recs      []record
	free      []int32
	live      int // live+len(free) == len(recs)
	byTask    []int32
	primaries []int32 // primaries[pid] counts the records pid is the primary of
	flagged   int     // the clones that are flags
	losers    map[key]holder
}

// New returns an empty table over q, its task index sized for IDs below
// tasks. observe is told of every hold that ends without a result, once
// the table has settled it, and must not call back into the table.
func New(q *sched.Queue, tasks int, observe func(End)) *Table {
	return &Table{queue: q, observe: observe, byTask: make([]int32, tasks), losers: make(map[key]holder)}
}

// Queue returns the queue the table's copies come from and go back to.
func (t *Table) Queue() *sched.Queue { return t.queue }

// Live returns the number of copies out.
func (t *Table) Live() int { return t.live }

// cover returns s extended with zeros to cover index i.
func cover(s []int32, i int) []int32 {
	if n := i + 1; n > len(s) {
		s = append(s, make([]int32, n-len(s))...)
	}
	return s
}

// find returns the index of the record of copy of task, or -1 when that
// copy is not out. Any task ID is accepted: it may come off the wire.
func (t *Table) find(task, copy int) int32 {
	if task < 0 || task >= len(t.byTask) {
		return -1
	}
	for j := t.byTask[task]; j != 0; j = t.recs[j-1].next {
		if t.recs[j-1].a.Copy == copy {
			return j - 1
		}
	}
	return -1
}

// drop removes record i from the counts and its task's chain, and frees it.
func (t *Table) drop(i int32) {
	r := &t.recs[i]
	t.primaries[r.primary.participant]--
	if r.clone != nil && !r.clone.live() {
		t.flagged--
	}
	link := &t.byTask[r.a.TaskID]
	for *link != i+1 {
		link = &t.recs[*link-1].next
	}
	*link = r.next
	*r = record{} // free, and holding no clone alive
	t.free = append(t.free, i)
	t.live--
}

// Issue records a copy popped from the queue as held by pid since now.
func (t *Table) Issue(a sched.Assignment, pid int, now time.Time) {
	var i int32
	if n := len(t.free); n > 0 {
		i = t.free[n-1]
		t.free = t.free[:n-1]
	} else {
		i = int32(len(t.recs))
		t.recs = append(t.recs, record{})
	}
	t.byTask = cover(t.byTask, a.TaskID)
	// Field by field: a free record is zero, and copying a whole record in
	// would cost a block copy per issue.
	r, head := &t.recs[i], &t.byTask[a.TaskID]
	r.a, r.next = a, *head
	r.primary.participant, r.primary.issuedAt = pid, now
	*head = i + 1
	t.live++
	t.primaries = cover(t.primaries, pid)
	t.primaries[pid]++
}

// Reissue restarts at now the clock of pid's primaries, in record order,
// passing each copy to sent until it returns false, and returns how many
// it re-sent.
func (t *Table) Reissue(pid int, now time.Time, sent func(sched.Assignment) bool) (resent int) {
	left := 0
	if pid < len(t.primaries) {
		left = int(t.primaries[pid])
	}
	for i := 0; i < len(t.recs) && left > 0; i++ {
		if r := &t.recs[i]; r.primary.live() && r.primary.participant == pid {
			left--
			r.primary.issuedAt = now
			resent++
			if !sent(r.a) {
				break
			}
		}
	}
	return resent
}

// Holds returns how many copies pid holds, as primary or clone.
func (t *Table) Holds(pid int) (holds int) {
	for i := range t.recs {
		r := &t.recs[i]
		if r.primary.live() && r.primary.participant == pid || r.clone.live() && r.clone.participant == pid {
			holds++
		}
	}
	return holds
}

// Claim takes copy of task out of the table for pid's result, into the
// caller's exclusive hands, and returns it with the winning holder's issue
// time. With a live clone the first of the two holders to claim wins
// (cloneWon tells which) and one drop removes both holds, so exactly one
// result per copy reaches adjudication; the loser is remembered, as of
// now, so its late claim is refused as a Duplicate. A refusal changes
// nothing else.
func (t *Table) Claim(pid, task, copy int, now time.Time) (a sched.Assignment, issuedAt time.Time, refused Refusal, cloneWon bool) {
	i := t.find(task, copy)
	if i < 0 {
		if l, lost := t.losers[key{task, copy}]; lost && l.participant == pid {
			return a, issuedAt, Duplicate, false
		}
		return a, issuedAt, Unassigned, false
	}
	r := &t.recs[i]
	won, lost := r.primary, r.clone
	if won.participant != pid {
		if !lost.live() || lost.participant != pid {
			return a, issuedAt, WrongParticipant, false
		}
		won, lost, cloneWon = *lost, &r.primary, true
	}
	if lost.live() {
		t.losers[key{task, copy}] = holder{lost.participant, now}
	}
	a = r.a
	t.drop(i)
	return a, won.issuedAt, 0, cloneWon
}

// release ends pid's hold on the copy of record i and tells the observer.
// A dropped clone leaves the primary holding the copy, free to be flagged
// again; a dropped primary hands the copy to its live clone, or, with
// none, returns it to the queue. A free record, or one pid holds nothing
// of, is left alone.
func (t *Table) release(i int32, pid int, reason string, now time.Time) {
	r := &t.recs[i]
	if !r.primary.live() {
		return
	}
	e := End{Assignment: r.a, Participant: pid, Reason: reason, Now: now}
	switch {
	case r.clone.live() && r.clone.participant == pid:
		r.clone = nil
		e.Outcome = CloneDropped
	case r.primary.participant != pid:
		return
	case r.clone.live():
		t.primaries[pid]--
		r.primary, r.clone = *r.clone, nil
		t.primaries = cover(t.primaries, r.primary.participant)
		t.primaries[r.primary.participant]++
		e.Outcome, e.Heir = Passed, r.primary.participant
	default:
		t.drop(i)
		t.queue.Abandon(e.Assignment)
		e.Outcome = Requeued
	}
	t.observe(e)
}

// endHolds is the one pass that ends holds without a result: every hold
// ends reports, record by record, the clone (as cloneReason) before the
// primary (as primaryReason), so a copy whose two holders both end
// returns to the queue rather than passing from one to the other.
func (t *Table) endHolds(ends func(h *holder) bool, cloneReason, primaryReason string, now time.Time) {
	for i := range t.recs {
		r := &t.recs[i]
		if c := r.clone; c.live() && ends(c) {
			t.release(int32(i), c.participant, cloneReason, now)
		}
		if r.primary.live() && ends(&r.primary) {
			t.release(int32(i), r.primary.participant, primaryReason, now)
		}
	}
}

// EndHolds ends, as reason, every hold of each participant gone reports:
// the participants of a closed connection, or the quarantined.
func (t *Table) EndHolds(gone func(pid int) bool, reason string) {
	t.endHolds(func(h *holder) bool { return gone(h.participant) }, reason, reason, time.Time{})
}

// Expire ends every hold issued more than deadline before now, a clone as
// speculative and a primary as deadline, and forgets the races resolved
// more than two deadlines ago.
func (t *Table) Expire(now time.Time, deadline time.Duration) {
	cutoff := now.Add(-deadline)
	t.endHolds(func(h *holder) bool { return h.issuedAt.Before(cutoff) }, "speculative", "deadline", now)
	gc := now.Add(-2 * deadline)
	for k, l := range t.losers {
		if l.issuedAt.Before(gc) {
			delete(t.losers, k)
		}
	}
}

// Flag marks as wanting a clone every copy whose primary was issued
// before cutoff and that is not raced already, and returns how many it
// flagged.
func (t *Table) Flag(cutoff time.Time) (flagged int) {
	for i := range t.recs {
		r := &t.recs[i]
		if r.primary.live() && r.clone == nil && r.primary.issuedAt.Before(cutoff) {
			r.clone = &holder{}
			flagged++
		}
	}
	t.flagged += flagged
	return flagged
}

// Clones serves flagged copies to pid as clones issued at now, in record
// order, passing each to served with the participant whose straggling
// primary it races until served returns false, and returns how many it
// served. A flag on pid's own primary is left for others.
func (t *Table) Clones(pid int, now time.Time, served func(a sched.Assignment, straggler int) bool) (issued int) {
	left := t.flagged
	for i := 0; i < len(t.recs) && left > 0; i++ {
		r := &t.recs[i]
		if r.clone == nil || r.clone.live() {
			continue
		}
		if left--; r.primary.participant == pid {
			continue
		}
		*r.clone = holder{participant: pid, issuedAt: now}
		t.flagged--
		issued++
		if !served(r.a, r.primary.participant) {
			break
		}
	}
	return issued
}
