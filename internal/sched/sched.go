// Package sched turns a deployment plan into a concrete stream of
// assignments and implements the distribution policies discussed in the
// paper's introduction:
//
//   - Free: all copies of all tasks are shuffled together and handed out in
//     random order (the standard model, and the one the paper's probability
//     analysis assumes);
//   - OneOutstanding: at most one copy of any task is in flight at a time
//     (§1's "obvious variation", which doubles wall-clock time and still
//     fails against a 1/sqrt(N)-proportion adversary);
//   - TwoPhase: every task handed out once in phase one, then once more in
//     phase two (the Appendix-A model for simple redundancy).
package sched

import (
	"fmt"
	"math"
	"slices"

	"redundancy/internal/plan"
	"redundancy/internal/rng"
)

// Assignment is one copy of one task, the unit of work given to a
// participant.
type Assignment struct {
	TaskID int
	// Copy indexes the copies of a task, 0..Copies-1.
	Copy int
	// Ringer marks assignments of supervisor-precomputed tasks.
	Ringer bool
}

// Policy names an assignment-release discipline.
type Policy int

// Available policies.
const (
	Free Policy = iota
	OneOutstanding
	TwoPhase
)

func (p Policy) String() string {
	switch p {
	case Free:
		return "free"
	case OneOutstanding:
		return "one-outstanding"
	case TwoPhase:
		return "two-phase"
	default:
		return fmt.Sprintf("Policy(%d)", int(p))
	}
}

// Slot is one queued copy in 8 bytes, laid out as Queue describes. The
// simulator's worker backlogs hold dealt copies in the same form.
type Slot struct {
	id   uint32
	word uint32
}

const ringerBit = 1 << 31

// fits reports whether copy number index of taskID has a slot.
func fits(taskID, index int) bool {
	return taskID >= 0 && taskID <= math.MaxInt32 && index >= 0 && index <= math.MaxInt32
}

// newSlot packs a copy that fits.
func newSlot(taskID, index int, ringer bool) Slot {
	s := Slot{id: uint32(taskID), word: uint32(index)}
	if ringer {
		s.word |= ringerBit
	}
	return s
}

// Pack returns a's slot, or false when a does not fit: a copy the queue
// never holds, rather than an alias of one it does. Every copy a queue
// deals fits.
func Pack(a Assignment) (Slot, bool) {
	if !fits(a.TaskID, a.Copy) {
		return Slot{}, false
	}
	return newSlot(a.TaskID, a.Copy, a.Ringer), true
}

// checkFits refuses a task whose ID or highest copy index has no slot.
// Copies below one are left to the caller's own check.
func checkFits(taskID, copies int) error {
	if !fits(taskID, max(copies-1, 0)) {
		return fmt.Errorf("sched: task %d with %d copies is outside the queue's range (IDs and copy indices 0..%d)", taskID, copies, math.MaxInt32)
	}
	return nil
}

func (s Slot) taskID() int  { return int(s.id) }
func (s Slot) ringer() bool { return s.word&ringerBit != 0 }

// Assignment unpacks the copy the slot holds.
func (s Slot) Assignment() Assignment {
	return Assignment{TaskID: int(s.id), Copy: int(s.word &^ ringerBit), Ringer: s.ringer()}
}

// Queue releases the assignments of a plan according to a Policy. It is not
// safe for concurrent use; the simulator drives it from a single goroutine
// (and the network platform serializes access).
//
// Every pool holds its copies as 8-byte slots rather than 24-byte
// Assignments: a uint32 task ID, and a uint32 whose low 31 bits are the
// copy index and whose top bit is Ringer. So task IDs and copy indices run
// from 0 to MaxInt32, the verifier's own limits; NewQueue, Promote and
// AddTask refuse a copy outside them, MarkCompleted reports it unknown and
// Abandon panics on it.
type Queue struct {
	policy Policy

	// ready copies, dealt from the front. readyBuf is ready's backing
	// array from its first element: when ready's back is full, release
	// moves the queued copies down into the room dealing freed at the
	// front instead of growing the array.
	ready    []Slot
	readyBuf []Slot
	// pending[taskID] holds the copies OneOutstanding has not yet released
	// (each waits for the one before it to complete), in copy order. The
	// per-task slices are cut from one array sized by NewQueue.
	pending [][]Slot
	// phase2 buffers the second copies under TwoPhase.
	phase2 []Slot

	outstanding int
	issued      int
	total       int

	// everIssued marks tasks at least one copy of which has ever been
	// handed out, indexed by task ID (dense, like verify's task table — a
	// map here cost a hash per assignment on the batched lease path).
	// Abandon does not clear it: once any copy has touched a participant
	// the task is no longer safely re-plannable (Promote).
	everIssued []bool

	// replayed indexes the queued copies while a journal replays: false
	// for a copy still queued, true once MarkCompleted has marked it for
	// the next Settle. marked counts the true entries.
	replayed map[Slot]bool
	marked   int
}

// markIssued records that a copy of taskID has been handed out, growing
// the table geometrically when minted tasks extend the ID range.
func (q *Queue) markIssued(taskID int) {
	if taskID >= len(q.everIssued) {
		want := taskID + 1
		if min := 2 * len(q.everIssued); want < min {
			want = min
		}
		grown := make([]bool, want)
		copy(grown, q.everIssued)
		q.everIssued = grown
	}
	q.everIssued[taskID] = true
}

// NewQueue builds a queue over specs, shuffled with r: NewRunQueue over
// the runs the specs compress to, so a spec list and its runs deal the
// same copies in the same order.
func NewQueue(specs []plan.TaskSpec, policy Policy, r *rng.Source) (*Queue, error) {
	return NewRunQueue(plan.Compress(specs), policy, r)
}

// checkRun refuses a run holding a task checkFits refuses, naming the
// first such task.
func checkRun(r plan.Run) error {
	if err := checkFits(r.First, r.Copies); err != nil {
		return err
	}
	if r.End()-1 > math.MaxInt32 {
		return checkFits(math.MaxInt32+1, r.Copies)
	}
	return nil
}

// NewRunQueue builds a queue over the tasks of runs (a plan's Runs, or a
// subset of them), shuffled with r. Under TwoPhase every task must have
// exactly two copies (the Appendix-A setting); other multiplicities cause
// an error. Every table is allocated once, at its final size, from a first
// pass that counts the copies run by run: ready has room for every
// assignment the policy will ever release into it, so only Abandon,
// Promote and AddTask can make it grow. The pools are filled in run order,
// task by task and copy by copy, before the shuffle.
func NewRunQueue(runs []plan.Run, policy Policy, r *rng.Source) (*Queue, error) {
	q := &Queue{policy: policy}
	top, tasks := -1, 0
	for _, run := range runs {
		if run.Count <= 0 {
			continue
		}
		if err := checkRun(run); err != nil {
			return nil, err
		}
		q.total += run.Count * run.Copies
		tasks += run.Count
		top = max(top, run.End()-1)
	}
	q.everIssued = make([]bool, top+1)
	switch policy {
	case Free:
		q.ready = make([]Slot, 0, q.total)
		for _, run := range runs {
			for id := run.First; id < run.End(); id++ {
				for c := 0; c < run.Copies; c++ {
					q.ready = append(q.ready, newSlot(id, c, run.Ringer))
				}
			}
		}
		rng.ShuffleSlice(r, q.ready)
	case OneOutstanding:
		q.ready = make([]Slot, 0, q.total)
		q.pending = make([][]Slot, top+1)
		held := make([]Slot, 0, max(q.total-tasks, 0))
		for _, run := range runs {
			for id := run.First; id < run.End(); id++ {
				q.ready = append(q.ready, newSlot(id, 0, run.Ringer))
				from := len(held)
				for c := 1; c < run.Copies; c++ {
					held = append(held, newSlot(id, c, run.Ringer))
				}
				q.pending[id] = held[from:len(held):len(held)]
			}
		}
		rng.ShuffleSlice(r, q.ready)
	case TwoPhase:
		q.ready = make([]Slot, 0, tasks)
		q.phase2 = make([]Slot, 0, tasks)
		for _, run := range runs {
			if run.Count <= 0 {
				continue
			}
			if run.Copies != 2 {
				return nil, fmt.Errorf("sched: two-phase requires exactly 2 copies per task, task %d has %d", run.First, run.Copies)
			}
			for id := run.First; id < run.End(); id++ {
				q.ready = append(q.ready, newSlot(id, 0, run.Ringer))
				q.phase2 = append(q.phase2, newSlot(id, 1, run.Ringer))
			}
		}
		rng.ShuffleSlice(r, q.ready)
		rng.ShuffleSlice(r, q.phase2)
	default:
		return nil, fmt.Errorf("sched: unknown policy %v", policy)
	}
	q.readyBuf = q.ready
	return q, nil
}

// release appends copies at the back of the ready pool.
func (q *Queue) release(s ...Slot) {
	if len(q.ready)+len(s) > cap(q.ready) && cap(q.ready) < cap(q.readyBuf) {
		q.ready = q.readyBuf[:copy(q.readyBuf[:cap(q.readyBuf)], q.ready)]
	}
	q.ready = append(q.ready, s...)
	if cap(q.ready) > cap(q.readyBuf) {
		q.readyBuf = q.ready
	}
}

// turnPhase releases phase two once phase one is fully collected (only
// TwoPhase buffers one).
func (q *Queue) turnPhase() {
	if q.phaseTurnDue() {
		q.ready, q.readyBuf, q.phase2 = q.phase2, q.phase2, nil
	}
}

// heldBack returns the copies of taskID the policy has yet to release (none
// outside OneOutstanding, the only policy that allocates the table).
func (q *Queue) heldBack(taskID int) []Slot {
	if taskID < 0 || taskID >= len(q.pending) {
		return nil
	}
	return q.pending[taskID]
}

// phaseTurnDue reports whether phase one is fully collected and phase two
// (buffered only under TwoPhase) is yet to be released.
func (q *Queue) phaseTurnDue() bool {
	return len(q.ready) == 0 && q.outstanding == 0 && len(q.phase2) > 0
}

// Next returns the next assignment to hand out. ok is false when nothing is
// currently available — either the computation is finished (Done) or the
// policy is holding copies back until outstanding work completes.
func (q *Queue) Next() (a Assignment, ok bool) {
	q.turnPhase()
	if len(q.ready) == 0 {
		return Assignment{}, false
	}
	s := q.ready[0]
	q.ready = q.ready[1:]
	q.outstanding++
	q.issued++
	q.markIssued(s.taskID())
	return s.Assignment(), true
}

// NextBatch appends up to n assignments to dst and returns it — one
// release decision amortized over a whole lease. Issuing releases nothing
// under any policy, so the batch is the ready pool's prefix, cut once: the
// same copies n calls of Next would pop.
func (q *Queue) NextBatch(dst []Assignment, n int) []Assignment {
	q.turnPhase()
	k := min(n, len(q.ready))
	for _, s := range q.ready[:k] {
		q.markIssued(s.taskID())
	}
	dst = slices.Grow(dst, k)
	for _, s := range q.ready[:k] {
		dst = append(dst, s.Assignment())
	}
	q.ready = q.ready[k:]
	q.outstanding += k
	q.issued += k
	return dst
}

// NextRinger hands out the first ready ringer copy, skipping regular work.
// It is how probationary participants are fed: they get only pre-computed
// tasks whose answers the supervisor already knows, so a lapse costs nothing
// and a clean streak earns re-admission. Only the Free policy keeps its whole
// pool in the ready slice, so other policies report no ringer available
// rather than guess at release semantics.
func (q *Queue) NextRinger() (Assignment, bool) {
	if q.policy != Free {
		return Assignment{}, false
	}
	for i, s := range q.ready {
		if !s.ringer() {
			continue
		}
		q.ready = append(q.ready[:i], q.ready[i+1:]...)
		q.outstanding++
		q.issued++
		q.markIssued(s.taskID())
		return s.Assignment(), true
	}
	return Assignment{}, false
}

// Available reports whether Next would currently hand out an assignment —
// the queue has ready copies, or a phase turn is due to release some.
// Callers use it to decide whether waking parked work requests is worth
// anything.
func (q *Queue) Available() bool {
	return len(q.ready) > 0 || q.phaseTurnDue()
}

// Complete reports that the result for a has been returned, releasing any
// copies the policy was holding back.
func (q *Queue) Complete(a Assignment) {
	if q.outstanding <= 0 {
		panic("sched: Complete without outstanding assignment")
	}
	q.outstanding--
	if rest := q.heldBack(a.TaskID); len(rest) > 0 {
		q.release(rest[0])
		q.pending[a.TaskID] = rest[1:]
	}
}

// Abandon returns an issued-but-uncompleted assignment to the pool — the
// participant holding it left the computation. The assignment is placed at
// the back of the ready queue and will be re-issued to another participant.
// An assignment outside the queue's range (see Queue) panics: no queue
// issued it.
func (q *Queue) Abandon(a Assignment) {
	if q.outstanding <= 0 {
		panic("sched: Abandon without outstanding assignment")
	}
	s, ok := Pack(a)
	if !ok {
		panic("sched: Abandon of an assignment outside the queue's range")
	}
	q.outstanding--
	q.issued--
	q.release(s)
}

// MarkCompleted records that assignment a was already issued and completed
// in a previous run (journal replay during supervisor recovery). It only
// marks the copy; Settle completes every marked copy in one pass, so a
// replay costs O(n) however many records it holds. It reports whether a is
// queued and not yet marked; an assignment outside the queue's range (see
// Queue) is never queued. The first mark after a Settle indexes every
// queued copy, ready and held back alike.
func (q *Queue) MarkCompleted(a Assignment) bool {
	s, ok := Pack(a)
	if !ok {
		return false
	}
	if q.replayed == nil {
		q.replayed = make(map[Slot]bool, q.total-q.issued)
		for _, pool := range append([][]Slot{q.ready, q.phase2}, q.pending...) {
			for _, x := range pool {
				q.replayed[x] = false
			}
		}
	}
	if done, queued := q.replayed[s]; !queued || done {
		return false
	}
	q.replayed[s] = true
	q.marked++
	return true
}

// Settle completes the copies MarkCompleted has marked, each as an issue
// immediately followed by a Complete, in one pass over the pools that keeps
// their order. A completed copy releases the next held copy that is not
// itself marked, to the back of the ready pool as a live Complete would; a
// marked held copy completes in turn. It fails if a marked copy was left
// queued — one held behind a copy that is neither marked nor issued.
func (q *Queue) Settle() error {
	var released []Slot
	n := 0
	settle := func(pool []Slot) []Slot {
		kept := pool[:0]
		for _, s := range pool {
			if !q.replayed[s] {
				kept = append(kept, s)
				continue
			}
			id := s.taskID()
			q.markIssued(id)
			n++
			rest := q.heldBack(id)
			for len(rest) > 0 && q.replayed[rest[0]] {
				rest, n = rest[1:], n+1
			}
			if len(rest) > 0 {
				released = append(released, rest[0])
				rest = rest[1:]
			}
			if id < len(q.pending) {
				q.pending[id] = rest
			}
		}
		return kept
	}
	if q.marked > 0 {
		q.ready = settle(q.ready)
		q.release(released...)
		q.phase2 = settle(q.phase2)
	}
	q.issued += n
	marked := q.marked
	q.replayed, q.marked = nil, 0
	if n != marked {
		return fmt.Errorf("sched: settled %d of %d marked copies", n, marked)
	}
	return nil
}

// EverIssued reports whether any copy of the task has ever been handed
// out (including copies later abandoned). Tasks for which this is false
// are the ones the adaptive controller may still re-plan.
func (q *Queue) EverIssued(taskID int) bool {
	return taskID >= 0 && taskID < len(q.everIssued) && q.everIssued[taskID]
}

// Promote raises a never-issued task's multiplicity from from to to under
// the Free policy: the task's existing queued copies stay where the
// initial shuffle put them and the additional copies to−from..to−1 are
// appended to the back of the ready pool. It is the scheduler half of an
// adaptive plan revision; the caller journals the revision before calling.
func (q *Queue) Promote(taskID, from, to int) error {
	if q.policy != Free {
		return fmt.Errorf("sched: Promote requires the free policy, have %v", q.policy)
	}
	if to <= from {
		return fmt.Errorf("sched: Promote task %d: %d -> %d is not a raise", taskID, from, to)
	}
	if err := checkFits(taskID, to); err != nil {
		return err
	}
	if q.EverIssued(taskID) {
		return fmt.Errorf("sched: Promote task %d: copies already issued", taskID)
	}
	queued := 0
	for _, s := range q.ready {
		if s.taskID() == taskID {
			queued++
		}
	}
	if queued != from {
		return fmt.Errorf("sched: Promote task %d: %d copies queued, revision expects %d", taskID, queued, from)
	}
	for c := from; c < to; c++ {
		q.release(newSlot(taskID, c, false))
	}
	q.total += to - from
	return nil
}

// AddTask appends a brand-new task (an adaptively minted ringer) to a
// Free-policy queue; its copies join the back of the ready pool.
func (q *Queue) AddTask(spec plan.TaskSpec) error {
	if q.policy != Free {
		return fmt.Errorf("sched: AddTask requires the free policy, have %v", q.policy)
	}
	if spec.Copies < 1 {
		return fmt.Errorf("sched: AddTask task %d: invalid multiplicity %d", spec.ID, spec.Copies)
	}
	if err := checkFits(spec.ID, spec.Copies); err != nil {
		return err
	}
	if q.EverIssued(spec.ID) {
		return fmt.Errorf("sched: AddTask task %d: ID already in use", spec.ID)
	}
	for c := 0; c < spec.Copies; c++ {
		q.release(newSlot(spec.ID, c, spec.Ringer))
	}
	q.total += spec.Copies
	return nil
}

// Done reports whether every assignment has been issued and completed.
func (q *Queue) Done() bool {
	return q.issued == q.total && q.outstanding == 0
}

// Issued returns how many assignments have been handed out so far.
func (q *Queue) Issued() int { return q.issued }

// Total returns the total number of assignments the queue will release.
func (q *Queue) Total() int { return q.total }

// Outstanding returns the number of assignments in flight.
func (q *Queue) Outstanding() int { return q.outstanding }
