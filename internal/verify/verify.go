// Package verify implements the supervisor's result-certification pipeline:
// collecting returned results per task, adjudicating them by redundancy
// (matching results are accepted — exactly the assumption the paper's
// adversary exploits), checking ringer tasks against precomputed truth, and
// maintaining a blacklist of implicated participants.
package verify

import (
	"fmt"
	"math"
	"sort"

	"redundancy/internal/plan"
	"redundancy/internal/sched"
)

// Result is one returned assignment result.
type Result struct {
	Assignment  sched.Assignment
	Participant int
	Value       uint64
}

// Verdict is the adjudication of one fully-collected task.
type Verdict struct {
	TaskID int
	Ringer bool
	Copies int
	// Accepted reports whether a value was certified. Matching results are
	// accepted even if wrong — redundancy cannot tell a unanimous lie from
	// the truth, which is the vulnerability the paper quantifies.
	Accepted bool
	// Value is the certified result when Accepted.
	Value uint64
	// MismatchDetected reports that differing results (or a ringer result
	// differing from precomputed truth) exposed cheating on this task.
	MismatchDetected bool
	// Suspects lists participants whose returns disagreed with the
	// certified/true value (majority vote for regular tasks; the oracle
	// for ringers). On an even split every participant is suspect.
	Suspects []int
	// Contributors lists every participant that returned a result for the
	// task, in submission order. Credit systems award only contributors of
	// Accepted tasks.
	Contributors []int
}

// Outcome is SubmitBatch's report on one result.
type Outcome struct {
	// Err is the error Submit would have returned for the result.
	Err error
	// Verdict is the verdict the result completed, nil if it completed none.
	// It is owned by the collector and valid until the next Submit or
	// SubmitBatch; callers must not retain or mutate it.
	Verdict *Verdict
}

// taskState is one task's collection state, 16 bytes, indexed by task ID.
// Task IDs are dense (plans number from 0 and minted ringers extend the
// range), so a flat slice serves where maps cost a hash on every result,
// and four slots share a cache line.
type taskState struct {
	// expected copies, registered up front; 0 means unregistered. Once the
	// task is adjudicated it is the verdict's Copies and never changes.
	expected int32
	// got counts the results stored in the task's run; 0 means the task has
	// no run (no result yet, or adjudicated).
	got int32
	// at is the address of the task's run in Collector.runs while got > 0.
	// The run holds at least expected entries.
	at uint32
	// verdict is 1 + the task's index in Collector.verdicts once adjudicated;
	// late and duplicate results are rejected by it. Until then it is
	// ringerRun if the run holds a ringer's results, else 0.
	verdict int32
}

// ringerRun marks, in taskState.verdict, a run of ringer results: every
// result of a task carries the task's ringer bit, so the slot stores it once.
const ringerRun = -1

// entry is one stored result. The task ID is the run owner's and the ringer
// bit is in the owner's slot.
type entry struct {
	value       uint64
	participant int32
	copy        int32
}

// stored is one issued verdict as the collector keeps it, 24 bytes; the
// public Verdict is built from it on read. Its contributor list and then
// its suspect list lie at list in Collector.lists, and its copies are the
// task slot's expected count.
type stored struct {
	value    uint64
	task     int32
	list     uint32
	suspects int32
	flags    uint8
}

// The flags of a stored verdict.
const (
	ringerFlag = 1 << iota
	acceptedFlag
	mismatchFlag
)

// Runs and lists are cut from chunks of chunkLen elements: 64 KB of run
// entries, 32 KB of listed participants.
const (
	chunkShift = 12
	chunkLen   = 1 << chunkShift
	chunkMask  = chunkLen - 1
)

// chunked is storage cut in order from chunks of chunkLen elements. An
// address is a chunk's index shifted past chunkShift plus an offset into
// it, so 32 bits address 2^32 elements without a pointer per cut. A cut never
// spans two chunks: when the current chunk's room is too short the cut
// moves to the next chunk (allocated ahead by reserve, or now) and the
// short tail stays unused; a cut longer than a chunk gets a chunk of its
// own at offset 0. No chunk is ever copied, and a cut is capped at its
// length, so an append past one cannot reach the next.
type chunked[T any] struct {
	chunks [][]T
	// used counts the chunks cut from; any after them were allocated ahead.
	used uint32
	// next is the address of the next cut and room the elements left
	// behind it in the current chunk.
	next, room uint32
}

// cut returns the address of n fresh elements behind the last cut.
func (s *chunked[T]) cut(n uint32) uint32 {
	if n > s.room {
		k := s.used
		if k == 1<<(32-chunkShift) {
			panic("verify: chunk storage exhausted")
		}
		if int(k) == len(s.chunks) {
			s.chunks = append(s.chunks, nil)
		}
		if uint32(len(s.chunks[k])) < n {
			s.chunks[k] = make([]T, max(n, chunkLen))
		}
		s.used++
		s.next, s.room = k<<chunkShift, uint32(len(s.chunks[k]))
	}
	at := s.next
	s.next += n
	s.room -= n
	return at
}

// at returns the n elements at address a.
func (s *chunked[T]) at(a, n uint32) []T {
	off := a & chunkMask
	return s.chunks[a>>chunkShift][off : off+n : off+n]
}

// reserve allocates chunks ahead until n elements fit behind the ones cut.
func (s *chunked[T]) reserve(n int) {
	for ahead := len(s.chunks) - int(s.used); ahead*chunkLen < n; ahead++ {
		s.chunks = append(s.chunks, make([]T, chunkLen))
	}
}

// Collector accumulates results and adjudicates tasks as their final copy
// arrives. It is not safe for concurrent use.
type Collector struct {
	// truth returns the precomputed value of a ringer task.
	truth func(taskID int) uint64
	// cmp canonicalizes values before matching (Exact by default).
	cmp Comparator
	// tasks holds per-task collection state, indexed by task ID.
	tasks []taskState
	// registered counts the tasks in the table: the verdict list's size.
	registered int
	// partial counts tasks with some but not all expected results.
	partial int
	// verdicts is in adjudication order (see nextVerdict); stats tallies it.
	verdicts []stored
	stats    Stats
	// runs holds each task's results, cut at its first result, in arrival
	// order; lists holds each verdict's contributors then suspects, cut at
	// adjudication. Neither is written again once the verdict is issued, so
	// a built Verdict's lists alias them.
	runs  chunked[entry]
	lists chunked[int]
	// built holds the verdicts the last Submit or SubmitBatch handed out,
	// each built once from its stored record; Submit uses its first.
	built []Verdict
	// sink takes a value from every load SubmitBatch's resolve passes make,
	// so the compiler cannot drop the loads as unused.
	sink      int32
	blacklist map[int]bool
	// convicted holds participants caught by ringer evidence, which is
	// conclusive: the supervisor precomputed the true value. Mismatch
	// suspects on regular tasks are circumstantial (an even split cannot
	// say who lied) and only reach the blacklist.
	convicted map[int]bool
}

// NewCollector creates a collector. truth supplies precomputed values for
// ringer tasks and may be nil if the plan has no ringers.
func NewCollector(truth func(taskID int) uint64) *Collector {
	return &Collector{
		truth:     truth,
		cmp:       Exact{},
		built:     make([]Verdict, 1),
		blacklist: make(map[int]bool),
		convicted: make(map[int]bool),
	}
}

// run returns the n entries of the run at address at.
func (c *Collector) run(at uint32, n int32) []entry { return c.runs.at(at, uint32(n)) }

// task returns the state slot for taskID, growing the table as needed
// (geometrically, so registering n tasks one by one stays O(n)).
func (c *Collector) task(taskID int) *taskState {
	if taskID < 0 {
		panic("verify: negative task ID")
	}
	if taskID > math.MaxInt32 {
		panic("verify: task ID above MaxInt32")
	}
	if taskID >= len(c.tasks) {
		grown := make([]taskState, max(taskID+1, 2*len(c.tasks)))
		copy(grown, c.tasks)
		c.tasks = grown // tail slots read as unregistered (expected 0)
	}
	return &c.tasks[taskID]
}

// Expect registers that taskID will receive copies results, or, for a task
// a revision promotes, raises that number. It must be called before the
// task's first Submit, and never for an adjudicated task, whose verdict
// reads its copies from the registered count.
func (c *Collector) Expect(taskID, copies int) {
	if copies < 1 {
		panic("verify: task must expect at least one copy")
	}
	if copies > math.MaxInt32 {
		panic("verify: copies above MaxInt32")
	}
	ts := c.task(taskID)
	if ts.verdict > 0 {
		panic("verify: Expect on an adjudicated task")
	}
	if ts.expected == 0 {
		c.registered++
	}
	if ts.got > 0 && int32(copies) > ts.expected {
		// A raise after the first result (outside the contract): the run was
		// cut for fewer copies, so it moves rather than grow into the next.
		at := c.runs.cut(uint32(copies))
		copy(c.run(at, ts.got), c.run(ts.at, ts.got))
		ts.at = at
	}
	ts.expected = int32(copies)
}

// ExpectAll registers the tasks of runs (a plan's Runs, or a subset of
// them), allocating the task table once at the highest ID and filling it
// one run at a time; Expect remains for tasks a revision mints later. Run
// storage is left to the first result.
func (c *Collector) ExpectAll(runs []plan.Run) {
	top := 0
	for _, r := range runs {
		if r.Count > 0 {
			top = max(top, r.End()-1)
		}
	}
	c.task(top)
	for _, r := range runs {
		if r.Count <= 0 {
			continue
		}
		c.task(r.First) // refuses a negative ID as Expect would
		if r.Copies < 1 {
			panic("verify: task must expect at least one copy")
		}
		if r.Copies > math.MaxInt32 {
			panic("verify: copies above MaxInt32")
		}
		copies := int32(r.Copies)
		for id := r.First; id < r.End(); id++ {
			ts := &c.tasks[id]
			if *ts != (taskState{}) {
				c.Expect(id, r.Copies) // seen before: Expect's own checks apply
				continue
			}
			ts.expected = copies
			c.registered++
		}
	}
}

// Reserve allocates now what a run of `results` results would otherwise
// allocate as Submit goes: the verdict list, run chunks for that many
// stored results and list chunks for that many contributors. It only
// moves those allocations out of a timed region; a chunk tail too short
// for the next cut still sends that cut to a chunk allocated then.
func (c *Collector) Reserve(results int) {
	if results < 0 {
		panic("verify: negative reservation")
	}
	c.growVerdicts(c.registered)
	c.runs.reserve(results)
	c.lists.reserve(results)
}

func (c *Collector) growVerdicts(n int) {
	if n > cap(c.verdicts) {
		grown := make([]stored, len(c.verdicts), n)
		copy(grown, c.verdicts)
		c.verdicts = grown
	}
}

// nextVerdict extends the verdict list by one slot. The first call
// allocates one per registered task; only tasks a revision mints after
// that push the list into geometric growth.
func (c *Collector) nextVerdict() *stored {
	n := len(c.verdicts)
	if n == cap(c.verdicts) {
		c.growVerdicts(max(c.registered, n+n/2+1))
	}
	c.verdicts = c.verdicts[:n+1]
	return &c.verdicts[n]
}

// cutLists stores s's contributor list (copies long) and then its suspect
// list in one fresh cut and returns the two for the caller to fill.
func (c *Collector) cutLists(s *stored, copies int) (contributors, suspects []int) {
	n := uint32(copies) + uint32(s.suspects)
	s.list = c.lists.cut(n)
	l := c.lists.at(s.list, n)
	return l[:copies:copies], l[copies:]
}

// build fills v from stored verdict s. Its lists alias the list chunks,
// and Suspects is nil when there are none.
func (c *Collector) build(s *stored, v *Verdict) {
	copies := uint32(c.tasks[s.task].expected)
	l := c.lists.at(s.list, copies+uint32(s.suspects))
	// Field by field: a composite literal is built aside and copied in.
	v.TaskID, v.Copies, v.Value = int(s.task), int(copies), s.value
	v.Ringer = s.flags&ringerFlag != 0
	v.Accepted = s.flags&acceptedFlag != 0
	v.MismatchDetected = s.flags&mismatchFlag != 0
	v.Contributors, v.Suspects = l[:copies:copies], nil
	if s.suspects > 0 {
		v.Suspects = l[copies:]
	}
}

// issue publishes the newest verdict, v: the task's index entry, the
// tallies, blacklist and convictions.
func (c *Collector) issue(v *Verdict) {
	c.tasks[v.TaskID].verdict = int32(len(c.verdicts))
	c.stats.Tasks++
	if v.Accepted {
		c.stats.Accepted++
	}
	if v.MismatchDetected {
		c.stats.MismatchDetected++
		if v.Ringer {
			c.stats.RingersCaught++
		}
	}
	for _, s := range v.Suspects {
		c.blacklist[s] = true
		if v.Ringer {
			c.convicted[s] = true
		}
	}
}

// SetComparator installs the value comparator (Exact by default). It must
// be called before the first Submit.
func (c *Collector) SetComparator(cmp Comparator) {
	if cmp == nil {
		cmp = Exact{}
	}
	c.cmp = cmp
}

// Submit records one result. When the final expected copy of the task
// arrives the task is adjudicated and the verdict returned with done=true.
func (c *Collector) Submit(r Result) (v Verdict, done bool, err error) {
	if done, err = c.submit(&r, &c.built[0]); !done {
		return Verdict{}, false, err
	}
	return c.built[0], true, nil
}

// SubmitBatch submits rs in order, exactly as len(rs) calls to Submit
// would, and appends one Outcome per result to out. Before adjudicating
// any of them it resolves the batch: one pass loads every result's task
// slot, a second the first stored entry of every slot that has a run. The
// loads of a pass do not depend on each other, so their cache misses
// overlap instead of being paid one result at a time.
func (c *Collector) SubmitBatch(rs []Result, out []Outcome) []Outcome {
	sink := c.sink
	for i := range rs {
		if id := rs[i].Assignment.TaskID; id >= 0 && id < len(c.tasks) {
			sink += c.tasks[id].got
		}
	}
	for i := range rs {
		if id := rs[i].Assignment.TaskID; id >= 0 && id < len(c.tasks) {
			if ts := &c.tasks[id]; ts.got > 0 {
				sink += c.run(ts.at, 1)[0].copy
			}
		}
	}
	c.sink = sink
	if len(c.built) < len(rs) {
		c.built = make([]Verdict, len(rs))
	}
	built, k := c.built, 0
	for i := range rs {
		done, err := c.submit(&rs[i], &built[k])
		o := Outcome{Err: err}
		if done {
			o.Verdict = &built[k]
			k++
		}
		out = append(out, o)
	}
	return out
}

// submit is Submit's body: it stores r in its task's run and, when r is
// the task's final copy, adjudicates the task, builds its verdict into
// into and reports done.
func (c *Collector) submit(r *Result, into *Verdict) (done bool, err error) {
	id := r.Assignment.TaskID
	if id < 0 || id >= len(c.tasks) || c.tasks[id].expected == 0 {
		return false, fmt.Errorf("verify: result for unregistered task %d", id)
	}
	ts := &c.tasks[id]
	if ts.verdict > 0 {
		return false, fmt.Errorf("verify: task %d already adjudicated", id)
	}
	if r.Assignment.Copy < 0 || r.Assignment.Copy >= int(ts.expected) {
		return false, fmt.Errorf("verify: copy %d of task %d outside its %d copies", r.Assignment.Copy, id, ts.expected)
	}
	cp, p := int32(r.Assignment.Copy), int32(r.Participant) // copy < expected fits in 32 bits
	if int(p) != r.Participant {
		return false, fmt.Errorf("verify: participant %d does not fit in 32 bits", r.Participant)
	}
	if ts.got == 0 {
		ts.at = c.runs.cut(uint32(ts.expected))
		if r.Assignment.Ringer {
			ts.verdict = ringerRun
		}
		c.partial++ // first stored result: the task becomes partial
	}
	run := c.run(ts.at, ts.got+1)
	// Speculative reissue can legitimately produce two answers for the same
	// copy index; only the claim winner may reach adjudication, so a second
	// never counts toward the quorum whatever the caller's bookkeeping missed.
	for i := range run[:ts.got] {
		if run[i].copy == cp {
			return false, fmt.Errorf("verify: duplicate copy %d for task %d", r.Assignment.Copy, id)
		}
	}
	run[ts.got] = entry{value: r.Value, participant: p, copy: cp}
	ts.got++
	if ts.got < ts.expected {
		return false, nil
	}
	ts.got = 0
	c.partial--
	c.build(c.adjudicate(id, r.Assignment.Ringer, run), into)
	c.issue(into)
	return true, nil
}

// adjudicate appends the stored verdict of one fully-collected task to
// c.verdicts and returns it. The run is walked by index and the lists are
// cut once the vote has counted the suspects, so nothing is allocated but
// a disputed task's vote map.
func (c *Collector) adjudicate(taskID int, ringer bool, run []entry) *stored {
	s := c.nextVerdict()
	*s = stored{task: int32(taskID)}
	// right is the canonical value an honest copy returns; a copy that
	// differs from it is a suspect, and so is every copy when no strict
	// majority exists.
	var right uint64
	suspects, everyone := 0, false
	if ringer {
		if c.truth == nil {
			panic("verify: ringer task adjudicated without a truth oracle")
		}
		s.flags, s.value = ringerFlag, c.truth(taskID)
		right = c.cmp.Canonical(s.value)
		for i := range run {
			if c.cmp.Canonical(run[i].value) != right {
				suspects++
			}
		}
	} else {
		// Regular task: majority vote over canonicalized values. Unanimity
		// is the overwhelmingly common outcome, so check it with one pass
		// before paying for the per-task vote map.
		right = c.cmp.Canonical(run[0].value)
		unanimous := true
		for i := 1; i < len(run); i++ {
			if c.cmp.Canonical(run[i].value) != right {
				unanimous = false
				break
			}
		}
		if unanimous {
			s.value = run[0].value
		} else {
			counts := make(map[uint64]int)
			for i := range run {
				counts[c.cmp.Canonical(run[i].value)]++
			}
			// Find the majority canonical value; prefer the numerically
			// smallest on ties so adjudication is deterministic.
			best := -1
			for val, n := range counts {
				if n > best || (n == best && val < right) {
					right, best = val, n
				}
			}
			suspects = len(run) - best
			if everyone = best*2 <= len(run); everyone {
				suspects = len(run)
			}
		}
	}
	if suspects == 0 {
		s.flags |= acceptedFlag
	} else {
		s.flags |= mismatchFlag
	}
	s.suspects = int32(suspects)
	contributors, suspect := c.cutLists(s, len(run))
	k := 0
	for i := range run {
		p := int(run[i].participant)
		contributors[i] = p
		if suspects > 0 && (everyone || c.cmp.Canonical(run[i].value) != right) {
			suspect[k] = p
			k++
		}
	}
	if suspects > 1 {
		sort.Ints(suspect)
	}
	return s
}

// NumVerdicts returns the number of verdicts issued so far.
func (c *Collector) NumVerdicts() int { return len(c.verdicts) }

// VerdictAt returns the i-th verdict issued, in adjudication order. Its
// lists are the collector's, never written again: callers must not mutate
// them.
func (c *Collector) VerdictAt(i int) (v Verdict) {
	c.build(&c.verdicts[i], &v)
	return v
}

// VerdictFor returns the verdict of an adjudicated task, as VerdictAt.
func (c *Collector) VerdictFor(taskID int) (v Verdict, ok bool) {
	if taskID < 0 || taskID >= len(c.tasks) || c.tasks[taskID].verdict <= 0 {
		return Verdict{}, false
	}
	return c.VerdictAt(int(c.tasks[taskID].verdict - 1)), true
}

// VerdictCapacity returns how many verdicts the stored list holds before
// it next grows.
func (c *Collector) VerdictCapacity() int { return cap(c.verdicts) }

// RestoreVerdict reinstates a previously-issued verdict during snapshot
// restore: the task is marked adjudicated and the collector's effects of
// the original adjudication (verdict list, tallies, blacklist, convictions)
// replay exactly as the live Submit performed them, without the per-copy
// results; the caller holds v and applies its own effects from it. The
// task must be registered, not collected, and the verdict must have the
// task's copies and one contributor each. Its lists are copied: the caller
// keeps v's slices.
func (c *Collector) RestoreVerdict(v Verdict) error {
	if v.TaskID < 0 || v.TaskID >= len(c.tasks) || c.tasks[v.TaskID].expected == 0 {
		return fmt.Errorf("verify: restored verdict for unregistered task %d", v.TaskID)
	}
	ts := &c.tasks[v.TaskID]
	if ts.verdict > 0 {
		return fmt.Errorf("verify: restored verdict for already-adjudicated task %d", v.TaskID)
	}
	if ts.got != 0 {
		return fmt.Errorf("verify: restored verdict for task %d with partial results", v.TaskID)
	}
	if v.Copies != int(ts.expected) {
		return fmt.Errorf("verify: restored verdict for task %d has %d copies, the task expects %d",
			v.TaskID, v.Copies, ts.expected)
	}
	if len(v.Contributors) != v.Copies {
		return fmt.Errorf("verify: restored verdict for task %d lists %d contributors for %d copies",
			v.TaskID, len(v.Contributors), v.Copies)
	}
	if len(v.Suspects) > math.MaxInt32 {
		return fmt.Errorf("verify: restored verdict for task %d lists %d suspects", v.TaskID, len(v.Suspects))
	}
	s := c.nextVerdict()
	*s = stored{value: v.Value, task: int32(v.TaskID), suspects: int32(len(v.Suspects))}
	if v.Ringer {
		s.flags |= ringerFlag
	}
	if v.Accepted {
		s.flags |= acceptedFlag
	}
	if v.MismatchDetected {
		s.flags |= mismatchFlag
	}
	contributors, suspects := c.cutLists(s, v.Copies)
	copy(contributors, v.Contributors)
	copy(suspects, v.Suspects)
	c.issue(&v)
	return nil
}

// PendingResults returns every partial result — tasks submitted to but
// not yet adjudicated — ordered by task ID, then submission order within
// a task. The deterministic enumeration is what snapshot capture encodes.
func (c *Collector) PendingResults() []Result {
	out := make([]Result, 0, c.partial)
	for id := range c.tasks {
		out = c.appendStored(out, id)
	}
	return out
}

// appendStored appends the results stored in task id's run to out, in
// submission order. A task without a run appends nothing.
func (c *Collector) appendStored(out []Result, id int) []Result {
	ts := &c.tasks[id]
	if ts.got == 0 {
		return out
	}
	ringer := ts.verdict == ringerRun
	for _, e := range c.run(ts.at, ts.got) {
		out = append(out, Result{
			Assignment:  sched.Assignment{TaskID: id, Copy: int(e.copy), Ringer: ringer},
			Participant: int(e.participant),
			Value:       e.value,
		})
	}
	return out
}

// Blacklisted reports whether a participant has been implicated.
func (c *Collector) Blacklisted(participant int) bool { return c.blacklist[participant] }

// Blacklist returns the implicated participants in ascending order.
func (c *Collector) Blacklist() []int { return ascending(c.blacklist) }

func ascending(set map[int]bool) []int {
	out := make([]int, 0, len(set))
	for p := range set {
		out = append(out, p)
	}
	sort.Ints(out)
	return out
}

// Convicted reports whether a participant has been caught by conclusive
// (ringer) evidence.
func (c *Collector) Convicted(participant int) bool { return c.convicted[participant] }

// ConvictedList returns the conclusively-caught participants, ascending.
func (c *Collector) ConvictedList() []int { return ascending(c.convicted) }

// PendingTasks returns the number of tasks with partial results.
func (c *Collector) PendingTasks() int { return c.partial }

// Stats summarizes the verdicts issued so far.
type Stats struct {
	Tasks            int // adjudicated tasks
	Accepted         int // certified results
	MismatchDetected int // tasks where cheating was exposed
	RingersCaught    int // ringer tasks that exposed cheating
}

// Stats returns the tallies of the verdict stream.
func (c *Collector) Stats() Stats { return c.stats }
