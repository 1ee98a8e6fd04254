// Package verify implements the supervisor's result-certification pipeline:
// collecting returned results per task, adjudicating them by redundancy
// (matching results are accepted — exactly the assumption the paper's
// adversary exploits), checking ringer tasks against precomputed truth, and
// maintaining a blacklist of implicated participants.
package verify

import (
	"fmt"
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

// taskState is one task's collection state, indexed by task ID. Task IDs
// are dense (plans number from 0 and minted ringers extend the range), so
// a flat slice serves where maps cost a hash on every result.
type taskState struct {
	// expected copies, registered up front; 0 means unregistered.
	expected int
	// verdict is 1 + the task's index in Collector.verdicts, 0 until the
	// task is adjudicated; late and duplicate results are rejected by it.
	verdict int
	// results collected so far (nil before the first and once adjudicated).
	results []Result
}

// Result buffers and contributor lists are cut from chunks that are never
// copied; a chunk whose tasks are all adjudicated is garbage like any other.
const (
	resultChunkLen  = 4096 // Results per chunk (160 KB)
	contribChunkLen = 8192 // participant IDs per chunk (64 KB)
)

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
	verdicts []Verdict
	stats    Stats
	// resultChunk and contribChunk are the unused tails of the current chunks.
	resultChunk  []Result
	contribChunk []int
	blacklist    map[int]bool
	// convicted holds participants caught by ringer evidence, which is
	// conclusive: the supervisor precomputed the true value. Mismatch
	// suspects on regular tasks are circumstantial (an even split cannot
	// say who lied) and only reach the blacklist.
	convicted map[int]bool
	// onVerdict, when set, observes each verdict as it is issued.
	onVerdict func(*Verdict)
}

// NewCollector creates a collector. truth supplies precomputed values for
// ringer tasks and may be nil if the plan has no ringers.
func NewCollector(truth func(taskID int) uint64) *Collector {
	return &Collector{
		truth:     truth,
		cmp:       Exact{},
		blacklist: make(map[int]bool),
		convicted: make(map[int]bool),
	}
}

// carve cuts n elements off the front of *chunk, starting a new chunk of
// at least size elements when the current one is too short. The cut is
// capped at its length, so an append past it cannot reach the next cut.
func carve[T any](chunk *[]T, n, size int) []T {
	if n > len(*chunk) {
		*chunk = make([]T, max(n, size))
	}
	out := (*chunk)[:n:n]
	*chunk = (*chunk)[n:]
	return out
}

// task returns the state slot for taskID, growing the table as needed
// (geometrically, so registering n tasks one by one stays O(n)).
func (c *Collector) task(taskID int) *taskState {
	if taskID >= len(c.tasks) {
		grown := make([]taskState, max(taskID+1, 2*len(c.tasks)))
		copy(grown, c.tasks)
		c.tasks = grown // tail slots read as unregistered (expected 0)
	}
	return &c.tasks[taskID]
}

// Expect registers that taskID will receive copies results, or, for a task
// a revision promotes, raises that number. It must be called before the
// task's first Submit.
func (c *Collector) Expect(taskID, copies int) {
	if copies < 1 {
		panic("verify: task must expect at least one copy")
	}
	if taskID < 0 {
		panic("verify: negative task ID")
	}
	ts := c.task(taskID)
	if ts.expected == 0 {
		c.registered++
	}
	ts.expected = copies
}

// ExpectAll registers a plan's tasks, allocating the task table once at
// the highest ID; Expect remains for tasks a revision mints later.
func (c *Collector) ExpectAll(specs []plan.TaskSpec) {
	top := 0
	for i := range specs {
		top = max(top, specs[i].ID)
	}
	c.task(top)
	for i := range specs {
		c.Expect(specs[i].ID, specs[i].Copies)
	}
}

// Reserve allocates now what a run of `results` results would otherwise
// allocate as Submit goes: the verdict list, one result chunk, one
// contributor chunk. It only moves those allocations out of a timed region.
func (c *Collector) Reserve(results int) {
	if results < 0 {
		panic("verify: negative reservation")
	}
	c.growVerdicts(c.registered)
	c.resultChunk = make([]Result, results)
	c.contribChunk = make([]int, results)
}

func (c *Collector) growVerdicts(n int) {
	if n > cap(c.verdicts) {
		grown := make([]Verdict, len(c.verdicts), n)
		copy(grown, c.verdicts)
		c.verdicts = grown
	}
}

// nextVerdict extends the verdict list by one zeroed slot. The first call
// allocates one per registered task; only tasks a revision mints after
// that push the list into geometric growth.
func (c *Collector) nextVerdict() *Verdict {
	n := len(c.verdicts)
	if n == cap(c.verdicts) {
		c.growVerdicts(max(c.registered, n+n/2+1))
	}
	c.verdicts = c.verdicts[:n+1]
	return &c.verdicts[n]
}

// issue publishes the newest verdict once filled in: the task's index
// entry, the tallies, blacklist and convictions, then the callback.
func (c *Collector) issue(v *Verdict) {
	c.tasks[v.TaskID].verdict = len(c.verdicts)
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
	if c.onVerdict != nil {
		c.onVerdict(v)
	}
}

// OnVerdict registers a callback invoked for every adjudicated task. The
// verdict is passed by pointer (the copy is measurable at simulation scale)
// and stays owned by the collector: callbacks must not retain or mutate it.
func (c *Collector) OnVerdict(fn func(*Verdict)) { c.onVerdict = fn }

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
	id := r.Assignment.TaskID
	if id < 0 || id >= len(c.tasks) || c.tasks[id].expected == 0 {
		return Verdict{}, false, fmt.Errorf("verify: result for unregistered task %d", id)
	}
	ts := &c.tasks[id]
	if ts.verdict != 0 {
		return Verdict{}, false, fmt.Errorf("verify: task %d already adjudicated", id)
	}
	if ts.results == nil {
		ts.results = carve(&c.resultChunk, ts.expected, resultChunkLen)[:0]
	}
	// Speculative reissue can legitimately produce two answers for the same
	// copy index; only the claim winner may reach adjudication, so a second
	// never counts toward the quorum whatever the caller's bookkeeping missed.
	for i := range ts.results {
		if ts.results[i].Assignment.Copy == r.Assignment.Copy {
			return Verdict{}, false, fmt.Errorf("verify: duplicate copy %d for task %d", r.Assignment.Copy, id)
		}
	}
	if len(ts.results) == 0 {
		c.partial++ // first stored result: the task becomes partial
	}
	ts.results = append(ts.results, r)
	if len(ts.results) < ts.expected {
		return Verdict{}, false, nil
	}
	got := ts.results
	ts.results = nil
	c.partial--
	vp := c.adjudicate(id, r.Assignment.Ringer, got)
	c.issue(vp)
	return *vp, true, nil
}

// adjudicate appends the verdict for one fully-collected task to
// c.verdicts and returns a pointer to it. The verdict is built in place
// and results are walked by index: a Verdict is 88 bytes and a Result 40,
// and copying them dominated the scenario lab's profile at 10^6 tasks.
func (c *Collector) adjudicate(taskID int, ringer bool, results []Result) *Verdict {
	v := c.nextVerdict()
	v.TaskID, v.Ringer, v.Copies = taskID, ringer, len(results)
	v.Contributors = carve(&c.contribChunk, len(results), contribChunkLen)
	for i := range results {
		v.Contributors[i] = results[i].Participant
	}

	if ringer {
		if c.truth == nil {
			panic("verify: ringer task adjudicated without a truth oracle")
		}
		want := c.truth(taskID)
		wantC := c.cmp.Canonical(want)
		for i := range results {
			if c.cmp.Canonical(results[i].Value) != wantC {
				v.MismatchDetected = true
				v.Suspects = append(v.Suspects, results[i].Participant)
			}
		}
		v.Accepted = !v.MismatchDetected
		v.Value = want
		sort.Ints(v.Suspects)
		return v
	}

	// Regular task: majority vote over canonicalized values. Unanimity is
	// the overwhelmingly common outcome, so check it with one pass before
	// paying for the per-task vote map.
	first := c.cmp.Canonical(results[0].Value)
	unanimous := true
	for i := 1; i < len(results); i++ {
		if c.cmp.Canonical(results[i].Value) != first {
			unanimous = false
			break
		}
	}
	if unanimous {
		v.Accepted = true
		v.Value = results[0].Value
		return v
	}
	counts := make(map[uint64]int)
	for i := range results {
		counts[c.cmp.Canonical(results[i].Value)]++
	}
	v.MismatchDetected = true
	// Find the majority canonical value; prefer the numerically smallest
	// on ties so adjudication is deterministic.
	var majority uint64
	best := -1
	for val, n := range counts {
		if n > best || (n == best && val < majority) {
			majority, best = val, n
		}
	}
	strict := best*2 > len(results)
	for i := range results {
		if !strict || c.cmp.Canonical(results[i].Value) != majority {
			v.Suspects = append(v.Suspects, results[i].Participant)
		}
	}
	sort.Ints(v.Suspects)
	return v
}

// Verdicts returns all verdicts issued so far, in adjudication order.
func (c *Collector) Verdicts() []Verdict { return c.verdicts }

// VerdictFor returns the verdict of an adjudicated task, owned by the
// collector and valid until the next Submit or RestoreVerdict.
func (c *Collector) VerdictFor(taskID int) (*Verdict, bool) {
	if taskID < 0 || taskID >= len(c.tasks) || c.tasks[taskID].verdict == 0 {
		return nil, false
	}
	return &c.verdicts[c.tasks[taskID].verdict-1], true
}

// RestoreVerdict reinstates a previously-issued verdict during snapshot
// restore: the task is marked adjudicated and every downstream effect of
// the original adjudication (verdict list, tallies, blacklist, convictions,
// the OnVerdict callback) replays exactly as the live Submit performed it,
// without the per-copy results. The task must be registered, not collected.
func (c *Collector) RestoreVerdict(v Verdict) error {
	if v.TaskID < 0 || v.TaskID >= len(c.tasks) || c.tasks[v.TaskID].expected == 0 {
		return fmt.Errorf("verify: restored verdict for unregistered task %d", v.TaskID)
	}
	ts := &c.tasks[v.TaskID]
	if ts.verdict != 0 {
		return fmt.Errorf("verify: restored verdict for already-adjudicated task %d", v.TaskID)
	}
	if ts.results != nil {
		return fmt.Errorf("verify: restored verdict for task %d with partial results", v.TaskID)
	}
	vp := c.nextVerdict()
	*vp = v
	c.issue(vp)
	return nil
}

// PendingResults returns every partial result — tasks submitted to but
// not yet adjudicated — ordered by task ID, then submission order within
// a task. The deterministic enumeration is what snapshot capture encodes.
func (c *Collector) PendingResults() []Result {
	out := make([]Result, 0, c.partial)
	for i := range c.tasks {
		out = append(out, c.tasks[i].results...)
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
