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
	// It is owned by the collector and valid until the next Submit,
	// SubmitBatch or RestoreVerdict; callers must not retain or mutate it.
	Verdict *Verdict
}

// taskState is one task's collection state, 16 bytes, indexed by task ID.
// Task IDs are dense (plans number from 0 and minted ringers extend the
// range), so a flat slice serves where maps cost a hash on every result,
// and four slots share a cache line.
type taskState struct {
	// expected copies, registered up front; 0 means unregistered.
	expected int32
	// got counts the results stored in the task's run; 0 means the task has
	// no run (no result yet, or adjudicated).
	got int32
	// at is the address of the task's run (see Collector.run) while got > 0.
	// The run holds at least expected entries.
	at int32
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

// Runs are cut in arrival order, at each task's first result, from chunks
// of runChunkLen entries; a run's address is its chunk's index shifted
// past runShift plus its offset in the chunk, so 31 bits address 2^31
// stored results without a pointer per task. A run longer than a chunk
// gets a chunk of its own at offset 0. Contributor lists are cut from
// chunks of their own at adjudication. No chunk is ever copied.
const (
	runShift        = 12
	runChunkLen     = 1 << runShift // entries per run chunk (64 KB)
	runMask         = runChunkLen - 1
	maxRunChunks    = 1 << (31 - runShift)
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
	// runs holds the run chunks by address >> runShift. The first cutChunks
	// have been cut from; any after them were allocated ahead by Reserve.
	runs      [][]entry
	cutChunks int32
	// next is the address of the next cut and room the entries left behind
	// it in the current chunk.
	next, room int32
	// contribChunk is the unused tail of the current contributor chunk.
	contribChunk []int
	// sink takes a value from every load SubmitBatch's resolve passes make,
	// so the compiler cannot drop the loads as unused.
	sink      int32
	blacklist map[int]bool
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

// carve cuts a contributor list of n off the front of the current
// contributor chunk, starting a new chunk when the current one is too
// short. The cut is capped at its length, so an append past it cannot
// reach the next cut.
func (c *Collector) carve(n int) []int {
	if n > len(c.contribChunk) {
		c.contribChunk = make([]int, max(n, contribChunkLen))
	}
	out := c.contribChunk[:n:n]
	c.contribChunk = c.contribChunk[n:]
	return out
}

// cut returns the address of a fresh run of n entries behind the last
// one. A run never spans two chunks: when the current chunk's room is too
// short the cut moves to the next chunk (reserved, or allocated now) and
// the short tail stays unused.
func (c *Collector) cut(n int32) int32 {
	if n > c.room {
		k := c.cutChunks
		if k == maxRunChunks {
			panic("verify: run storage exhausted")
		}
		if int(k) == len(c.runs) {
			c.runs = append(c.runs, nil)
		}
		if len(c.runs[k]) < int(n) {
			c.runs[k] = make([]entry, max(n, runChunkLen))
		}
		c.cutChunks++
		c.next, c.room = k<<runShift, int32(len(c.runs[k]))
	}
	at := c.next
	c.next += n
	c.room -= n
	return at
}

// run returns the n entries at address at.
func (c *Collector) run(at, n int32) []entry {
	off := at & runMask
	return c.runs[at>>runShift][off : off+n : off+n]
}

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
// task's first Submit.
func (c *Collector) Expect(taskID, copies int) {
	if copies < 1 {
		panic("verify: task must expect at least one copy")
	}
	if copies > math.MaxInt32 {
		panic("verify: copies above MaxInt32")
	}
	ts := c.task(taskID)
	if ts.expected == 0 {
		c.registered++
	}
	if ts.got > 0 && int32(copies) > ts.expected {
		// A raise after the first result (outside the contract): the run was
		// cut for fewer copies, so it moves rather than grow into the next.
		at := c.cut(int32(copies))
		copy(c.run(at, ts.got), c.run(ts.at, ts.got))
		ts.at = at
	}
	ts.expected = int32(copies)
}

// ExpectAll registers a plan's tasks, allocating the task table once at
// the highest ID; Expect remains for tasks a revision mints later. Run
// storage is left to the first result.
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
// allocate as Submit goes: the verdict list, run chunks for that many
// stored results, one contributor chunk. It only moves those allocations
// out of a timed region; a chunk tail too short for the next run still
// sends that run to a chunk allocated when it is cut.
func (c *Collector) Reserve(results int) {
	if results < 0 {
		panic("verify: negative reservation")
	}
	c.growVerdicts(c.registered)
	for ahead := len(c.runs) - int(c.cutChunks); ahead*runChunkLen < results; ahead++ {
		c.runs = append(c.runs, make([]entry, runChunkLen))
	}
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
	vp, err := c.submit(&r)
	if vp == nil {
		return Verdict{}, false, err
	}
	return *vp, true, nil
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
				sink += c.runs[ts.at>>runShift][ts.at&runMask].copy
			}
		}
	}
	c.sink = sink
	for i := range rs {
		vp, err := c.submit(&rs[i])
		out = append(out, Outcome{Err: err, Verdict: vp})
	}
	return out
}

// submit is Submit's body: it stores r in its task's run and, when r is
// the task's final copy, adjudicates the task and returns its verdict.
func (c *Collector) submit(r *Result) (*Verdict, error) {
	id := r.Assignment.TaskID
	if id < 0 || id >= len(c.tasks) || c.tasks[id].expected == 0 {
		return nil, fmt.Errorf("verify: result for unregistered task %d", id)
	}
	ts := &c.tasks[id]
	if ts.verdict > 0 {
		return nil, fmt.Errorf("verify: task %d already adjudicated", id)
	}
	cp, p := int32(r.Assignment.Copy), int32(r.Participant)
	if int(cp) != r.Assignment.Copy {
		return nil, fmt.Errorf("verify: copy %d of task %d does not fit in 32 bits", r.Assignment.Copy, id)
	}
	if int(p) != r.Participant {
		return nil, fmt.Errorf("verify: participant %d does not fit in 32 bits", r.Participant)
	}
	if ts.got == 0 {
		ts.at = c.cut(ts.expected)
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
			return nil, fmt.Errorf("verify: duplicate copy %d for task %d", r.Assignment.Copy, id)
		}
	}
	run[ts.got] = entry{value: r.Value, participant: p, copy: cp}
	ts.got++
	if ts.got < ts.expected {
		return nil, nil
	}
	ts.got = 0
	c.partial--
	vp := c.adjudicate(id, r.Assignment.Ringer, run)
	c.issue(vp)
	return vp, nil
}

// adjudicate appends the verdict for one fully-collected task to
// c.verdicts and returns a pointer to it. The verdict is built in place
// and the run walked by index: a Verdict is 88 bytes, and copying verdicts
// and results dominated the scenario lab's profile at 10^6 tasks.
func (c *Collector) adjudicate(taskID int, ringer bool, run []entry) *Verdict {
	v := c.nextVerdict()
	v.TaskID, v.Ringer, v.Copies = taskID, ringer, len(run)
	v.Contributors = c.carve(len(run))
	for i := range run {
		v.Contributors[i] = int(run[i].participant)
	}

	if ringer {
		if c.truth == nil {
			panic("verify: ringer task adjudicated without a truth oracle")
		}
		want := c.truth(taskID)
		wantC := c.cmp.Canonical(want)
		for i := range run {
			if c.cmp.Canonical(run[i].value) != wantC {
				v.MismatchDetected = true
				v.Suspects = append(v.Suspects, int(run[i].participant))
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
	first := c.cmp.Canonical(run[0].value)
	unanimous := true
	for i := 1; i < len(run); i++ {
		if c.cmp.Canonical(run[i].value) != first {
			unanimous = false
			break
		}
	}
	if unanimous {
		v.Accepted = true
		v.Value = run[0].value
		return v
	}
	counts := make(map[uint64]int)
	for i := range run {
		counts[c.cmp.Canonical(run[i].value)]++
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
	strict := best*2 > len(run)
	for i := range run {
		if !strict || c.cmp.Canonical(run[i].value) != majority {
			v.Suspects = append(v.Suspects, int(run[i].participant))
		}
	}
	sort.Ints(v.Suspects)
	return v
}

// Verdicts returns all verdicts issued so far, in adjudication order.
func (c *Collector) Verdicts() []Verdict { return c.verdicts }

// VerdictFor returns the verdict of an adjudicated task, owned by the
// collector and valid until the next Submit, SubmitBatch or RestoreVerdict.
func (c *Collector) VerdictFor(taskID int) (*Verdict, bool) {
	if taskID < 0 || taskID >= len(c.tasks) || c.tasks[taskID].verdict <= 0 {
		return nil, false
	}
	return &c.verdicts[c.tasks[taskID].verdict-1], true
}

// RestoreVerdict reinstates a previously-issued verdict during snapshot
// restore: the task is marked adjudicated and every downstream effect of
// the original adjudication (verdict list, tallies, blacklist, convictions,
// the OnVerdict callback) replays exactly as the live Submit performed it,
// without the per-copy results. The task must be registered, not collected,
// and the verdict must have the task's copies and one contributor each.
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
