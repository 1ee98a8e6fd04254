package verify

import (
	"reflect"
	"slices"
	"sort"
	"testing"

	"redundancy/internal/plan"
	"redundancy/internal/rng"
	"redundancy/internal/sched"
)

func truthOf(taskID int) uint64 { return uint64(taskID)*2654435761 + 17 }

// balancedRun returns the tasks of plan.Balanced(n, 0.5) and one honest
// result per assignment, in the order a Free queue seeded with seed deals
// them, from two participants.
func balancedRun(t testing.TB, n int, seed uint64) ([]plan.TaskSpec, []Result) {
	t.Helper()
	p, err := plan.Balanced(n, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	specs := p.Tasks()
	q, err := sched.NewQueue(specs, sched.Free, rng.New(seed))
	if err != nil {
		t.Fatal(err)
	}
	order := q.NextBatch(nil, q.Total())
	results := make([]Result, len(order))
	for i, a := range order {
		results[i] = Result{Assignment: a, Participant: i % 2, Value: truthOf(a.TaskID)}
	}
	return specs, results
}

// collect registers specs in bulk and submits results, without Reserve.
func collect(t testing.TB, specs []plan.TaskSpec, results []Result) *Collector {
	c := NewCollector(truthOf)
	c.ExpectAll(specs)
	for i := range results {
		if _, _, err := c.Submit(results[i]); err != nil {
			t.Fatal(err)
		}
	}
	return c
}

// TestSubmitDoesNotAllocatePerResult: a whole run's allocations are the
// task table, the verdict list and one chunk per 4096 results and 8192
// contributors, whatever order the results arrive in. The vote map and the
// suspect list of a disputed task are all that is left per task.
func TestSubmitDoesNotAllocatePerResult(t *testing.T) {
	const tasks = 20_000
	specs, results := balancedRun(t, tasks, 5)
	var c *Collector
	honest := testing.AllocsPerRun(3, func() { c = collect(t, specs, results) })
	if st := c.Stats(); st.Accepted != len(specs) || st.MismatchDetected != 0 {
		t.Fatalf("honest run: %+v over %d tasks", st, len(specs))
	}
	if per := honest / float64(len(results)); per > 0.01 {
		t.Errorf("%.0f allocations for %d results (%.4f per result, budget 0.01)", honest, len(results), per)
	}

	// A coalition member lies on every 50th result; where the task has
	// other copies that is a mismatch.
	lying := slices.Clone(results)
	for i := 0; i < len(lying); i += 50 {
		lying[i].Value++
	}
	disputed := testing.AllocsPerRun(3, func() { c = collect(t, specs, lying) })
	st := c.Stats()
	if st.MismatchDetected == 0 {
		t.Fatal("the lying run exposed no mismatch")
	}
	// At most the suspect list's growth (three appends reach four suspects)
	// and the vote map per disputed task, nothing on the others.
	if extra := disputed - honest; extra > 5*float64(st.MismatchDetected) {
		t.Errorf("%d disputed tasks cost %.0f allocations beyond the honest run's %.0f",
			st.MismatchDetected, extra, honest)
	}
}

// TestReserveIsTheSamePath: Reserve moves allocations, nothing else.
func TestReserveIsTheSamePath(t *testing.T) {
	specs, results := balancedRun(t, 3000, 9)
	for i := 0; i < len(results); i += 7 {
		results[i].Value++
	}
	plain := collect(t, specs, results)
	reserved := NewCollector(truthOf)
	for _, sp := range specs {
		reserved.Expect(sp.ID, sp.Copies)
	}
	reserved.Reserve(len(results))
	for i := range results {
		if _, _, err := reserved.Submit(results[i]); err != nil {
			t.Fatal(err)
		}
	}
	if !reflect.DeepEqual(plain.Verdicts(), reserved.Verdicts()) {
		t.Error("verdicts differ between a reserved and an unreserved collector")
	}
	if plain.Stats() != reserved.Stats() || plain.Stats().MismatchDetected == 0 {
		t.Errorf("stats: %+v vs %+v", plain.Stats(), reserved.Stats())
	}
	if !reflect.DeepEqual(plain.Blacklist(), reserved.Blacklist()) || len(plain.Blacklist()) == 0 {
		t.Errorf("blacklist: %v vs %v", plain.Blacklist(), reserved.Blacklist())
	}
}

// refCollector is the naive collector the carved storage is checked
// against: every buffer and every verdict slice allocated on its own by
// append, adjudication written from the rule rather than from verify.go.
type refCollector struct {
	expected []int      // by task ID
	results  [][]Result // by task ID, nil when nothing is buffered
	verdicts []Verdict
}

func (rc *refCollector) expect(id, copies int) {
	for len(rc.expected) <= id {
		rc.expected = append(rc.expected, 0)
		rc.results = append(rc.results, nil)
	}
	rc.expected[id] = copies
}

func (rc *refCollector) submit(r Result) {
	id := r.Assignment.TaskID
	rc.results[id] = append(rc.results[id], r)
	got := rc.results[id]
	if len(got) < rc.expected[id] {
		return
	}
	rc.results[id] = nil
	v := Verdict{TaskID: id, Ringer: r.Assignment.Ringer, Copies: len(got)}
	votes := map[uint64]int{}
	for _, g := range got {
		v.Contributors = append(v.Contributors, g.Participant)
		votes[g.Value]++
	}
	right, strict := truthOf(id), true
	if !v.Ringer {
		best := 0
		for val, n := range votes {
			if n > best || n == best && val < right {
				right, best = val, n
			}
		}
		strict = 2*best > len(got)
	}
	for _, g := range got {
		if !strict || g.Value != right {
			v.Suspects = append(v.Suspects, g.Participant)
		}
	}
	sort.Ints(v.Suspects)
	v.MismatchDetected = len(v.Suspects) > 0
	v.Accepted = !v.MismatchDetected
	if v.Accepted || v.Ringer {
		v.Value = right
	}
	rc.verdicts = append(rc.verdicts, v)
}

// TestCarvedBufferCannotReachItsNeighbour: the one way a buffer is appended
// to past its cut is an Expect that raises a task after its first result
// (outside the contract). The buffer must move, not run on into the cut
// after it.
func TestCarvedBufferCannotReachItsNeighbour(t *testing.T) {
	c := NewCollector(nil)
	c.ExpectAll([]plan.TaskSpec{{ID: 0, Copies: 2}, {ID: 1, Copies: 2}})
	c.Submit(res(0, 0, 10, 5, false)) // cuts task 0's two slots
	c.Submit(res(1, 0, 20, 6, false)) // and task 1's right behind them
	c.Expect(0, 3)
	c.Submit(res(0, 1, 11, 5, false))
	if _, done, err := c.Submit(res(0, 2, 12, 5, false)); !done || err != nil {
		t.Fatalf("third copy of the raised task: done=%v err=%v", done, err)
	}
	if got := c.PendingResults(); len(got) != 1 || got[0] != res(1, 0, 20, 6, false) {
		t.Fatalf("task 1's buffered result is now %+v", got)
	}
	v, done, _ := c.Submit(res(1, 1, 21, 6, false))
	if !done || !v.Accepted || !slices.Equal(v.Contributors, []int{20, 21}) {
		t.Errorf("task 1's verdict = %+v", v)
	}
}

func sameVerdict(a, b *Verdict) bool {
	return a.TaskID == b.TaskID && a.Ringer == b.Ringer && a.Copies == b.Copies &&
		a.Accepted == b.Accepted && a.Value == b.Value && a.MismatchDetected == b.MismatchDetected &&
		slices.Equal(a.Suspects, b.Suspects) && slices.Equal(a.Contributors, b.Contributors)
}

// TestCarvedStorageNeverAliases replays a randomized run (1 to 5 copies,
// ringers, liars, a promoted task, tasks minted mid-run, enough results to
// cross several chunks) and after every Submit compares every verdict
// issued so far and every partial task's buffer with the reference: a
// carved buffer or contributor list that spilled into its neighbour would
// change one of them after the fact.
func TestCarvedStorageNeverAliases(t *testing.T) {
	const tasks = 3000
	r := rng.New(23)
	specs := make([]plan.TaskSpec, tasks)
	for i := range specs {
		specs[i] = plan.TaskSpec{ID: i, Copies: 1 + r.Intn(5), Ringer: r.Intn(20) == 0}
	}
	c := NewCollector(truthOf)
	c.ExpectAll(specs)
	specs[7].Copies += 2 // a revision promotes task 7 before its first result
	c.Expect(7, specs[7].Copies)
	ref := &refCollector{}
	var queue []Result
	add := func(sp plan.TaskSpec) {
		ref.expect(sp.ID, sp.Copies)
		for k := 0; k < sp.Copies; k++ {
			val := truthOf(sp.ID)
			if r.Intn(10) == 0 {
				val += uint64(1 + r.Intn(2))
			}
			queue = append(queue, Result{
				Assignment:  sched.Assignment{TaskID: sp.ID, Copy: k, Ringer: sp.Ringer},
				Participant: r.Intn(40), Value: val,
			})
		}
	}
	for _, sp := range specs {
		add(sp)
	}
	r.Shuffle(len(queue), func(i, j int) { queue[i], queue[j] = queue[j], queue[i] })
	if len(queue) < 2*resultChunkLen {
		t.Fatalf("%d results do not cross a chunk boundary twice", len(queue))
	}

	minted := tasks
	for n := 0; n < len(queue); n++ {
		if n%1000 == 999 { // a revision mints a ringer; its copies join the back
			sp := plan.TaskSpec{ID: minted, Copies: 2, Ringer: true}
			minted++
			c.Expect(sp.ID, sp.Copies)
			add(sp)
		}
		if _, _, err := c.Submit(queue[n]); err != nil {
			t.Fatal(err)
		}
		ref.submit(queue[n])

		got := c.Verdicts()
		if len(got) != len(ref.verdicts) {
			t.Fatalf("after %d results: %d verdicts, reference has %d", n+1, len(got), len(ref.verdicts))
		}
		for i := range got {
			if !sameVerdict(&got[i], &ref.verdicts[i]) {
				t.Fatalf("after %d results verdict %d is %+v, reference %+v", n+1, i, got[i], ref.verdicts[i])
			}
		}
		for id, buffered := range ref.results {
			if !slices.Equal(c.tasks[id].results, buffered) {
				t.Fatalf("after %d results task %d buffers %+v, reference %+v", n+1, id, c.tasks[id].results, buffered)
			}
		}
		if n%64 == 0 || n == len(queue)-1 { // the same buffers through the API, which copies them all
			if !slices.Equal(c.PendingResults(), slices.Concat(ref.results...)) {
				t.Fatalf("after %d results PendingResults differs from the reference's, or its order does", n+1)
			}
		}
	}
	for id := 0; id < minted; id++ {
		v, ok := c.VerdictFor(id)
		if !ok || v.TaskID != id || v.Copies != ref.expected[id] {
			t.Fatalf("VerdictFor(%d) = %+v, %v; want %d copies", id, v, ok, ref.expected[id])
		}
	}
	if _, ok := c.VerdictFor(minted); ok {
		t.Error("VerdictFor answers for a task that was never registered")
	}
	if cap(c.Verdicts()) <= tasks {
		t.Errorf("verdict list holds %d with capacity %d: minted tasks never pushed it past the registered %d",
			len(c.Verdicts()), cap(c.Verdicts()), tasks)
	}
}

// TestRestoreVerdictGrowsOnce: restored verdicts go through the same
// nextVerdict as adjudicated ones, so the first call allocates the list for
// every registered task and no later call moves it.
func TestRestoreVerdictGrowsOnce(t *testing.T) {
	specs, _ := balancedRun(t, 5000, 3)
	c := NewCollector(truthOf)
	c.ExpectAll(specs)
	for i, sp := range specs {
		if err := c.RestoreVerdict(Verdict{TaskID: sp.ID, Ringer: sp.Ringer, Copies: sp.Copies, Accepted: true}); err != nil {
			t.Fatal(err)
		}
		if got := cap(c.Verdicts()); got != len(specs) {
			t.Fatalf("after %d restored verdicts the list has capacity %d, want %d throughout", i+1, got, len(specs))
		}
	}
	if st := c.Stats(); st.Tasks != len(specs) || st.Accepted != len(specs) {
		t.Errorf("tallies after restore: %+v", st)
	}
	if err := c.RestoreVerdict(Verdict{TaskID: 0, Copies: 1}); err == nil {
		t.Error("a second verdict for task 0 was accepted")
	}
}
