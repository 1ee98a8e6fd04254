package verify

import (
	"fmt"
	"reflect"
	"runtime"
	"slices"
	"sort"
	"strings"
	"testing"
	"unsafe"

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
	c.ExpectAll(plan.Compress(specs))
	for i := range results {
		if _, _, err := c.Submit(results[i]); err != nil {
			t.Fatal(err)
		}
	}
	return c
}

// verdicts builds every verdict c has issued, in adjudication order.
func verdicts(c *Collector) []Verdict {
	out := make([]Verdict, c.NumVerdicts())
	for i := range out {
		out[i] = c.VerdictAt(i)
	}
	return out
}

// TestSubmitDoesNotAllocatePerResult: a whole run's allocations are the
// task table, the verdict list and one chunk per 4096 results and per 4096
// listed participants, whatever order the results arrive in. The vote map
// of a disputed task is all that is left per task.
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
	// At most the vote map per disputed task (and the list chunks its
	// suspects fill sooner), nothing on the others.
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
	if !reflect.DeepEqual(verdicts(plain), verdicts(reserved)) {
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

// TestCompactLayout: a task slot and a stored result are 16 bytes each, so
// four slots share a cache line and a run entry keeps a Result's value,
// participant and copy in a quarter of a line; a stored verdict is 24
// bytes, a quarter of the 96 B public Verdict it is built into.
func TestCompactLayout(t *testing.T) {
	if got := unsafe.Sizeof(taskState{}); got != 16 {
		t.Errorf("taskState is %d bytes, want 16", got)
	}
	if got := unsafe.Sizeof(entry{}); got != 16 {
		t.Errorf("a stored result is %d bytes, want 16", got)
	}
	if got := unsafe.Sizeof(stored{}); got != 24 {
		t.Errorf("a stored verdict is %d bytes, want 24", got)
	}
	if got := unsafe.Sizeof(Verdict{}); got != 96 {
		t.Errorf("Verdict is %d bytes, want the 96 the docs quote", got)
	}
}

// TestCarvedBufferCannotReachItsNeighbour: the one way a run would be
// written past its cut is an Expect that raises a task after its first
// result (outside the contract). The run must move, not run on into the
// run cut after it.
func TestCarvedBufferCannotReachItsNeighbour(t *testing.T) {
	c := NewCollector(nil)
	c.ExpectAll(plan.Compress([]plan.TaskSpec{{ID: 0, Copies: 2}, {ID: 1, Copies: 2}}))
	c.Submit(res(0, 0, 10, 5, false)) // cuts task 0's two entries
	c.Submit(res(1, 0, 20, 6, false)) // and task 1's right behind them
	if c.tasks[1].at != c.tasks[0].at+2 {
		t.Fatalf("task 1's run is at %#x, want right behind task 0's at %#x", c.tasks[1].at, c.tasks[0].at)
	}
	was := c.tasks[0].at
	c.Expect(0, 3)
	if c.tasks[0].at == was {
		t.Fatal("raising task 0 after its first result left its run where the raise overflows it")
	}
	if got := c.appendStored(nil, 0); !slices.Equal(got, []Result{res(0, 0, 10, 5, false)}) {
		t.Fatalf("task 0's moved run holds %+v", got)
	}
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

// sameVerdict compares a built verdict a with the reference's b. a's
// lists must be capped at their length, and its suspect list nil exactly
// when b's is.
func sameVerdict(a, b *Verdict) bool {
	return a.TaskID == b.TaskID && a.Ringer == b.Ringer && a.Copies == b.Copies &&
		a.Accepted == b.Accepted && a.Value == b.Value && a.MismatchDetected == b.MismatchDetected &&
		slices.Equal(a.Suspects, b.Suspects) && slices.Equal(a.Contributors, b.Contributors) &&
		(a.Suspects == nil) == (b.Suspects == nil) &&
		cap(a.Suspects) == len(a.Suspects) && cap(a.Contributors) == len(a.Contributors)
}

// TestCarvedStorageNeverAliases replays a randomized run (1 to 5 copies,
// ringers, liars, a promoted task, tasks minted mid-run, enough results to
// cross several chunks) and after every Submit compares every verdict
// issued so far (its contributor and suspect lists included) and every
// partial task's run with the reference: a run or list that spilled into
// its neighbour would change one of them after the fact.
func TestCarvedStorageNeverAliases(t *testing.T) {
	const tasks = 3000
	r := rng.New(23)
	specs := make([]plan.TaskSpec, tasks)
	for i := range specs {
		specs[i] = plan.TaskSpec{ID: i, Copies: 1 + r.Intn(5), Ringer: r.Intn(20) == 0}
	}
	c := NewCollector(truthOf)
	c.ExpectAll(plan.Compress(specs))
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
	if len(queue) < 2*chunkLen {
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

		if c.NumVerdicts() != len(ref.verdicts) {
			t.Fatalf("after %d results: %d verdicts, reference has %d", n+1, c.NumVerdicts(), len(ref.verdicts))
		}
		for i := range ref.verdicts {
			if got := c.VerdictAt(i); !sameVerdict(&got, &ref.verdicts[i]) {
				t.Fatalf("after %d results verdict %d is %+v, reference %+v", n+1, i, got, ref.verdicts[i])
			}
		}
		for id, buffered := range ref.results {
			if got := c.appendStored(nil, id); !slices.Equal(got, buffered) {
				t.Fatalf("after %d results task %d's run holds %+v, reference %+v", n+1, id, got, buffered)
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
	if cap(c.verdicts) <= tasks {
		t.Errorf("verdict list holds %d with capacity %d: minted tasks never pushed it past the registered %d",
			len(c.verdicts), cap(c.verdicts), tasks)
	}
}

// TestRestoreVerdictGrowsOnce: restored verdicts go through the same
// nextVerdict as adjudicated ones, so the first call allocates the list for
// every registered task and no later call moves it.
func TestRestoreVerdictGrowsOnce(t *testing.T) {
	specs, _ := balancedRun(t, 5000, 3)
	c := NewCollector(truthOf)
	c.ExpectAll(plan.Compress(specs))
	accepted := func(sp plan.TaskSpec) Verdict {
		v := Verdict{TaskID: sp.ID, Ringer: sp.Ringer, Copies: sp.Copies, Accepted: true}
		for k := 0; k < sp.Copies; k++ {
			v.Contributors = append(v.Contributors, k)
		}
		return v
	}
	for i, sp := range specs {
		if err := c.RestoreVerdict(accepted(sp)); err != nil {
			t.Fatal(err)
		}
		if got := cap(c.verdicts); got != len(specs) {
			t.Fatalf("after %d restored verdicts the list has capacity %d, want %d throughout", i+1, got, len(specs))
		}
	}
	if st := c.Stats(); st.Tasks != len(specs) || st.Accepted != len(specs) {
		t.Errorf("tallies after restore: %+v", st)
	}
	if err := c.RestoreVerdict(accepted(specs[0])); err == nil {
		t.Errorf("a second verdict for task %d was accepted", specs[0].ID)
	}
}

// TestRestoreVerdictCopiesLists: a restored verdict's lists are copied
// into the collector's, so the caller may reuse its slices (a decoded
// snapshot's) without changing anything stored.
func TestRestoreVerdictCopiesLists(t *testing.T) {
	c := NewCollector(truthOf)
	c.ExpectAll(plan.Compress([]plan.TaskSpec{{ID: 0, Copies: 3}, {ID: 1, Copies: 2}}))
	contributors, suspects := []int{4, 5, 6}, []int{6}
	v := Verdict{TaskID: 0, Copies: 3, MismatchDetected: true, Contributors: contributors, Suspects: suspects}
	if err := c.RestoreVerdict(v); err != nil {
		t.Fatal(err)
	}
	want := Verdict{TaskID: 0, Copies: 3, MismatchDetected: true, Contributors: []int{4, 5, 6}, Suspects: []int{6}}
	if got, ok := c.VerdictFor(0); !ok || !reflect.DeepEqual(got, want) {
		t.Fatalf("the stored verdict reads %+v (ok=%v), want %+v", got, ok, want)
	}
	contributors[0], contributors[2], suspects[0] = 40, 60, 60
	if got, _ := c.VerdictFor(0); !reflect.DeepEqual(got, want) {
		t.Errorf("after the caller reused its slices the stored verdict reads %+v, want %+v", got, want)
	}
	if !slices.Equal(c.Blacklist(), []int{6}) {
		t.Errorf("blacklist %v, want [6]", c.Blacklist())
	}
	// An accepted verdict restores with no suspect list at all.
	if err := c.RestoreVerdict(Verdict{TaskID: 1, Copies: 2, Accepted: true, Value: 9, Suspects: []int{}, Contributors: []int{1, 2}}); err != nil {
		t.Fatal(err)
	}
	if got, _ := c.VerdictFor(1); got.Suspects != nil || !slices.Equal(got.Contributors, []int{1, 2}) || got.Value != 9 {
		t.Errorf("the accepted verdict reads %+v", got)
	}
}

// TestCollectorBytesPerTask holds the verifier's memory to its budget. A
// collector that has adjudicated plan.Balanced(100 000, 0.5) keeps, per
// task, a 16 B slot and a 24 B stored verdict, and per assignment (1.39 a
// task) a 16 B stored result and an 8 B listed contributor: 73.4 B a task,
// plus at most 4 B of chunk slack (the chunks' unused tails and the last
// chunk of each kind). A 96 B stored Verdict would read about 145 B.
func TestCollectorBytesPerTask(t *testing.T) {
	specs, results := balancedRun(t, 100_000, 13)
	tasks := float64(len(specs))
	budget := 16 + 24 + float64(len(results))/tasks*(16+8) + 4
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	c := NewCollector(truthOf)
	c.ExpectAll(plan.Compress(specs))
	out := make([]Outcome, 0, 64)
	for i := 0; i < len(results); i += 64 {
		out = c.SubmitBatch(results[i:min(i+64, len(results))], out[:0])
		for j := range out {
			if out[j].Err != nil {
				t.Fatal(out[j].Err)
			}
		}
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(specs) // the plan and the results are in both readings
	runtime.KeepAlive(results)
	if st := c.Stats(); st.Accepted != len(specs) {
		t.Fatalf("accepted %d of %d tasks", st.Accepted, len(specs))
	}
	per := float64(int64(after.HeapAlloc)-int64(before.HeapAlloc)) / tasks
	t.Logf("%.1f B per task over %d tasks and %d results (budget %.1f)", per, len(specs), len(results), budget)
	if per > budget {
		t.Errorf("the collector holds %.1f B per task, budget %.1f", per, budget)
	}
}

// TestRestoreVerdictRejects: a restored verdict must name a registered,
// uncollected task, carry that task's copies, and list one contributor per
// copy; a short contributor list would silently under-credit.
func TestRestoreVerdictRejects(t *testing.T) {
	c := NewCollector(nil)
	c.ExpectAll(plan.Compress([]plan.TaskSpec{{ID: 0, Copies: 2}, {ID: 1, Copies: 2}, {ID: 2, Copies: 2}, {ID: 4, Copies: 1}}))
	c.Submit(res(1, 0, 10, 5, false)) // task 1 is partial
	c.Submit(res(4, 0, 10, 5, false)) // task 4 is adjudicated
	for _, row := range []struct {
		name string
		v    Verdict
		want string
	}{
		{"negative task", Verdict{TaskID: -1, Copies: 2, Contributors: []int{1, 2}}, "unregistered"},
		{"unregistered task", Verdict{TaskID: 3, Copies: 2, Contributors: []int{1, 2}}, "unregistered"},
		{"past the table", Verdict{TaskID: 9, Copies: 2, Contributors: []int{1, 2}}, "unregistered"},
		{"adjudicated task", Verdict{TaskID: 4, Copies: 1, Contributors: []int{1}}, "already-adjudicated"},
		{"partial task", Verdict{TaskID: 1, Copies: 2, Contributors: []int{1, 2}}, "partial results"},
		{"too few copies", Verdict{TaskID: 2, Copies: 1, Contributors: []int{1}}, "has 1 copies, the task expects 2"},
		{"too many copies", Verdict{TaskID: 2, Copies: 3, Contributors: []int{1, 2, 3}}, "has 3 copies, the task expects 2"},
		{"short contributor list", Verdict{TaskID: 2, Copies: 2, Contributors: []int{1}}, "lists 1 contributors for 2 copies"},
		{"long contributor list", Verdict{TaskID: 2, Copies: 2, Contributors: []int{1, 2, 3}}, "lists 3 contributors for 2 copies"},
	} {
		err := c.RestoreVerdict(row.v)
		if err == nil || !strings.Contains(err.Error(), row.want) {
			t.Errorf("%s: err = %v, want one containing %q", row.name, err, row.want)
		}
	}
	if st := c.Stats(); st.Tasks != 1 {
		t.Errorf("rejected verdicts changed the tallies: %+v", st)
	}
	if err := c.RestoreVerdict(Verdict{TaskID: 2, Copies: 2, Accepted: true, Contributors: []int{1, 2}}); err != nil {
		t.Errorf("a well-formed verdict for task 2 after the rejections: %v", err)
	}
}

// submitStream builds the stream TestSubmitBatchMatchesSubmit feeds both
// ways. Every regular and ringer task's copies are shuffled together, some
// lying; a revision promotes task 7 before its first result; a 5000-copy
// task needs a chunk of its own; and strays are mixed in: unregistered,
// negative and 64-bit IDs, copies and participants, and replays of earlier
// results (late or duplicate copies).
type submitStream struct {
	r       *rng.Source
	specs   []plan.TaskSpec
	results []Result
}

func (s *submitStream) add(sp plan.TaskSpec) {
	for k := 0; k < sp.Copies; k++ {
		val := truthOf(sp.ID)
		if s.r.Intn(8) == 0 {
			val += uint64(1 + s.r.Intn(2))
		}
		s.results = append(s.results, Result{
			Assignment:  sched.Assignment{TaskID: sp.ID, Copy: k, Ringer: sp.Ringer},
			Participant: s.r.Intn(30), Value: val,
		})
	}
}

// stray returns a result Submit must refuse, or that may collide with an
// earlier one.
func (s *submitStream) stray(upTo int) Result {
	switch s.r.Intn(5) {
	case 0:
		return res(-1-s.r.Intn(3), 0, 1, 5, false)
	case 1:
		return res(len(s.specs)+1_000_000, 0, 1, 5, false)
	case 2:
		r := s.results[s.r.Intn(upTo)]
		r.Assignment.Copy += 1 << 40
		return r
	case 3:
		r := s.results[s.r.Intn(upTo)]
		r.Participant = -1 << 33
		return r
	default:
		return s.results[s.r.Intn(upTo)] // late, or a duplicate copy
	}
}

// TestSubmitBatchMatchesSubmit feeds one randomized stream to a collector
// through SubmitBatch, in batches of 1 to 70, and to another through Submit
// one result at a time: every result's error and verdict, the order the
// verdicts are handed out in, and the collectors' verdicts, tallies, blacklists, convictions and
// pending results must be identical. The batches carry duplicate copies
// and late results of tasks the same batch adjudicated, and the run mints
// tasks past the chunks Reserve presized.
func TestSubmitBatchMatchesSubmit(t *testing.T) {
	s := &submitStream{r: rng.New(31)}
	for id := 0; id < 2500; id++ {
		sp := plan.TaskSpec{ID: id, Copies: 1 + s.r.Intn(5), Ringer: s.r.Intn(15) == 0}
		if id == 1234 {
			sp.Copies = chunkLen + 904
		}
		s.specs = append(s.specs, sp)
	}
	batched, single := NewCollector(truthOf), NewCollector(truthOf)
	var batchedSeen, singleSeen []int
	for _, c := range []*Collector{batched, single} {
		c.ExpectAll(plan.Compress(s.specs))
		c.Expect(7, s.specs[7].Copies+2) // promoted before its first result
	}
	s.specs[7].Copies += 2
	for _, sp := range s.specs {
		s.add(sp)
	}
	s.r.Shuffle(len(s.results), func(i, j int) { s.results[i], s.results[j] = s.results[j], s.results[i] })
	for _, c := range []*Collector{batched, single} {
		c.Reserve(len(s.results))
	}

	errs := map[string]int{}
	var out []Outcome
	minted := len(s.specs)
	for n, batches := 0, 0; n < len(s.results); batches++ {
		if batches%20 == 19 { // a revision mints a ringer; its copies join the back
			sp := plan.TaskSpec{ID: minted, Copies: 1 + s.r.Intn(3), Ringer: true}
			minted++
			batched.Expect(sp.ID, sp.Copies)
			single.Expect(sp.ID, sp.Copies)
			s.add(sp)
		}
		size := min(1+s.r.Intn(70), len(s.results)-n)
		batch := slices.Clone(s.results[n : n+size])
		n += size
		for k := s.r.Intn(4); k > 0; k-- {
			if s.r.Intn(2) == 0 {
				batch = append(batch, batch[s.r.Intn(len(batch))]) // in this batch: late or duplicate
			} else {
				batch = append(batch, s.stray(n))
			}
		}
		s.r.Shuffle(len(batch)-size, func(i, j int) { batch[size+i], batch[size+j] = batch[size+j], batch[size+i] })

		out = batched.SubmitBatch(batch, out[:0])
		if len(out) != len(batch) {
			t.Fatalf("SubmitBatch reported %d outcomes for %d results", len(out), len(batch))
		}
		for i := range out {
			if out[i].Verdict != nil {
				batchedSeen = append(batchedSeen, out[i].Verdict.TaskID)
			}
		}
		for i := range batch {
			v, done, err := single.Submit(batch[i])
			if done {
				singleSeen = append(singleSeen, v.TaskID)
			}
			if fmt.Sprint(err) != fmt.Sprint(out[i].Err) {
				t.Fatalf("result %+v: SubmitBatch err %v, Submit err %v", batch[i], out[i].Err, err)
			}
			if err != nil {
				errs[strings.SplitN(err.Error(), " ", 3)[1]]++
			}
			if done != (out[i].Verdict != nil) || done && !reflect.DeepEqual(*out[i].Verdict, v) {
				t.Fatalf("result %+v: SubmitBatch verdict %+v, Submit %+v (done=%v)", batch[i], out[i].Verdict, v, done)
			}
		}
		if batches%16 == 0 && !slices.Equal(batched.PendingResults(), single.PendingResults()) {
			t.Fatalf("after batch %d the pending results differ", batches)
		}
	}
	for _, kind := range []string{"result", "task", "duplicate", "copy", "participant"} {
		if errs[kind] == 0 {
			t.Errorf("the stream never drew a %q error: %v", kind, errs)
		}
	}
	if batched.PendingTasks() != 0 || batched.Stats().Tasks != minted {
		t.Errorf("after the stream: %d pending, %+v over %d tasks", batched.PendingTasks(), batched.Stats(), minted)
	}
	if !reflect.DeepEqual(verdicts(batched), verdicts(single)) || !slices.Equal(batchedSeen, singleSeen) {
		t.Error("the verdict lists or the order the verdicts were handed out in differ")
	}
	if batched.Stats() != single.Stats() || batched.Stats().RingersCaught == 0 {
		t.Errorf("stats: %+v vs %+v", batched.Stats(), single.Stats())
	}
	if !slices.Equal(batched.Blacklist(), single.Blacklist()) || !slices.Equal(batched.ConvictedList(), single.ConvictedList()) {
		t.Error("the blacklists or the convicted lists differ")
	}
	if !slices.Equal(batched.PendingResults(), single.PendingResults()) {
		t.Error("the pending results differ")
	}
}

// TestSubmitBatchAllocFree: once the verdict list and the chunks exist, a
// 64-result batch of a clean run allocates nothing.
func TestSubmitBatchAllocFree(t *testing.T) {
	specs, results := balancedRun(t, 20_000, 7)
	c := NewCollector(truthOf)
	c.ExpectAll(plan.Compress(specs))
	c.Reserve(len(results))
	out := make([]Outcome, 0, 64)
	next := 0
	batch := func() {
		out = c.SubmitBatch(results[next:next+64], out[:0])
		next += 64
		for i := range out {
			if out[i].Err != nil {
				t.Fatal(out[i].Err)
			}
		}
	}
	batch()
	if allocs := testing.AllocsPerRun(100, batch); allocs != 0 {
		t.Errorf("a warm 64-result SubmitBatch makes %.1f allocations, want 0", allocs)
	}
}

// BenchmarkSubmit adjudicates plan.Balanced(250 000, 0.5) in queue order,
// one result at a time (one) and 64 at a time (batch64), and reports the
// cost per result. Building the collector is not timed; its run chunks are
// allocated as the results arrive, as on a supervisor.
func BenchmarkSubmit(b *testing.B) {
	specs, results := balancedRun(b, 250_000, 12)
	for _, bm := range []struct {
		name   string
		submit func(c *Collector) error
	}{
		{"one", func(c *Collector) error {
			for i := range results {
				if _, _, err := c.Submit(results[i]); err != nil {
					return err
				}
			}
			return nil
		}},
		{"batch64", func(c *Collector) error {
			out := make([]Outcome, 0, 64)
			for i := 0; i < len(results); i += 64 {
				out = c.SubmitBatch(results[i:min(i+64, len(results))], out[:0])
				for j := range out {
					if out[j].Err != nil {
						return out[j].Err
					}
				}
			}
			return nil
		}},
	} {
		b.Run(bm.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				c := NewCollector(truthOf)
				c.ExpectAll(plan.Compress(specs))
				b.StartTimer()
				if err := bm.submit(c); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(results)), "ns/result")
		})
	}
}
