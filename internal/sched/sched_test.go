package sched

import (
	"math"
	"runtime"
	"runtime/debug"
	"slices"
	"testing"

	"redundancy/internal/dist"
	"redundancy/internal/plan"
	"redundancy/internal/rng"
)

func specs(copies ...int) []plan.TaskSpec {
	s := make([]plan.TaskSpec, len(copies))
	for i, c := range copies {
		s[i] = plan.TaskSpec{ID: i, Copies: c}
	}
	return s
}

// drain issues and completes everything, returning assignments in issue
// order.
func drain(t *testing.T, q *Queue) []Assignment {
	t.Helper()
	var out []Assignment
	for !q.Done() {
		a, ok := q.Next()
		if !ok {
			t.Fatal("queue stalled with work remaining")
		}
		out = append(out, a)
		q.Complete(a)
	}
	return out
}

func TestFreePolicyReleasesEverything(t *testing.T) {
	q, err := NewQueue(specs(1, 2, 3), Free, rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	if q.Total() != 6 {
		t.Fatalf("total = %d", q.Total())
	}
	got := drain(t, q)
	if len(got) != 6 {
		t.Fatalf("issued %d", len(got))
	}
	perTask := map[int]int{}
	for _, a := range got {
		perTask[a.TaskID]++
	}
	for id, want := range map[int]int{0: 1, 1: 2, 2: 3} {
		if perTask[id] != want {
			t.Errorf("task %d issued %d times, want %d", id, perTask[id], want)
		}
	}
	if q.Issued() != 6 || q.Outstanding() != 0 {
		t.Error("counters wrong after drain")
	}
}

func TestFreeShuffleIsSeedDeterministic(t *testing.T) {
	mk := func(seed uint64) []Assignment {
		q, err := NewQueue(specs(2, 2, 2, 2), Free, rng.New(seed))
		if err != nil {
			t.Fatal(err)
		}
		return drain(t, q)
	}
	a, b, c := mk(5), mk(5), mk(6)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same seed produced different order")
		}
	}
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds produced identical order (suspicious)")
	}
}

func TestOneOutstandingNeverOverlapsCopies(t *testing.T) {
	q, err := NewQueue(specs(3, 3, 3), OneOutstanding, rng.New(2))
	if err != nil {
		t.Fatal(err)
	}
	inFlight := map[int]bool{}
	var queue []Assignment
	issued := 0
	for !q.Done() {
		// Issue as much as the policy allows, checking the invariant.
		for {
			a, ok := q.Next()
			if !ok {
				break
			}
			if inFlight[a.TaskID] {
				t.Fatalf("two copies of task %d in flight", a.TaskID)
			}
			inFlight[a.TaskID] = true
			queue = append(queue, a)
			issued++
		}
		if len(queue) == 0 {
			t.Fatal("stalled")
		}
		done := queue[0]
		queue = queue[1:]
		inFlight[done.TaskID] = false
		q.Complete(done)
	}
	if issued != 9 {
		t.Errorf("issued %d, want 9", issued)
	}
}

func TestTwoPhaseBarrier(t *testing.T) {
	q, err := NewQueue(specs(2, 2, 2), TwoPhase, rng.New(3))
	if err != nil {
		t.Fatal(err)
	}
	// All three phase-1 assignments come out.
	var first []Assignment
	for {
		a, ok := q.Next()
		if !ok {
			break
		}
		first = append(first, a)
	}
	if len(first) != 3 {
		t.Fatalf("phase 1 released %d", len(first))
	}
	for _, a := range first {
		if a.Copy != 0 {
			t.Errorf("phase 1 released copy %d of task %d", a.Copy, a.TaskID)
		}
	}
	// Completing two of three does not open phase 2.
	q.Complete(first[0])
	q.Complete(first[1])
	if _, ok := q.Next(); ok {
		t.Fatal("phase 2 opened before phase 1 completed")
	}
	q.Complete(first[2])
	count := 0
	for {
		a, ok := q.Next()
		if !ok {
			break
		}
		if a.Copy != 1 {
			t.Errorf("phase 2 released copy %d", a.Copy)
		}
		q.Complete(a)
		count++
	}
	if count != 3 || !q.Done() {
		t.Errorf("phase 2 released %d, done=%v", count, q.Done())
	}
}

func TestTwoPhaseRejectsWrongMultiplicity(t *testing.T) {
	if _, err := NewQueue(specs(2, 3), TwoPhase, rng.New(1)); err == nil {
		t.Error("expected error for non-2 multiplicity")
	}
}

func TestUnknownPolicy(t *testing.T) {
	if _, err := NewQueue(specs(1), Policy(99), rng.New(1)); err == nil {
		t.Error("expected error for unknown policy")
	}
}

func TestCompleteWithoutIssuePanics(t *testing.T) {
	q, err := NewQueue(specs(1), Free, rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	q.Complete(Assignment{})
}

func TestRingerFlagPropagates(t *testing.T) {
	s := []plan.TaskSpec{{ID: 0, Copies: 2, Ringer: true}, {ID: 1, Copies: 1}}
	q, err := NewQueue(s, Free, rng.New(4))
	if err != nil {
		t.Fatal(err)
	}
	ringers := 0
	for _, a := range drain(t, q) {
		if a.Ringer {
			if a.TaskID != 0 {
				t.Error("wrong task flagged as ringer")
			}
			ringers++
		}
	}
	if ringers != 2 {
		t.Errorf("ringer assignments = %d, want 2", ringers)
	}
}

func TestPolicyString(t *testing.T) {
	if Free.String() != "free" || OneOutstanding.String() != "one-outstanding" ||
		TwoPhase.String() != "two-phase" || Policy(7).String() == "" {
		t.Error("Policy.String misbehaves")
	}
}

func TestPlanIntegrationRoundTrip(t *testing.T) {
	p, err := plan.Balanced(20_000, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	q, err := NewQueue(p.Tasks(), Free, rng.New(9))
	if err != nil {
		t.Fatal(err)
	}
	if q.Total() != p.TotalAssignments() {
		t.Fatalf("queue total %d, plan says %d", q.Total(), p.TotalAssignments())
	}
	got := drain(t, q)
	copies := map[int]map[int]bool{}
	for _, a := range got {
		if copies[a.TaskID] == nil {
			copies[a.TaskID] = map[int]bool{}
		}
		if copies[a.TaskID][a.Copy] {
			t.Fatalf("copy %d of task %d issued twice", a.Copy, a.TaskID)
		}
		copies[a.TaskID][a.Copy] = true
	}
	if len(copies) != p.N+p.Ringers {
		t.Errorf("saw %d distinct tasks, want %d", len(copies), p.N+p.Ringers)
	}
}

func TestAbandonRequeues(t *testing.T) {
	q, err := NewQueue(specs(1, 1), Free, rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	a, ok := q.Next()
	if !ok {
		t.Fatal("no work")
	}
	q.Abandon(a)
	// Abandon rolls the issue back entirely: the assignment will count
	// as issued again when re-dealt, keeping Done()'s books exact.
	if q.Outstanding() != 0 || q.Issued() != 0 {
		t.Errorf("after abandon: outstanding=%d issued=%d", q.Outstanding(), q.Issued())
	}
	// The abandoned assignment must come around again.
	seen := map[Assignment]int{}
	for !q.Done() {
		x, ok := q.Next()
		if !ok {
			t.Fatal("stalled")
		}
		seen[x]++
		q.Complete(x)
	}
	if seen[a] != 1 {
		t.Errorf("abandoned assignment reissued %d times", seen[a])
	}
	if len(seen) != 2 {
		t.Errorf("saw %d distinct assignments, want 2", len(seen))
	}
}

func TestAbandonInTwoPhaseKeepsBarrier(t *testing.T) {
	q, err := NewQueue(specs(2, 2), TwoPhase, rng.New(2))
	if err != nil {
		t.Fatal(err)
	}
	a1, _ := q.Next()
	a2, _ := q.Next()
	q.Complete(a1)
	q.Abandon(a2) // phase 1 not yet complete
	if x, ok := q.Next(); !ok || x.Copy != 0 {
		t.Fatalf("expected re-issued phase-1 copy, got %+v ok=%v", x, ok)
	} else {
		q.Complete(x)
	}
	// Now phase 2 opens.
	x, ok := q.Next()
	if !ok || x.Copy != 1 {
		t.Fatalf("phase 2 did not open correctly: %+v ok=%v", x, ok)
	}
	q.Complete(x)
	y, ok := q.Next()
	if !ok || y.Copy != 1 {
		t.Fatalf("second phase-2 copy missing: %+v", y)
	}
	q.Complete(y)
	if !q.Done() {
		t.Error("queue not done")
	}
}

func TestAbandonWithoutIssuePanics(t *testing.T) {
	q, err := NewQueue(specs(1), Free, rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	q.Abandon(Assignment{})
}

func TestMarkCompletedAcrossPolicies(t *testing.T) {
	for _, pol := range []Policy{Free, OneOutstanding, TwoPhase} {
		q, err := NewQueue(specs(2, 2), pol, rng.New(3))
		if err != nil {
			t.Fatal(err)
		}
		// Replay: task 0's copy 0 was completed in a previous run.
		if !q.MarkCompleted(Assignment{TaskID: 0, Copy: 0}) {
			t.Fatalf("%v: MarkCompleted failed", pol)
		}
		if q.MarkCompleted(Assignment{TaskID: 0, Copy: 0}) {
			t.Fatalf("%v: double MarkCompleted succeeded", pol)
		}
		if q.MarkCompleted(Assignment{TaskID: 9, Copy: 0}) {
			t.Fatalf("%v: unknown assignment marked", pol)
		}
		if err := q.Settle(); err != nil {
			t.Fatalf("%v: %v", pol, err)
		}
		if q.MarkCompleted(Assignment{TaskID: 0, Copy: 0}) {
			t.Fatalf("%v: settled assignment marked again", pol)
		}
		if q.Issued() != 1 || q.Outstanding() != 0 {
			t.Fatalf("%v: issued %d, outstanding %d after settling one copy", pol, q.Issued(), q.Outstanding())
		}
		// The remaining three assignments must still drain normally, with
		// no duplicate of the replayed one.
		seen := map[Assignment]bool{{TaskID: 0, Copy: 0}: true}
		for !q.Done() {
			a, ok := q.Next()
			if !ok {
				t.Fatalf("%v: stalled with %d issued", pol, q.Issued())
			}
			if seen[a] {
				t.Fatalf("%v: assignment %+v issued twice", pol, a)
			}
			seen[a] = true
			q.Complete(a)
		}
		if len(seen) != 4 {
			t.Fatalf("%v: saw %d assignments, want 4", pol, len(seen))
		}
	}
}

func TestMarkCompletedReleasesPendingCopies(t *testing.T) {
	// Under OneOutstanding, settling copy 0 must release copy 1.
	q, err := NewQueue(specs(2), OneOutstanding, rng.New(4))
	if err != nil {
		t.Fatal(err)
	}
	if !q.MarkCompleted(Assignment{TaskID: 0, Copy: 0}) {
		t.Fatal("replay failed")
	}
	if err := q.Settle(); err != nil {
		t.Fatal(err)
	}
	a, ok := q.Next()
	if !ok || a.Copy != 1 {
		t.Fatalf("copy 1 not released: %+v ok=%v", a, ok)
	}
	q.Complete(a)
	if !q.Done() {
		t.Error("queue not done")
	}
}

// TestSettleReleasesAlongTheChain: a marked held copy settles in turn, so
// settling copies 0 and 1 of a 3-copy task releases copy 2 — once — while
// the other task's ready copy keeps its place in front of it.
func TestSettleReleasesAlongTheChain(t *testing.T) {
	q, err := NewQueue(specs(3, 1), OneOutstanding, rng.New(4))
	if err != nil {
		t.Fatal(err)
	}
	for c := 0; c < 2; c++ {
		if !q.MarkCompleted(Assignment{TaskID: 0, Copy: c}) {
			t.Fatalf("copy %d not marked", c)
		}
	}
	if err := q.Settle(); err != nil {
		t.Fatal(err)
	}
	if want := []Slot{newSlot(1, 0, false), newSlot(0, 2, false)}; !slices.Equal(q.ready, want) {
		t.Fatalf("ready pool %+v, want %+v", q.ready, want)
	}
	if len(q.heldBack(0)) != 0 || q.Issued() != 2 {
		t.Fatalf("held back %+v, issued %d", q.heldBack(0), q.Issued())
	}
	if got := drain(t, q); len(got) != 2 {
		t.Fatalf("drained %+v, want the two unsettled copies", got)
	}
}

// TestSettleRefusesUnreachableMark: a held copy whose predecessor is
// neither marked nor issued cannot be completed, and Settle says so
// rather than dropping the mark.
func TestSettleRefusesUnreachableMark(t *testing.T) {
	q, err := NewQueue(specs(3), OneOutstanding, rng.New(4))
	if err != nil {
		t.Fatal(err)
	}
	if !q.MarkCompleted(Assignment{TaskID: 0, Copy: 2}) {
		t.Fatal("held copy not marked")
	}
	if err := q.Settle(); err == nil {
		t.Fatal("Settle completed a copy held behind an unsettled one")
	}
}

func TestEverIssuedTracksIssuanceNotAbandon(t *testing.T) {
	q, err := NewQueue(specs(2, 2), Free, rng.New(3))
	if err != nil {
		t.Fatal(err)
	}
	if q.EverIssued(0) || q.EverIssued(1) {
		t.Fatal("fresh queue reports tasks issued")
	}
	a, ok := q.Next()
	if !ok {
		t.Fatal("no assignment")
	}
	if !q.EverIssued(a.TaskID) {
		t.Fatalf("task %d issued but not tracked", a.TaskID)
	}
	// Abandon must NOT clear the mark: the copy touched a participant.
	q.Abandon(a)
	if !q.EverIssued(a.TaskID) {
		t.Fatalf("abandon cleared ever-issued for task %d", a.TaskID)
	}
}

func TestMarkCompletedSetsEverIssued(t *testing.T) {
	q, err := NewQueue(specs(1, 1), Free, rng.New(3))
	if err != nil {
		t.Fatal(err)
	}
	if !q.MarkCompleted(Assignment{TaskID: 1, Copy: 0}) {
		t.Fatal("MarkCompleted failed")
	}
	if q.EverIssued(1) {
		t.Fatal("a marked copy counted as issued before Settle")
	}
	if err := q.Settle(); err != nil {
		t.Fatal(err)
	}
	if !q.EverIssued(1) {
		t.Fatal("journal-replayed completion not tracked as issuance")
	}
	if q.EverIssued(0) {
		t.Fatal("untouched task reported issued")
	}
}

func TestPromoteAddsCopiesToNeverIssuedTask(t *testing.T) {
	q, err := NewQueue(specs(2, 3), Free, rng.New(7))
	if err != nil {
		t.Fatal(err)
	}
	if err := q.Promote(0, 2, 4); err != nil {
		t.Fatalf("Promote: %v", err)
	}
	if q.Total() != 7 {
		t.Fatalf("total = %d after promotion, want 7", q.Total())
	}
	got := drain(t, q)
	perTask := map[int]map[int]bool{}
	for _, a := range got {
		if perTask[a.TaskID] == nil {
			perTask[a.TaskID] = map[int]bool{}
		}
		if perTask[a.TaskID][a.Copy] {
			t.Fatalf("duplicate assignment %+v", a)
		}
		perTask[a.TaskID][a.Copy] = true
	}
	if len(perTask[0]) != 4 || len(perTask[1]) != 3 {
		t.Fatalf("copies per task: %d and %d, want 4 and 3", len(perTask[0]), len(perTask[1]))
	}
	for c := 0; c < 4; c++ {
		if !perTask[0][c] {
			t.Fatalf("promoted task missing copy %d", c)
		}
	}
}

func TestPromoteRefusals(t *testing.T) {
	q, err := NewQueue(specs(2, 2), Free, rng.New(7))
	if err != nil {
		t.Fatal(err)
	}
	if err := q.Promote(0, 2, 2); err == nil {
		t.Fatal("non-raise accepted")
	}
	if err := q.Promote(0, 3, 4); err == nil {
		t.Fatal("wrong from-count accepted")
	}
	a, _ := q.Next()
	if err := q.Promote(a.TaskID, 2, 3); err == nil {
		t.Fatal("promoted a task with an issued copy")
	}

	oo, err := NewQueue(specs(2, 2), OneOutstanding, rng.New(7))
	if err != nil {
		t.Fatal(err)
	}
	if err := oo.Promote(0, 2, 3); err == nil {
		t.Fatal("Promote accepted under one-outstanding policy")
	}
}

func TestAddTaskAppendsRinger(t *testing.T) {
	q, err := NewQueue(specs(1), Free, rng.New(7))
	if err != nil {
		t.Fatal(err)
	}
	if err := q.AddTask(plan.TaskSpec{ID: 1, Copies: 3, Ringer: true}); err != nil {
		t.Fatalf("AddTask: %v", err)
	}
	if q.Total() != 4 {
		t.Fatalf("total = %d, want 4", q.Total())
	}
	ringers := 0
	for _, a := range drain(t, q) {
		if a.TaskID == 1 {
			if !a.Ringer {
				t.Fatalf("minted assignment lost ringer flag: %+v", a)
			}
			ringers++
		}
	}
	if ringers != 3 {
		t.Fatalf("ringer copies issued = %d, want 3", ringers)
	}
}

func TestAddTaskRefusals(t *testing.T) {
	q, err := NewQueue(specs(1), Free, rng.New(7))
	if err != nil {
		t.Fatal(err)
	}
	if err := q.AddTask(plan.TaskSpec{ID: 2, Copies: 0}); err == nil {
		t.Fatal("zero-copy task accepted")
	}
	a, _ := q.Next()
	if err := q.AddTask(plan.TaskSpec{ID: a.TaskID, Copies: 1}); err == nil {
		t.Fatal("reused an issued task ID")
	}
	oo, err := NewQueue(specs(2, 2), OneOutstanding, rng.New(7))
	if err != nil {
		t.Fatal(err)
	}
	if err := oo.AddTask(plan.TaskSpec{ID: 9, Copies: 1}); err == nil {
		t.Fatal("AddTask accepted under one-outstanding policy")
	}
}

func TestNextRingerSkipsRegularWork(t *testing.T) {
	s := []plan.TaskSpec{
		{ID: 0, Copies: 2},
		{ID: 1, Copies: 1, Ringer: true},
		{ID: 2, Copies: 1},
		{ID: 3, Copies: 1, Ringer: true},
	}
	q, err := NewQueue(s, Free, rng.New(7))
	if err != nil {
		t.Fatal(err)
	}
	a, ok := q.NextRinger()
	if !ok || !a.Ringer {
		t.Fatalf("NextRinger = %+v, %v", a, ok)
	}
	b, ok := q.NextRinger()
	if !ok || !b.Ringer || b.TaskID == a.TaskID {
		t.Fatalf("second NextRinger = %+v, %v (first was task %d)", b, ok, a.TaskID)
	}
	if q.Issued() != 2 || q.Outstanding() != 2 {
		t.Errorf("issued=%d outstanding=%d, want 2,2", q.Issued(), q.Outstanding())
	}
	// Ringers exhausted: only regular copies remain.
	if _, ok := q.NextRinger(); ok {
		t.Error("NextRinger handed out regular work")
	}
	q.Complete(a)
	q.Complete(b)
	// The regular copies are all still there and the queue drains clean.
	rest := drain(t, q)
	if len(rest) != 3 {
		t.Fatalf("remaining copies = %d, want 3", len(rest))
	}
	for _, r := range rest {
		if r.Ringer {
			t.Errorf("drained a ringer twice: %+v", r)
		}
	}
	if !q.Done() {
		t.Error("queue not done after full drain")
	}
}

func TestNextRingerNonFreePolicy(t *testing.T) {
	s := []plan.TaskSpec{{ID: 0, Copies: 1, Ringer: true}, {ID: 1, Copies: 1}}
	q, err := NewQueue(s, OneOutstanding, rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := q.NextRinger(); ok {
		t.Error("NextRinger served work under OneOutstanding")
	}
}

// TestNewQueueAllocatesOnce: every table is sized from a counting pass
// over the specs, so building a queue costs the same handful of
// allocations at 500 tasks and at 50 000, and draining it (Next or
// NextBatch into a reused dst, Complete, the held-back copies
// OneOutstanding releases, the TwoPhase turn) costs none: ready was made
// with room for everything the policy puts in it. The collector is off
// while it counts: a GC cycle's own runtime allocations land in the same
// malloc count, and whether one falls in the window depends on the heap,
// not on the queue.
func TestNewQueueAllocatesOnce(t *testing.T) {
	for _, tc := range []struct {
		policy Policy
		copies int
	}{{Free, 3}, {OneOutstanding, 3}, {TwoPhase, 2}} {
		// batch 0 drains through Next, 64 through NextBatch.
		for _, batch := range []int{0, 64} {
			build := func(n int) float64 {
				sp := make([]plan.TaskSpec, n)
				for i := range sp {
					sp[i] = plan.TaskSpec{ID: i, Copies: tc.copies}
				}
				r := rng.New(7)
				dst := make([]Assignment, 0, 64)
				runtime.GC()
				defer debug.SetGCPercent(debug.SetGCPercent(-1))
				return testing.AllocsPerRun(5, func() {
					q, err := NewQueue(sp, tc.policy, r)
					if err != nil {
						t.Fatal(err)
					}
					for !q.Done() {
						if batch == 0 {
							a, ok := q.Next()
							if !ok {
								t.Fatal("queue stalled with work remaining")
							}
							q.Complete(a)
							continue
						}
						dst = q.NextBatch(dst[:0], batch)
						if len(dst) == 0 {
							t.Fatal("queue stalled with work remaining")
						}
						for _, a := range dst {
							q.Complete(a)
						}
					}
				})
			}
			small, large := build(500), build(50_000)
			if small != large || large > 6 {
				t.Errorf("%v batch %d: %.0f allocations at 500 tasks, %.0f at 50 000 (want equal, at most 6)", tc.policy, batch, small, large)
			}
		}
	}
}

// TestAbandonCycleAllocFree: a 32-task, 64-copy queue that deals copies
// and takes them back through Abandon reuses the room dealing freed at the
// front of its ready pool, so a warm cycle allocates nothing, whether it
// deals every copy (through Next, or NextBatch into a reused dst) or half
// of them. Moving the queued copies down keeps their order: a model that
// deals from the front of a plain slice and appends abandoned copies at
// its back deals the same copies.
func TestAbandonCycleAllocFree(t *testing.T) {
	sp := make([]plan.TaskSpec, 32)
	for i := range sp {
		sp[i] = plan.TaskSpec{ID: i, Copies: 2}
	}
	for _, c := range []struct {
		name        string
		deal, batch int // batch 0 deals through Next
	}{{"Next", 64, 0}, {"NextBatch", 64, 64}, {"half", 32, 16}} {
		q, err := NewQueue(sp, Free, rng.New(9))
		if err != nil {
			t.Fatal(err)
		}
		model := make([]Assignment, 0, 64)
		for _, s := range q.ready {
			model = append(model, s.Assignment())
		}
		dst := make([]Assignment, 0, 64)
		cycle := func() {
			dst = dst[:0]
			for len(dst) < c.deal {
				if c.batch == 0 {
					a, _ := q.Next()
					dst = append(dst, a)
				} else {
					dst = q.NextBatch(dst, c.batch)
				}
			}
			for _, a := range dst {
				q.Abandon(a)
			}
		}
		cycle() // the warm-up
		if n := testing.AllocsPerRun(100, cycle); n != 0 {
			t.Errorf("%s: a deal-and-abandon cycle allocates %v times, want 0", c.name, n)
		}
		// The model catches up with the 102 cycles run so far, then
		// checks five more.
		for i := 0; i < 107; i++ {
			if i >= 102 {
				cycle()
				if !slices.Equal(dst, model[:c.deal]) {
					t.Fatalf("%s cycle %d: dealt %v, the model deals %v", c.name, i, dst, model[:c.deal])
				}
			}
			model = slices.Concat(model[c.deal:], model[:c.deal])
		}
	}
}

// closureShuffleDrain is the queue as it was built with 24-byte
// Assignments: the copies laid out in spec order, each pool permuted by
// rng.Shuffle through a swap closure (ready, then phase2 under TwoPhase),
// and drained in batches whose copies complete as they arrive, each
// completion releasing its task's next held copy to the back of ready.
func closureShuffleDrain(sp []plan.TaskSpec, pol Policy, seed uint64, batch int) []Assignment {
	var ready, phase2 []Assignment
	held := map[int][]Assignment{}
	for _, s := range sp {
		for c := 0; c < s.Copies; c++ {
			a := Assignment{TaskID: s.ID, Copy: c, Ringer: s.Ringer}
			switch {
			case pol == Free || c == 0:
				ready = append(ready, a)
			case pol == TwoPhase:
				phase2 = append(phase2, a)
			default:
				held[s.ID] = append(held[s.ID], a)
			}
		}
	}
	r := rng.New(seed)
	for _, pool := range [][]Assignment{ready, phase2} {
		r.Shuffle(len(pool), func(i, j int) { pool[i], pool[j] = pool[j], pool[i] })
	}
	var out []Assignment
	for len(ready) > 0 || len(phase2) > 0 {
		if len(ready) == 0 {
			ready, phase2 = phase2, nil
		}
		round := ready[:min(batch, len(ready))]
		ready = ready[len(round):]
		out = append(out, round...)
		for _, a := range round {
			if rest := held[a.TaskID]; len(rest) > 0 {
				ready = append(ready, rest[0])
				held[a.TaskID] = rest[1:]
			}
		}
	}
	return out
}

// TestQueueOrderMatchesClosureShuffle: the slot pools and the written-out
// Fisher–Yates deal, for every seed, policy and batch size, exactly the
// sequence the Assignment pools shuffled through rng.Shuffle dealt — so
// every golden and digest keyed on a seed still holds.
func TestQueueOrderMatchesClosureShuffle(t *testing.T) {
	balanced, err := plan.Balanced(2_000, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	simple := make([]plan.TaskSpec, 2_000)
	for i := range simple {
		simple[i] = plan.TaskSpec{ID: i, Copies: 2, Ringer: i%50 == 0}
	}
	for _, tc := range []struct {
		name  string
		specs []plan.TaskSpec
		pols  []Policy
	}{
		{"balanced", balanced.Tasks(), []Policy{Free, OneOutstanding}},
		{"simple-x2", simple, []Policy{Free, OneOutstanding, TwoPhase}},
	} {
		for _, pol := range tc.pols {
			for seed := uint64(1); seed <= 5; seed++ {
				for _, batch := range []int{1, 7, 64} {
					want := closureShuffleDrain(tc.specs, pol, seed, batch)
					q, err := NewQueue(tc.specs, pol, rng.New(seed))
					if err != nil {
						t.Fatal(err)
					}
					var got []Assignment
					for !q.Done() {
						n := len(got)
						got = q.NextBatch(got, batch)
						if len(got) == n {
							t.Fatalf("%s %v seed %d batch %d: stalled after %d copies", tc.name, pol, seed, batch, n)
						}
						for _, a := range got[n:] {
							q.Complete(a)
						}
					}
					if len(got) != len(want) {
						t.Fatalf("%s %v seed %d batch %d: dealt %d copies, want %d", tc.name, pol, seed, batch, len(got), len(want))
					}
					for i := range want {
						if got[i] != want[i] {
							t.Fatalf("%s %v seed %d batch %d: copy %d is %+v, want %+v", tc.name, pol, seed, batch, i, got[i], want[i])
						}
					}
				}
			}
		}
	}
}

// TestQueueRefusesUnpackable: a task ID outside [0, MaxInt32] or a copy
// index above MaxInt32 has no slot. Every entry point refuses it rather
// than truncating it onto a copy the queue does hold.
func TestQueueRefusesUnpackable(t *testing.T) {
	const big = math.MaxInt32 + 1
	for _, sp := range [][]plan.TaskSpec{
		{{ID: -1, Copies: 1}},
		{{ID: 0, Copies: 1}, {ID: 1 << 32, Copies: 1}},
		{{ID: 0, Copies: big + 1}},
	} {
		for _, pol := range []Policy{Free, OneOutstanding, TwoPhase} {
			if _, err := NewQueue(sp, pol, rng.New(1)); err == nil {
				t.Errorf("%v: NewQueue accepted %+v", pol, sp)
			}
		}
	}

	q, err := NewQueue(specs(2, 2), Free, rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	for _, spec := range []plan.TaskSpec{{ID: -1, Copies: 1}, {ID: big, Copies: 1}, {ID: 1 << 32, Copies: 1}, {ID: 5, Copies: big + 1}} {
		if err := q.AddTask(spec); err == nil {
			t.Errorf("AddTask accepted %+v", spec)
		}
	}
	for _, p := range []struct{ task, from, to int }{{-1, 0, 1}, {1 << 32, 0, 1}, {0, 2, big + 1}} {
		if err := q.Promote(p.task, p.from, p.to); err == nil {
			t.Errorf("Promote(%d, %d, %d) accepted", p.task, p.from, p.to)
		}
	}
	if q.Total() != 4 {
		t.Fatalf("refusals changed the total to %d", q.Total())
	}
	for _, a := range []Assignment{{TaskID: 1 << 32}, {TaskID: -1}, {TaskID: 0, Copy: -1}, {TaskID: 0, Copy: 1 << 31}, {TaskID: 1, Copy: 1 << 32}} {
		if q.MarkCompleted(a) {
			t.Errorf("MarkCompleted(%+v) marked a copy", a)
		}
	}
	// Nothing above aliased task 0's or task 1's copies: each marks once.
	for _, a := range []Assignment{{TaskID: 0}, {TaskID: 1, Copy: 1}} {
		if !q.MarkCompleted(a) {
			t.Errorf("MarkCompleted(%+v) refused after the unpackable marks", a)
		}
	}
	if err := q.Settle(); err != nil {
		t.Fatal(err)
	}

	// The edges fit: ID and copy index MaxInt32, with the ringer bit beside.
	edge := Assignment{TaskID: math.MaxInt32, Copy: math.MaxInt32, Ringer: true}
	if s, ok := Pack(edge); !ok || s.Assignment() != edge {
		t.Errorf("Pack(%+v) = %+v, %v", edge, s, ok)
	}
	if err := q.AddTask(plan.TaskSpec{ID: math.MaxInt32, Copies: 1}); err != nil {
		t.Errorf("AddTask at ID MaxInt32: %v", err)
	}

	// Two plan copies are ahead of the minted task, so Next deals one of
	// them and the issued table is not grown to MaxInt32.
	a, ok := q.Next()
	if !ok || a.TaskID > 1 {
		t.Fatalf("Next = %+v, %v; want a plan copy", a, ok)
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("Abandon of an unpackable assignment did not panic")
			}
		}()
		q.Abandon(Assignment{TaskID: 1 << 32, Copy: a.Copy})
	}()
	if q.Outstanding() != 1 || q.Issued() != 3 {
		t.Errorf("the refused Abandon moved the books: outstanding %d, issued %d", q.Outstanding(), q.Issued())
	}
}

// TestQueueBytesPerCopy holds the queue's memory to its budget. A Free
// queue over plan.Balanced(100 000, 0.5) keeps an 8 B slot per assignment
// (1.39 a task) and a 1 B everIssued entry per task, and may grow the heap
// by that plus 5 %. With a 24 B Assignment per ready copy it grew the heap
// by about 25 B per assignment.
func TestQueueBytesPerCopy(t *testing.T) {
	p, err := plan.Balanced(100_000, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	sp := p.Tasks()
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	q, err := NewQueue(sp, Free, rng.New(13))
	if err != nil {
		t.Fatal(err)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(sp) // the specs are in both readings
	assignments := float64(q.Total())
	budget := (8*assignments + float64(len(sp))) * 1.05 / assignments
	per := float64(int64(after.HeapAlloc)-int64(before.HeapAlloc)) / assignments
	runtime.KeepAlive(q)
	t.Logf("%.2f B per assignment over %d tasks and %.0f assignments (budget %.2f)", per, len(sp), assignments, budget)
	if per > budget {
		t.Errorf("the queue holds %.2f B per assignment, budget %.2f", per, budget)
	}
}

// TestNextBatchMatchesNext: under every policy, batches pop exactly the
// sequence single Next calls do, the two-phase turn included, and leave
// the same accounting behind.
func TestNextBatchMatchesNext(t *testing.T) {
	for _, pol := range []Policy{Free, OneOutstanding, TwoPhase} {
		for _, batch := range []int{1, 3, 64} {
			mk := func() *Queue {
				q, err := NewQueue(specs(2, 2, 2, 2, 2, 2, 2), pol, rng.New(11))
				if err != nil {
					t.Fatal(err)
				}
				return q
			}
			single, batched := mk(), mk()
			var want, got []Assignment
			for !single.Done() {
				var round []Assignment
				for len(round) < batch {
					a, ok := single.Next()
					if !ok {
						break
					}
					round = append(round, a)
				}
				if len(round) == 0 {
					t.Fatalf("%v batch %d: Next stalled", pol, batch)
				}
				want = append(want, round...)
				for _, a := range round {
					single.Complete(a)
				}

				n := len(got)
				got = batched.NextBatch(got, batch)
				if !slices.Equal(got[n:], round) {
					t.Fatalf("%v batch %d: NextBatch popped %+v, Next %+v", pol, batch, got[n:], round)
				}
				for _, a := range got[n:] {
					batched.Complete(a)
				}
				if single.Issued() != batched.Issued() || single.Outstanding() != batched.Outstanding() ||
					single.Available() != batched.Available() {
					t.Fatalf("%v batch %d: accounting diverges after %d pops", pol, batch, len(got))
				}
			}
			if !batched.Done() || len(got) != len(want) {
				t.Fatalf("%v batch %d: batched queue popped %d of %d", pol, batch, len(got), len(want))
			}
		}
	}
}

// TestRunQueueDealsAsSpecQueue: a queue built from runs deals, seed for
// seed and policy for policy, the sequence a queue built from the same
// tasks as specs deals, and the closure-shuffle reference with it: for a
// whole plan, for a subset with gaps (as a cluster shard holds), and for a
// two-copy plan under TwoPhase.
func TestRunQueueDealsAsSpecQueue(t *testing.T) {
	balanced, err := plan.Balanced(2_000, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	var subset []plan.TaskSpec
	for _, sp := range balanced.Tasks() {
		if sp.ID%3 != 0 && sp.ID%7 != 1 {
			subset = append(subset, sp)
		}
	}
	simple, err := plan.FromDistribution(dist.Simple(1_500), 0.5)
	if err != nil {
		t.Fatal(err)
	}
	deal := func(q *Queue, batch int) []Assignment {
		var got []Assignment
		for !q.Done() {
			n := len(got)
			got = q.NextBatch(got, batch)
			if len(got) == n {
				t.Fatalf("stalled after %d copies", n)
			}
			for _, a := range got[n:] {
				q.Complete(a)
			}
		}
		return got
	}
	for _, tc := range []struct {
		name string
		runs []plan.Run
		pols []Policy
	}{
		{"balanced", balanced.Runs(), []Policy{Free, OneOutstanding}},
		{"subset", plan.Compress(subset), []Policy{Free, OneOutstanding}},
		{"simple-x2", simple.Runs(), []Policy{Free, OneOutstanding, TwoPhase}},
	} {
		specs := plan.Expand(tc.runs)
		for _, pol := range tc.pols {
			for seed := uint64(1); seed <= 4; seed++ {
				fromRuns, err := NewRunQueue(tc.runs, pol, rng.New(seed))
				if err != nil {
					t.Fatal(err)
				}
				fromSpecs, err := NewQueue(specs, pol, rng.New(seed))
				if err != nil {
					t.Fatal(err)
				}
				got, want := deal(fromRuns, 16), deal(fromSpecs, 16)
				if !slices.Equal(got, want) {
					t.Fatalf("%s %v seed %d: the run queue deals %d copies, the spec queue %d, in another order", tc.name, pol, seed, len(got), len(want))
				}
				if ref := closureShuffleDrain(specs, pol, seed, 16); !slices.Equal(got, ref) {
					t.Fatalf("%s %v seed %d: the run queue departs from the closure-shuffle reference", tc.name, pol, seed)
				}
			}
		}
	}
}
