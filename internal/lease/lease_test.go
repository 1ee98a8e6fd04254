package lease

import (
	"cmp"
	"fmt"
	"slices"
	"testing"
	"time"

	"redundancy/internal/plan"
	"redundancy/internal/rng"
	"redundancy/internal/sched"
)

// newTable returns a table over a queue of tasks two-copy tasks, and the
// list every release's End is appended to.
func newTable(t *testing.T, tasks int) (*Table, *[]End) {
	t.Helper()
	specs := make([]plan.TaskSpec, tasks)
	for i := range specs {
		specs[i] = plan.TaskSpec{ID: i, Copies: 2}
	}
	q, err := sched.NewQueue(specs, sched.Free, rng.New(3))
	if err != nil {
		t.Fatal(err)
	}
	ends := new([]End)
	return New(q, tasks, func(e End) { *ends = append(*ends, e) }), ends
}

// TestLeaseTableMatchesReference drives every writer of a bare table
// (issue, re-issue, claim by primary and by clone, refused claims, release
// for every reason and of a free record, the end-holds pass of a set of
// participants, expiry, straggler flagging and clone serving) in a seeded
// random order over four participants, against a plain map from (task,
// copy) to its holders. Whenever the queue runs dry ringers are added past
// the end of byTask, so the index grows at issue and the chains of grown
// task IDs are walked too. Every release must be told to the observer as
// the reference predicts it. After every step the table must agree with
// the reference: every copy out is found with the same holders and nothing
// else is out, each participant's primary count matches, the flag count
// is the number of flagged copies, the pool accounts for every record, and
// every task chain is acyclic.
func TestLeaseTableMatchesReference(t *testing.T) {
	const tasks, steps, q = 60, 4000, time.Millisecond
	tab, ends := newTable(t, tasks)
	// A reference hold; a clone with participant 0 is a flag.
	type hold struct {
		pid int
		at  time.Time
	}
	type copyOut struct {
		a       sched.Assignment
		primary hold
		clone   *hold
	}
	ref := map[key]*copyOut{}
	reasons := []string{"disconnect", "deadline", "quarantine", "speculative"}
	r := rng.New(11)
	now := time.Unix(1_000_000, 0)

	keys := func() []key {
		ks := make([]key, 0, len(ref))
		for k := range ref {
			ks = append(ks, k)
		}
		slices.SortFunc(ks, byKey)
		return ks
	}
	liveClone := func(c *copyOut) bool { return c.clone != nil && c.clone.pid != 0 }
	// release mirrors release on the reference, returning the End it must
	// report, if any.
	release := func(k key, pid int, reason string, at time.Time) []End {
		c := ref[k]
		e := End{Assignment: c.a, Participant: pid, Reason: reason, Now: at}
		switch {
		case liveClone(c) && c.clone.pid == pid:
			c.clone, e.Outcome = nil, CloneDropped
		case c.primary.pid != pid:
			return nil
		case liveClone(c):
			c.primary, c.clone = *c.clone, nil
			e.Outcome, e.Heir = Passed, c.primary.pid
		default:
			delete(ref, k)
			e.Outcome = Requeued
		}
		return []End{e}
	}
	// endHolds mirrors the end-holds pass: per copy, the clone first.
	endHolds := func(ends func(h hold) bool, cloneReason, primaryReason string, at time.Time) (want []End) {
		for _, k := range keys() {
			c := ref[k]
			if liveClone(c) && ends(*c.clone) {
				want = append(want, release(k, c.clone.pid, cloneReason, at)...)
			}
			if c, out := ref[k]; out && ends(c.primary) {
				want = append(want, release(k, c.primary.pid, primaryReason, at)...)
			}
		}
		return want
	}

	check := func(step int, op string) {
		t.Helper()
		fail := func(format string, args ...any) {
			t.Helper()
			t.Fatalf("step %d (%s): %s", step, op, fmt.Sprintf(format, args...))
		}
		if tab.live != len(ref) || tab.live+len(tab.free) != len(tab.recs) {
			fail("%d records live, %d free, pool of %d; the reference has %d copies out", tab.live, len(tab.free), len(tab.recs), len(ref))
		}
		if n := tab.queue.Outstanding(); n != len(ref) {
			fail("queue has %d outstanding, the reference %d", n, len(ref))
		}
		primaries, flagged := map[int]int{}, 0
		for k, want := range ref {
			primaries[want.primary.pid]++
			i := tab.find(k.task, k.copy)
			if i < 0 {
				fail("copy %v is out but not found", k)
			}
			rec := &tab.recs[i]
			if rec.a != want.a || rec.primary.participant != want.primary.pid || !rec.primary.issuedAt.Equal(want.primary.at) {
				fail("copy %v: primary %+v of %+v, want participant %d since %v", k, rec.primary, rec.a, want.primary.pid, want.primary.at)
			}
			switch {
			case want.clone == nil:
				if rec.clone != nil {
					fail("copy %v has a clone %+v, want none", k, *rec.clone)
				}
			case want.clone.pid == 0:
				flagged++
				if rec.clone == nil || rec.clone.live() {
					fail("copy %v: clone %v, want a flag", k, rec.clone)
				}
			default:
				if !rec.clone.live() || rec.clone.participant != want.clone.pid || !rec.clone.issuedAt.Equal(want.clone.at) {
					fail("copy %v: clone %v, want participant %d since %v", k, rec.clone, want.clone.pid, want.clone.at)
				}
			}
		}
		counts := append(slices.Clone(tab.primaries), make([]int32, 5)...) // 0 past the table's end
		for pid := 1; pid <= 4; pid++ {
			if int(counts[pid]) != primaries[pid] {
				fail("participant %d counts %d primaries, holds %d", pid, counts[pid], primaries[pid])
			}
		}
		if tab.flagged != flagged {
			fail("%d flags counted, %d copies flagged", tab.flagged, flagged)
		}
		chained := 0
		for task, head := range tab.byTask {
			for j := head; j != 0; j = tab.recs[j-1].next {
				if chained++; chained > len(tab.recs) {
					fail("the chain of task %d does not end", task)
				}
				if rec := &tab.recs[j-1]; !rec.primary.live() || rec.a.TaskID != task {
					fail("the chain of task %d reaches record %d of %+v, live %v", task, j-1, rec.a, rec.primary.live())
				}
			}
		}
		if chained != tab.live {
			fail("the task chains hold %d records, %d are live", chained, tab.live)
		}
	}

	revisions, grown := 0, false
	for step := 0; step < steps; step++ {
		now = now.Add(time.Duration(r.Intn(3)) * time.Millisecond)
		if !tab.queue.Available() && revisions < 12 {
			for i := 0; i < 6; i++ {
				if err := tab.queue.AddTask(plan.TaskSpec{ID: tasks + 6*revisions + i, Copies: 3, Ringer: true}); err != nil {
					t.Fatal(err)
				}
			}
			revisions++
		}
		ks := keys()
		pid := 1 + r.Intn(4)
		var op string
		var want []End
		*ends = (*ends)[:0]
		switch roll := r.Intn(100); {
		case roll < 22:
			op = "issue"
			for _, a := range tab.queue.NextBatch(nil, 1+r.Intn(6)) {
				tab.Issue(a, pid, now)
				ref[key{a.TaskID, a.Copy}] = &copyOut{a: a, primary: hold{pid, now}}
				grown = grown || a.TaskID >= tasks
			}
		case roll < 26:
			op = "reissue"
			limit, held := 1+r.Intn(2)*len(ks), 0 // one, as a request_work, or all
			for _, k := range ks {
				if ref[k].primary.pid == pid {
					held++
				}
			}
			var sent []sched.Assignment
			n := tab.Reissue(pid, now, func(a sched.Assignment) bool {
				sent = append(sent, a)
				return len(sent) < limit
			})
			if n != len(sent) || n != min(limit, held) {
				t.Fatalf("step %d: re-sent %d of participant %d's %d primaries, limit %d, told of %d", step, n, pid, held, limit, len(sent))
			}
			for _, a := range sent {
				c := ref[key{a.TaskID, a.Copy}]
				if c == nil || c.primary.pid != pid {
					t.Fatalf("step %d: re-sent %+v, not participant %d's primary", step, a, pid)
				}
				c.primary.at = now
			}
		case roll < 40:
			op = "claim"
			if len(ks) == 0 {
				break
			}
			k := ks[r.Intn(len(ks))]
			c := ref[k]
			won, lost := c.primary, (*hold)(nil)
			if liveClone(c) {
				lost = c.clone
				if r.Bool() {
					won, lost = *c.clone, &c.primary
				}
			}
			a, issuedAt, refused, cloneWon := tab.Claim(won.pid, k.task, k.copy, now)
			if refused != 0 || a != c.a || !issuedAt.Equal(won.at) || cloneWon != (won != c.primary) {
				t.Fatalf("step %d: participant %d's claim of %v: %+v issued %v, refused %d, clone won %v", step, won.pid, k, a, issuedAt, refused, cloneWon)
			}
			tab.queue.Complete(a)
			delete(ref, k)
			if lost != nil {
				if _, _, refused, _ := tab.Claim(lost.pid, k.task, k.copy, now); refused != Duplicate {
					t.Fatalf("step %d: the loser's claim of %v refused %d, want Duplicate", step, k, refused)
				}
			}
		case roll < 45:
			op = "claim refused"
			k := key{-1 - r.Intn(2), 0} // never out, and off byTask's either end
			if r.Bool() {
				k.task = len(tab.byTask) + r.Intn(2)
			}
			want := Unassigned
			if len(ks) > 0 && r.Bool() {
				k = ks[r.Intn(len(ks))]
				if c := ref[k]; c.primary.pid == pid || liveClone(c) && c.clone.pid == pid {
					break
				}
				want = WrongParticipant
			}
			if _, _, refused, _ := tab.Claim(pid, k.task, k.copy, now); refused != want {
				t.Fatalf("step %d: participant %d's claim of %v refused %d, want %d", step, pid, k, refused, want)
			}
		case roll < 62:
			op = "release"
			reason := reasons[r.Intn(len(reasons))]
			if len(tab.free) > 0 && r.Intn(4) == 0 {
				op = "release of a free record"
				tab.release(tab.free[r.Intn(len(tab.free))], pid, reason, now)
				break
			}
			if len(ks) == 0 {
				break
			}
			k := ks[r.Intn(len(ks))]
			switch c := ref[k]; r.Intn(3) {
			case 0:
				pid = c.primary.pid
			case 1:
				if liveClone(c) {
					pid = c.clone.pid
				}
			}
			tab.release(tab.find(k.task, k.copy), pid, reason, now)
			want = release(k, pid, reason, now)
		case roll < 66:
			op = "end holds"
			gone := map[int]bool{pid: true, 1 + r.Intn(4): true}
			tab.EndHolds(func(p int) bool { return gone[p] }, "disconnect")
			want = endHolds(func(h hold) bool { return gone[h.pid] }, "disconnect", "disconnect", time.Time{})
		case roll < 69:
			op = "expire"
			deadline := time.Duration(r.Intn(400)) * time.Millisecond
			tab.Expire(now, deadline)
			want = endHolds(func(h hold) bool { return h.at.Before(now.Add(-deadline)) }, "speculative", "deadline", now)
		case roll < 82:
			op = "flag"
			now = now.Add(2 * time.Millisecond)
			n := 0
			for _, c := range ref {
				if c.clone == nil && c.primary.at.Before(now.Add(-q)) {
					c.clone = &hold{}
					n++
				}
			}
			if flagged := tab.Flag(now.Add(-q)); flagged != n {
				t.Fatalf("step %d: flagged %d stragglers, want %d", step, flagged, n)
			}
		default:
			op = "fill"
			limit, eligible := 1+r.Intn(3), 0
			for _, c := range ref {
				if c.clone != nil && c.clone.pid == 0 && c.primary.pid != pid {
					eligible++
				}
			}
			var served []sched.Assignment
			n := tab.Clones(pid, now, func(a sched.Assignment, straggler int) bool {
				c := ref[key{a.TaskID, a.Copy}]
				if c == nil || c.clone == nil || c.clone.pid != 0 || c.primary.pid == pid || straggler != c.primary.pid {
					t.Fatalf("step %d: participant %d was served a clone of %+v racing %d", step, pid, a, straggler)
				}
				c.clone = &hold{pid, now}
				served = append(served, a)
				return len(served) < limit
			})
			if n != min(limit, eligible) || len(served) != n {
				t.Fatalf("step %d: %d clones told of %d, want %d of %d eligible", step, n, len(served), min(limit, eligible), eligible)
			}
		}
		byCopy := func(a, b End) int {
			return byKey(key{a.Assignment.TaskID, a.Assignment.Copy}, key{b.Assignment.TaskID, b.Assignment.Copy})
		}
		got := slices.Clone(*ends)
		slices.SortStableFunc(got, byCopy)
		slices.SortStableFunc(want, byCopy)
		if !slices.Equal(got, want) {
			t.Fatalf("step %d (%s): the observer was told\n%+v\nwant\n%+v", step, op, got, want)
		}
		check(step, op)
	}
	if revisions == 0 || !grown {
		t.Fatalf("%d revisions, and the index grew %v: no issue went past the presized index", revisions, grown)
	}
}

// byKey orders copies by task, then copy.
func byKey(a, b key) int { return cmp.Or(a.task-b.task, a.copy-b.copy) }

// TestLeaseCycleAllocFree: once the record pool and its free list have
// reached a lease's size, a 64-copy lease allocates nothing, whether its
// holds end by claim or by deadline through the observer. The queue holds
// the 102 leases the claim cycles (a warm-up and AllocsPerRun's 101)
// consume and one more, which the expiry cycles deal and take back: its
// ready pool has no room left at the back, so the expired copies go into
// the room dealing them freed at the front.
func TestLeaseCycleAllocFree(t *testing.T) {
	const batch = 64
	tab, ends := newTable(t, 103*batch/2)
	lease := make([]sched.Assignment, 0, batch)
	now := time.Unix(1_000_000, 0)
	issue := func() {
		lease = tab.queue.NextBatch(lease[:0], batch)
		for _, a := range lease {
			tab.Issue(a, 1, now)
		}
	}
	claims := func() {
		issue()
		for _, a := range lease {
			if _, _, refused, _ := tab.Claim(1, a.TaskID, a.Copy, now); refused != 0 {
				t.Fatalf("claim of %+v refused: %d", a, refused)
			}
		}
	}
	expiries := func() {
		*ends = (*ends)[:0]
		issue()
		tab.Expire(now.Add(time.Hour), time.Minute)
		if len(*ends) != batch || tab.live != 0 {
			t.Fatalf("expiry ended %d holds and left %d out, want %d and 0", len(*ends), tab.live, batch)
		}
	}
	for _, c := range []struct {
		name  string
		cycle func()
	}{{"claim", claims}, {"expiry", expiries}} {
		c.cycle() // the warm-up lease
		if n := testing.AllocsPerRun(100, c.cycle); n != 0 {
			t.Errorf("a %d-copy lease ended by %s allocates %v times, want 0", batch, c.name, n)
		}
	}
}
