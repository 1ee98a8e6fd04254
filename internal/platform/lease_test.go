package platform

import (
	"bytes"
	"encoding/json"
	"fmt"
	"slices"
	"strings"
	"testing"
	"time"

	"redundancy/internal/health"
	"redundancy/internal/obs"
	"redundancy/internal/plan"
	"redundancy/internal/rng"
	"redundancy/internal/sched"
)

// leasesOf returns the record of every copy of task that is out, so a test
// can read or backdate a hold without knowing how the table is laid out.
// Callers hold lease.mu.
func (s *Supervisor) leasesOf(task int) []*leaseRecord {
	var out []*leaseRecord
	for i := range s.lease.recs {
		if r := &s.lease.recs[i]; r.primary.live() && r.a.TaskID == task {
			out = append(out, r)
		}
	}
	return out
}

// heldBy returns the copies cs's held index lists. Callers hold lease.mu.
func (s *Supervisor) heldBy(cs *connState) []outstandingKey {
	var out []outstandingKey
	for _, i := range cs.held {
		out = append(out, outstandingKey{s.lease.recs[i].a.TaskID, s.lease.recs[i].a.Copy})
	}
	return out
}

// TestLeaseRelease walks every way a hold ends without a result
// (disconnect, deadline, quarantine) for each holder of a copy (its primary
// p, its clone c) against each state of the other holder (none, live, or
// past its deadline; a clone never exists without its primary, so the
// clone rows start at live), on a supervisor with one single-copy task and
// no goroutines: the sweeper is called by hand at a chosen now, and a hold
// is made older than the other by backdating its issue time. A quarantine
// is a suspect verdict and the sweep that follows it, as in production, so
// that sweep also reclaims an expired other holder. After the cause, after
// the sweep that follows it, and after a second release of the same hold,
// it checks who holds the copy, the connection index, the queue,
// reclaimed{reason}, the assignment_reclaimed events and the
// deadline-failure evidence.
func TestLeaseRelease(t *testing.T) {
	type state struct {
		holds    string // "p", "c", "p+c" (primary+clone), or "" when the copy is back in the queue
		events   string // every assignment_reclaimed so far, "reason:holder", oldest first
		observed string // every ObserveReclaim so far, by holder
	}
	cases := []struct {
		cause, holder, other string
		after                [2]state // the cause, then the sweep that follows it
	}{
		{"disconnect", "p", "none", [2]state{{"", "disconnect:p", ""}, {"", "disconnect:p", ""}}},
		{"disconnect", "p", "live", [2]state{{"c", "disconnect:p", ""}, {"c", "disconnect:p", ""}}},
		{"disconnect", "p", "expired", [2]state{{"c", "disconnect:p", ""}, {"", "disconnect:p deadline:c", "c"}}},
		{"disconnect", "c", "live", [2]state{{"p", "disconnect:c", ""}, {"p", "disconnect:c", ""}}},
		{"disconnect", "c", "expired", [2]state{{"p", "disconnect:c", ""}, {"", "disconnect:c deadline:p", "p"}}},
		{"deadline", "p", "none", [2]state{{"", "deadline:p", "p"}, {"", "deadline:p", "p"}}},
		{"deadline", "p", "live", [2]state{{"c", "deadline:p", "p"}, {"c", "deadline:p", "p"}}},
		{"deadline", "p", "expired", [2]state{{"", "speculative:c deadline:p", "c p"}, {"", "speculative:c deadline:p", "c p"}}},
		{"deadline", "c", "live", [2]state{{"p", "speculative:c", "c"}, {"p", "speculative:c", "c"}}},
		{"deadline", "c", "expired", [2]state{{"", "speculative:c deadline:p", "c p"}, {"", "speculative:c deadline:p", "c p"}}},
		{"quarantine", "p", "none", [2]state{{"", "quarantine:p", ""}, {"", "quarantine:p", ""}}},
		{"quarantine", "p", "live", [2]state{{"c", "quarantine:p", ""}, {"c", "quarantine:p", ""}}},
		{"quarantine", "p", "expired", [2]state{{"", "speculative:c quarantine:p", "c"}, {"", "speculative:c quarantine:p", "c"}}},
		{"quarantine", "c", "live", [2]state{{"p", "quarantine:c", ""}, {"p", "quarantine:c", ""}}},
		{"quarantine", "c", "expired", [2]state{{"", "deadline:p quarantine:c", "p"}, {"", "deadline:p quarantine:c", "p"}}},
	}
	for _, tc := range cases {
		t.Run(tc.cause+"/"+tc.holder+"/other-"+tc.other, func(t *testing.T) {
			var events bytes.Buffer
			reg := obs.NewRegistry()
			sup, err := NewSupervisor(SupervisorConfig{
				Plan: simplePlan(t, 1), tasks: []plan.TaskSpec{{ID: 0, Copies: 1}}, Iters: 1,
				Deadline: time.Hour, SpeculatePct: 0.5,
				// One latency sample arms speculation, one suspect verdict
				// quarantines, and so does one deadline or speculative drop,
				// whose holder by then holds nothing more to reclaim.
				Health:  &health.Config{MinLatencySamples: 1, MinEvents: 1, SuspectLimit: 1},
				Metrics: reg, Events: obs.NewSink(&events),
			})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { sup.Close() })
			conns := map[string]*connState{}
			pids := map[string]int{}
			names := map[int]string{}
			for _, who := range []string{"p", "c"} {
				cs := newConnState(nil) // nothing is flushed: no lease parks
				m := sup.register(Message{Type: MsgRegister, Name: who}, cs)
				conns[who], pids[who], names[m.ParticipantID] = cs, m.ParticipantID, who
			}
			now := time.Now()
			lease := func(who string) outstandingKey {
				t.Helper()
				m := sup.leaseBatch(pids[who], 1, false, conns[who], now)
				if m.Type != MsgWorkBatch || len(m.Work) != 1 {
					t.Fatalf("%s's lease: %+v", who, m)
				}
				return outstandingKey{m.Work[0].TaskID, m.Work[0].Copy}
			}
			// age moves who's hold on the copy back by d.
			age := func(key outstandingKey, who string, d time.Duration) {
				sup.lease.mu.Lock()
				defer sup.lease.mu.Unlock()
				r := sup.leasesOf(key.task)[0]
				if r.clone.live() && r.clone.participant == pids[who] {
					r.clone.issuedAt = r.clone.issuedAt.Add(-d)
				} else {
					r.primary.issuedAt = r.primary.issuedAt.Add(-d)
				}
			}

			key := lease("p")
			sup.lease.mu.Lock()
			idx := sup.findLocked(key) // the copy's one record, for the second release
			sup.lease.mu.Unlock()
			if tc.other != "none" {
				// A straggling primary: the sweep flags it, and c's next
				// lease is its clone.
				sup.roster.ObserveCompletion(pids["c"], time.Millisecond)
				sup.sweepExpired(now.Add(time.Second))
				if clone := lease("c"); clone != key {
					t.Fatalf("c leased %v, want the clone of %v", clone, key)
				}
			}
			other := map[string]string{"p": "c", "c": "p"}[tc.holder]
			if tc.other == "expired" {
				age(key, other, 2*time.Hour)
			}

			check := func(step string, want state) {
				t.Helper()
				sup.lease.mu.Lock()
				out := sup.leasesOf(key.task)
				ok := len(out) == 1
				holds := ""
				if ok {
					r := out[0]
					holds = names[r.primary.participant]
					if r.clone.live() {
						holds += "+" + names[r.clone.participant]
					}
				}
				for who, cs := range conns {
					indexed := slices.Contains(sup.heldBy(cs), key)
					if owns := ok && out[0].primary.owner == cs; indexed != owns {
						t.Errorf("%s: %s's connection indexes the copy %v, owns its primary %v", step, who, indexed, owns)
					}
				}
				issued, available := sup.lease.queue.Issued(), sup.lease.queue.Available()
				sup.lease.mu.Unlock()
				if holds != want.holds {
					t.Errorf("%s: copy held by %q, want %q", step, holds, want.holds)
				}
				isOut, wantIssued := want.holds != "", 0
				if isOut {
					wantIssued = 1
				}
				if issued != wantIssued || available == isOut {
					t.Errorf("%s: queue issued %d available %v, want %d and %v", step, issued, available, wantIssued, !isOut)
				}

				var got []string
				for _, line := range strings.Split(strings.TrimSpace(events.String()), "\n") {
					var ev struct {
						Event       string `json:"event"`
						Participant int    `json:"participant"`
						Reason      string `json:"reason"`
					}
					if err := json.Unmarshal([]byte(line), &ev); err != nil {
						t.Fatalf("event line %q: %v", line, err)
					}
					if ev.Event == EvAssignmentReclaimed {
						got = append(got, ev.Reason+":"+names[ev.Participant])
					}
				}
				if g := strings.Join(got, " "); g != want.events {
					t.Errorf("%s: assignment_reclaimed %q, want %q", step, g, want.events)
				}
				snap := reg.Snapshot()
				for _, reason := range []string{"disconnect", "deadline", "quarantine", "speculative"} {
					v, _ := snap.Value("redundancy_assignments_reclaimed_total", reason)
					if n := strings.Count(" "+want.events, " "+reason+":"); int(v) != n {
						t.Errorf("%s: reclaimed{%s} = %v, want %d", step, reason, v, n)
					}
				}
				reclaims := map[string]int{}
				for _, ph := range sup.HealthSnapshot() {
					reclaims[names[ph.Participant]] = ph.Reclaims
				}
				for who := range conns {
					if n := strings.Count(want.observed, who); reclaims[who] != n {
						t.Errorf("%s: %s has %d deadline reclaims on its health record, want %d", step, who, reclaims[who], n)
					}
				}
			}

			switch tc.cause {
			case "disconnect":
				sup.reclaim(conns[tc.holder])
			case "deadline":
				age(key, tc.holder, 2*time.Hour)
				sup.sweepExpired(now)
			case "quarantine":
				sup.pushTransition(*sup.roster.ObserveVerdict(pids[tc.holder], true, false, now))
				sup.sweepExpired(now)
			}
			check(tc.cause, tc.after[0])
			sup.sweepExpired(now)
			check("sweep", tc.after[1])
			// The hold has ended; releasing it again, as a racing second
			// cause would, changes nothing.
			sup.lease.mu.Lock()
			sup.releaseLocked(idx, pids[tc.holder], tc.cause)
			sup.lease.mu.Unlock()
			check("second release", tc.after[1])
		})
	}
}

// TestSweepReclaimsQuarantined pins what one sweep reclaims as quarantine,
// on a supervisor with five single-copy tasks and no goroutines. v, whom a
// verdict quarantined since the last sweep, loses its clone and its
// primary, though its probation is due and this same sweep starts it
// (roster.Tick runs after the pass). d, whom this sweep's deadline reclaim
// of a later record quarantines, loses its unexpired hold on an earlier
// one. h, healthy, keeps the primary v was racing. o, reclaimed at the
// previous sweep and quarantined still, is not counted again. A supervisor
// with SpeculatePct and no Health never reclaims as quarantine, whatever
// its roster says.
func TestSweepReclaimsQuarantined(t *testing.T) {
	tasks := make([]plan.TaskSpec, 5)
	for i := range tasks {
		tasks[i] = plan.TaskSpec{ID: i, Copies: 1}
	}
	newSup := func(hc *health.Config) *Supervisor {
		sup, err := NewSupervisor(SupervisorConfig{
			Plan: simplePlan(t, 5), tasks: tasks, Iters: 1,
			Deadline: time.Hour, SpeculatePct: 0.5, Health: hc,
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { sup.Close() })
		return sup
	}
	now := time.Now()
	join := func(sup *Supervisor, who string) (int, *connState) {
		cs := newConnState(nil) // nothing is flushed: every lease finds work
		return sup.register(Message{Type: MsgRegister, Name: who}, cs).ParticipantID, cs
	}
	lease := func(sup *Supervisor, pid int, cs *connState, want int) []outstandingKey {
		t.Helper()
		m := sup.leaseBatch(pid, want, false, cs, now)
		if m.Type != MsgWorkBatch || len(m.Work) != want {
			t.Fatalf("participant %d's lease of %d: %+v", pid, want, m)
		}
		var keys []outstandingKey
		for _, w := range m.Work {
			keys = append(keys, outstandingKey{w.TaskID, w.Copy})
		}
		return keys
	}
	quarantines := func(sup *Supervisor) int {
		v, _ := sup.Metrics().Snapshot().Value("redundancy_assignments_reclaimed_total", "quarantine")
		return int(v)
	}

	sup := newSup(&health.Config{MinLatencySamples: 1, MinEvents: 1, SuspectLimit: 1})
	h, hc := join(sup, "h")
	v, vc := join(sup, "v")
	d, dc := join(sup, "d")
	o, oc := join(sup, "o")
	names := map[int]string{h: "h", v: "v", d: "d", o: "o"}
	// h's primary straggles, so v's lease is its clone and one fresh copy.
	hKey := lease(sup, h, hc, 1)[0]
	sup.roster.ObserveCompletion(h, time.Millisecond)
	sup.sweepExpired(now.Add(time.Second))
	if vKeys := lease(sup, v, vc, 2); vKeys[0] != hKey {
		t.Fatalf("v leased %v, want the clone of %v first", vKeys, hKey)
	}
	dKeys := lease(sup, d, dc, 2)
	lease(sup, o, oc, 1)
	sup.pushTransition(*sup.roster.ObserveVerdict(o, true, false, now))
	sup.sweepExpired(now)
	if n := quarantines(sup); n != 1 {
		t.Fatalf("the sweep after o's quarantine reclaimed %d holds as quarantine, want 1", n)
	}

	// v was quarantined by a verdict a minute ago, past its 10 s
	// probation, and d's later record expires.
	sup.pushTransition(*sup.roster.ObserveVerdict(v, true, false, now.Add(-time.Minute)))
	sup.lease.mu.Lock()
	early, late := sup.findLocked(dKeys[0]), sup.findLocked(dKeys[1])
	if early > late {
		early, late = late, early
	}
	sup.lease.recs[late].primary.issuedAt = now.Add(-2 * time.Hour)
	sup.lease.mu.Unlock()
	sup.sweepExpired(now)

	sup.lease.mu.Lock()
	var holds []string // "task/copy:primary[+clone]"
	for i := range sup.lease.recs {
		if r := &sup.lease.recs[i]; r.primary.live() {
			hold := fmt.Sprintf("%d/%d:%s", r.a.TaskID, r.a.Copy, names[r.primary.participant])
			if r.clone.live() {
				hold += "+" + names[r.clone.participant]
			}
			holds = append(holds, hold)
		}
	}
	sup.lease.mu.Unlock()
	if want := fmt.Sprintf("%d/%d:h", hKey.task, hKey.copy); len(holds) != 1 || holds[0] != want {
		t.Errorf("after the sweep the holds are %v, want [%s]", holds, want)
	}
	for pid, want := range map[int]health.State{v: health.Probation, d: health.Quarantined, o: health.Quarantined} {
		if st := sup.roster.State(pid); st != want {
			t.Errorf("%s is %v, want %v", names[pid], st, want)
		}
	}
	if n := quarantines(sup); n != 1+3 {
		t.Errorf("%d holds reclaimed as quarantine, want o's 1 and then v's 2 and d's 1", n)
	}

	// No Health: the roster only tracks latency, and nothing it records
	// quarantines a hold.
	sup = newSup(nil)
	x, xc := join(sup, "x")
	lease(sup, x, xc, 1)
	for range 3 { // the default SuspectLimit
		sup.roster.ObserveVerdict(x, true, false, now)
	}
	if st := sup.roster.State(x); st != health.Quarantined {
		t.Fatalf("x is %v, want quarantined", st)
	}
	sup.sweepExpired(now)
	if n := quarantines(sup); n != 0 {
		t.Errorf("a supervisor without Health reclaimed %d holds as quarantine", n)
	}
	sup.lease.mu.Lock()
	if held := len(xc.held); held != 1 {
		t.Errorf("x holds %d copies after the sweep, want 1", held)
	}
	sup.lease.mu.Unlock()
}

// TestLeaseTableMatchesReference drives every writer of the lease table
// (issue, reissue, claim by primary and by clone, release for every
// reason, resume transfer, disconnect, straggler flagging and clone
// serving) in a seeded random order over three connections and four
// participants, against a plain map from (task, copy) to its holders.
// Whenever the queue runs dry a revision mints ringers past the end of
// byTask, so the chains of grown task IDs are walked too. After every step
// the table must agree with the map: every copy out is found with the
// same holders and nothing else is out, every held entry is a live record
// owned by that connection that knows its position there, the pool
// accounts for every record, and every task chain is acyclic.
func TestLeaseTableMatchesReference(t *testing.T) {
	const tasks, steps = 60, 4000
	p := simplePlan(t, tasks)
	sup, err := NewSupervisor(SupervisorConfig{Plan: p, Iters: 1, Seed: 3, Deadline: time.Hour, SpeculatePct: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sup.Close() })
	for i := 0; i < 20; i++ {
		sup.roster.ObserveCompletion(1, time.Millisecond)
	}
	q, ok := sup.roster.Quantile(sup.cfg.SpeculatePct)
	if !ok {
		t.Fatal("the completion quantile is not armed")
	}

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
	ref := map[outstandingKey]*copyOut{}
	conns := []*connState{newConnState(nil), newConnState(nil), newConnState(nil)}
	connOf := map[int]int{1: 0, 2: 1, 3: 2, 4: 0} // every hold of a participant is on its connection
	reasons := []string{"disconnect", "deadline", "quarantine", "speculative"}
	r := rng.New(11)
	now := time.Unix(1_000_000, 0)

	keys := func() []outstandingKey {
		ks := make([]outstandingKey, 0, len(ref))
		for k := range ref {
			ks = append(ks, k)
		}
		slices.SortFunc(ks, func(a, b outstandingKey) int {
			if a.task != b.task {
				return a.task - b.task
			}
			return a.copy - b.copy
		})
		return ks
	}
	liveClone := func(c *copyOut) bool { return c.clone != nil && c.clone.pid != 0 }
	// release mirrors releaseLocked on the reference.
	release := func(k outstandingKey, pid int) {
		c := ref[k]
		switch {
		case liveClone(c) && c.clone.pid == pid:
			c.clone = nil
		case c.primary.pid != pid:
		case liveClone(c):
			c.primary, c.clone = *c.clone, nil
		default:
			delete(ref, k)
		}
	}

	check := func(step int, op string) {
		t.Helper()
		l := &sup.lease
		fail := func(format string, args ...any) {
			t.Helper()
			t.Fatalf("step %d (%s): %s", step, op, fmt.Sprintf(format, args...))
		}
		if l.live != len(ref) || l.live+len(l.free) != len(l.recs) {
			fail("%d records live, %d free, pool of %d; the reference has %d copies out", l.live, len(l.free), len(l.recs), len(ref))
		}
		if n := l.queue.Outstanding(); n != len(ref) {
			fail("queue has %d outstanding, the reference %d", n, len(ref))
		}
		for k, want := range ref {
			i := sup.findLocked(k)
			if i < 0 {
				fail("copy %v is out but not found", k)
			}
			rec := &l.recs[i]
			if rec.a != want.a || rec.primary.participant != want.primary.pid ||
				rec.primary.owner != conns[connOf[want.primary.pid]] || !rec.primary.issuedAt.Equal(want.primary.at) {
				fail("copy %v: primary %+v of %+v, want participant %d since %v", k, rec.primary, rec.a, want.primary.pid, want.primary.at)
			}
			switch {
			case want.clone == nil:
				if rec.clone != nil {
					fail("copy %v has a clone %+v, want none", k, *rec.clone)
				}
			case want.clone.pid == 0:
				if rec.clone == nil || rec.clone.live() {
					fail("copy %v: clone %v, want a flag", k, rec.clone)
				}
			default:
				if !rec.clone.live() || rec.clone.participant != want.clone.pid ||
					rec.clone.owner != conns[connOf[want.clone.pid]] || !rec.clone.issuedAt.Equal(want.clone.at) {
					fail("copy %v: clone %v, want participant %d since %v", k, rec.clone, want.clone.pid, want.clone.at)
				}
			}
		}
		held := 0
		for c, cs := range conns {
			for pos, i := range cs.held {
				if rec := &l.recs[i]; !rec.primary.live() || rec.primary.owner != cs || int(rec.at) != pos {
					fail("connection %d lists record %d at %d: owned by its own connection %v, at %d", c, i, pos, rec.primary.owner == cs, rec.at)
				}
			}
			held += len(cs.held)
		}
		if held != l.live {
			fail("the connections list %d records, %d are live", held, l.live)
		}
		chained := 0
		for task, head := range l.byTask {
			for j := head; j != 0; j = l.recs[j-1].next {
				if chained++; chained > len(l.recs) {
					fail("the chain of task %d does not end", task)
				}
				if rec := &l.recs[j-1]; !rec.primary.live() || rec.a.TaskID != task {
					fail("the chain of task %d reaches record %d of %+v, live %v", task, j-1, rec.a, rec.primary.live())
				}
			}
		}
		if chained != l.live {
			fail("the task chains hold %d records, %d are live", chained, l.live)
		}
	}

	revisions := 0
	sup.lease.mu.Lock()
	defer sup.lease.mu.Unlock()
	for step := 0; step < steps; step++ {
		now = now.Add(time.Duration(r.Intn(3)) * time.Millisecond)
		if !sup.lease.queue.Available() && revisions < 12 {
			next := p.NextTaskID()
			if next != len(sup.lease.byTask) {
				t.Fatalf("step %d: byTask covers %d tasks, the plan's next ID is %d", step, len(sup.lease.byTask), next)
			}
			rec := revisionRecord{Seq: revisions}
			for i := 0; i < 6; i++ {
				rec.Minted = append(rec.Minted, plan.Mint{TaskID: next + i, Copies: 3})
			}
			sup.audit.mu.Lock()
			err := sup.applyRevisionLocked(rec)
			sup.audit.mu.Unlock()
			if err != nil {
				t.Fatal(err)
			}
			revisions++
		}
		ks := keys()
		pid := 1 + r.Intn(4)
		var op string
		switch roll := r.Intn(100); {
		case roll < 22:
			op = "issue"
			for _, a := range sup.lease.queue.NextBatch(nil, 1+r.Intn(6)) {
				sup.issueLocked(a, pid, conns[connOf[pid]], now)
				ref[outstandingKey{a.TaskID, a.Copy}] = &copyOut{a: a, primary: hold{pid, now}}
			}
		case roll < 25:
			op = "reissue"
			if len(ks) > 0 {
				k := ks[r.Intn(len(ks))]
				if a := sup.reissueLocked(sup.findLocked(k), now); a != ref[k].a {
					t.Fatalf("step %d: reissued %+v for %v", step, a, k)
				}
				ref[k].primary.at = now
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
			a, issuedAt, reason, _ := sup.claimLocked(won.pid, k.task, k.copy, now)
			if reason != "" || a != c.a || !issuedAt.Equal(won.at) {
				t.Fatalf("step %d: participant %d's claim of %v: %+v issued %v, refused %q", step, won.pid, k, a, issuedAt, reason)
			}
			sup.lease.queue.Complete(a)
			delete(ref, k)
			if lost != nil {
				if _, _, reason, _ := sup.claimLocked(lost.pid, k.task, k.copy, now); reason != ReasonDuplicate {
					t.Fatalf("step %d: the loser's claim of %v refused %q, want %q", step, k, reason, ReasonDuplicate)
				}
			}
		case roll < 45:
			op = "claim refused"
			k := outstandingKey{-1 - r.Intn(2), 0} // never out, and off byTask's either end
			if r.Bool() {
				k.task = len(sup.lease.byTask) + r.Intn(2)
			}
			want := ReasonUnassigned
			if len(ks) > 0 && r.Bool() {
				k = ks[r.Intn(len(ks))]
				if c := ref[k]; c.primary.pid == pid || liveClone(c) && c.clone.pid == pid {
					break
				}
				want = ReasonWrongParticipant
			}
			if _, _, reason, _ := sup.claimLocked(pid, k.task, k.copy, now); reason != want {
				t.Fatalf("step %d: participant %d's claim of %v refused %q, want %q", step, pid, k, reason, want)
			}
		case roll < 65:
			op = "release"
			reason := reasons[r.Intn(len(reasons))]
			if len(sup.lease.free) > 0 && r.Intn(4) == 0 {
				op = "release of a free record"
				sup.releaseLocked(sup.lease.free[r.Intn(len(sup.lease.free))], pid, reason)
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
			sup.releaseLocked(sup.findLocked(k), pid, reason)
			release(k, pid)
		case roll < 70:
			op = "transfer"
			to := r.Intn(len(conns))
			want := 0
			for _, c := range ref {
				if c.primary.pid == pid || liveClone(c) && c.clone.pid == pid {
					want++
				}
			}
			sup.lease.mu.Unlock()
			moved := sup.transfer(pid, conns[to])
			sup.lease.mu.Lock()
			if moved != want {
				t.Fatalf("step %d: transfer moved %d holds of participant %d, want %d", step, moved, pid, want)
			}
			connOf[pid] = to
		case roll < 73:
			op = "disconnect"
			gone := r.Intn(len(conns))
			for _, k := range ks {
				if c := ref[k]; liveClone(c) && connOf[c.clone.pid] == gone {
					c.clone = nil
				}
			}
			for _, k := range ks {
				if c := ref[k]; connOf[c.primary.pid] == gone {
					release(k, c.primary.pid)
				}
			}
			sup.lease.mu.Unlock()
			sup.reclaim(conns[gone])
			sup.lease.mu.Lock()
		case roll < 83:
			op = "flag"
			now = now.Add(2 * time.Millisecond)
			want := 0
			for _, c := range ref {
				if c.clone == nil && c.primary.at.Before(now.Add(-q)) {
					c.clone = &hold{}
					want++
				}
			}
			if flagged := sup.flagStragglersLocked(now); flagged != want {
				t.Fatalf("step %d: flagged %d stragglers, want %d", step, flagged, want)
			}
		default:
			op = "fill"
			want, eligible := 1+r.Intn(3), 0
			for _, c := range ref {
				if c.clone != nil && c.clone.pid == 0 && c.primary.pid != pid {
					eligible++
				}
			}
			var items []WorkItem
			issued := sup.fillSpeculativeLocked(pid, conns[connOf[pid]], want, &items, now)
			if issued != min(want, eligible) || len(items) != issued {
				t.Fatalf("step %d: %d clones for %d items, want %d of %d eligible", step, issued, len(items), min(want, eligible), eligible)
			}
			for _, w := range items {
				c := ref[outstandingKey{w.TaskID, w.Copy}]
				if c == nil || c.clone == nil || c.clone.pid != 0 || c.primary.pid == pid {
					t.Fatalf("step %d: participant %d was served a clone of %+v", step, pid, w)
				}
				c.clone = &hold{pid, now}
			}
		}
		check(step, op)
	}
	if revisions == 0 {
		t.Fatal("no revision grew byTask")
	}
}

// TestLeaseCycleAllocFree: once the record pool, its free list and the
// connection's held index have reached a lease's size, issuing and
// claiming a 64-copy lease allocates nothing.
func TestLeaseCycleAllocFree(t *testing.T) {
	const batch = 64
	sup, err := NewSupervisor(SupervisorConfig{Plan: simplePlan(t, batch), Iters: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sup.Close() })
	// Two copies each of 32 tasks, so every claim also walks a chain.
	lease := make([]sched.Assignment, batch)
	for i := range lease {
		lease[i] = sched.Assignment{TaskID: i / 2, Copy: i % 2}
	}
	cs := newConnState(nil)
	now := time.Now()
	cycle := func() {
		for _, a := range lease {
			sup.issueLocked(a, 1, cs, now)
		}
		for _, a := range lease {
			if _, _, reason, _ := sup.claimLocked(1, a.TaskID, a.Copy, now); reason != "" {
				t.Fatalf("claim of %+v refused: %s", a, reason)
			}
		}
	}
	sup.lease.mu.Lock()
	defer sup.lease.mu.Unlock()
	cycle() // the warm-up lease
	if n := testing.AllocsPerRun(1000, cycle); n != 0 {
		t.Errorf("a %d-copy issue and claim cycle allocates %v times, want 0", batch, n)
	}
}
