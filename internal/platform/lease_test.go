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

// heldBy returns the copies whose primary pid holds, in record order.
// Callers hold lease.mu.
func (s *Supervisor) heldBy(pid int) []outstandingKey {
	var out []outstandingKey
	for i := range s.lease.recs {
		if r := &s.lease.recs[i]; r.primary.live() && r.primary.participant == pid {
			out = append(out, outstandingKey{r.a.TaskID, r.a.Copy})
		}
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
// it checks who holds the copy, the primary counts, the queue,
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
				for who, pid := range pids {
					if n, held := len(sup.heldBy(pid)), sup.lease.primaries[pid]; int(held) != n {
						t.Errorf("%s: %s's primary count is %d, it holds %d primaries", step, who, held, n)
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
	if held := len(sup.heldBy(x)); held != 1 {
		t.Errorf("x holds %d copies after the sweep, want 1", held)
	}
	sup.lease.mu.Unlock()
}

// TestHoldsFollowTheirParticipant pins that a hold is its participant's,
// whatever connection the participant is served over, on supervisors with
// no goroutines. resume: after p resumes on c2 its two copies stay out and
// stay its own; a lease request that still arrives on c1 re-sends them and
// pops nothing fresh, c1's end reclaims none of them, p's lease on c2
// re-sends them again, and c2's end reclaims both. shared connection: a
// connection serving two participants, one racing the other's copy as a
// clone, returns that copy to the queue when it ends rather than passing it
// from one to the other. worker_left: a participant leaves at the end of
// the connection it was last served over, never at the end of one it left.
func TestHoldsFollowTheirParticipant(t *testing.T) {
	now := time.Now()
	start := func(t *testing.T, tasks int, cfg SupervisorConfig) (*Supervisor, *bytes.Buffer) {
		t.Helper()
		var events bytes.Buffer
		cfg.Plan, cfg.Iters, cfg.Events = simplePlan(t, float64(tasks)), 1, obs.NewSink(&events)
		for i := range tasks {
			cfg.tasks = append(cfg.tasks, plan.TaskSpec{ID: i, Copies: 1})
		}
		sup, err := NewSupervisor(cfg)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { sup.Close() })
		return sup, &events
	}
	names := map[int]string{}
	join := func(sup *Supervisor, who string, cs *connState) Message {
		m := sup.register(Message{Type: MsgRegister, Name: who}, cs)
		names[m.ParticipantID] = who
		return m
	}
	lease := func(t *testing.T, sup *Supervisor, pid, want int, cs *connState) []outstandingKey {
		t.Helper()
		var keys []outstandingKey
		for _, w := range sup.leaseBatch(pid, want, false, cs, now).Work {
			keys = append(keys, outstandingKey{w.TaskID, w.Copy})
		}
		return keys
	}
	// eventsOf lists the named participant of every kind event so far,
	// after its reason when it has one, oldest first.
	eventsOf := func(t *testing.T, events *bytes.Buffer, kind string) string {
		t.Helper()
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
			if ev.Event == kind {
				got = append(got, strings.TrimPrefix(ev.Reason+":", ":")+names[ev.Participant])
			}
		}
		return strings.Join(got, " ")
	}

	t.Run("resume", func(t *testing.T) {
		sup, events := start(t, 4, SupervisorConfig{})
		c1, c2 := newConnState(nil), newConnState(nil)
		reg := join(sup, "p", c1)
		p := reg.ParticipantID
		held := lease(t, sup, p, 2, c1)
		if m := sup.register(Message{Type: MsgRegister, Resume: true, ParticipantID: p, Token: reg.Token}, c2); m.Type != MsgRegistered {
			t.Fatalf("p's resume: %+v", m)
		}
		// totals reads the re-sent, popped and disconnect-reclaimed copies
		// so far.
		totals := func() string {
			snap := sup.Metrics().Snapshot()
			resent, _ := snap.Value("redundancy_assignments_reissued_total")
			popped, _ := snap.Value("redundancy_assignments_issued_total")
			reclaimed, _ := snap.Value("redundancy_assignments_reclaimed_total", "disconnect")
			return fmt.Sprintf("re-sent %v popped %v reclaimed %v", resent, popped, reclaimed)
		}
		var got []string
		if keys := lease(t, sup, p, 1, c1); !slices.Equal(keys, held) {
			t.Errorf("p's lease over c1, which it left, sent %v, want its holds %v", keys, held)
		}
		got = append(got, "c1 lease: "+totals())
		sup.reclaim(c1)
		got = append(got, "c1 ends: "+totals())
		if keys := lease(t, sup, p, 1, c2); !slices.Equal(keys, held) {
			t.Errorf("p's lease over c2 sent %v, want its holds %v", keys, held)
		}
		got = append(got, "c2 lease: "+totals())
		sup.reclaim(c2)
		got = append(got, "c2 ends: "+totals())
		want := []string{
			"c1 lease: re-sent 2 popped 2 reclaimed 0",
			"c1 ends: re-sent 2 popped 2 reclaimed 0",
			"c2 lease: re-sent 4 popped 2 reclaimed 0",
			"c2 ends: re-sent 4 popped 2 reclaimed 2",
		}
		if !slices.Equal(got, want) {
			t.Errorf("steps:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
		}
		if !strings.Contains(events.String(), `"event":"worker_resumed","inflight":2,`) {
			t.Errorf("no worker_resumed with 2 in flight in %s", events)
		}
		sup.lease.mu.Lock()
		live, issued := sup.lease.live, sup.lease.queue.Issued()
		sup.lease.mu.Unlock()
		if live != 0 || issued != 0 {
			t.Errorf("after both ends %d records live and %d copies issued, want 0 and 0", live, issued)
		}
	})

	t.Run("shared connection", func(t *testing.T) {
		sup, events := start(t, 1, SupervisorConfig{
			Deadline: time.Hour, SpeculatePct: 0.5, Health: &health.Config{MinLatencySamples: 1},
		})
		cs := newConnState(nil)
		p, c := join(sup, "p", cs).ParticipantID, join(sup, "c", cs).ParticipantID
		key := lease(t, sup, p, 1, cs)
		sup.roster.ObserveCompletion(c, time.Millisecond)
		sup.sweepExpired(now.Add(time.Second))
		if clone := lease(t, sup, c, 1, cs); !slices.Equal(clone, key) {
			t.Fatalf("c leased %v, want the clone of %v", clone, key)
		}
		sup.reclaim(cs)
		sup.lease.mu.Lock()
		out, available := len(sup.leasesOf(key[0].task)), sup.lease.queue.Available()
		sup.lease.mu.Unlock()
		if out != 0 || !available {
			t.Errorf("after the connection ends %d records of the copy are out and the queue has it %v, want 0 and true", out, available)
		}
		if got := eventsOf(t, events, EvAssignmentReclaimed); got != "disconnect:c disconnect:p" {
			t.Errorf("assignment_reclaimed %q, want the clone's and then the primary's disconnect", got)
		}
	})

	t.Run("worker_left", func(t *testing.T) {
		sup, events := start(t, 1, SupervisorConfig{})
		c1, c2 := newConnState(nil), newConnState(nil)
		reg := join(sup, "p", c1)
		join(sup, "q", c1)
		sup.register(Message{Type: MsgRegister, Resume: true, ParticipantID: reg.ParticipantID, Token: reg.Token}, c2)
		sup.reclaim(c1)
		if got := eventsOf(t, events, EvWorkerLeft); got != "q" {
			t.Errorf("c1's end: worker_left for %q, want q alone", got)
		}
		sup.reclaim(c2)
		if got := eventsOf(t, events, EvWorkerLeft); got != "q p" {
			t.Errorf("c2's end: worker_left for %q, want q and then p", got)
		}
	})
}

// TestLeaseTableMatchesReference drives every writer of the lease table
// (issue, reissue, claim by primary and by clone, release for every
// reason, resume, disconnect, straggler flagging, clone serving, and a
// lease served over a connection its participant has since left) in a
// seeded random order over three connections and four participants,
// against a plain map from (task, copy) to its holders and a binding of
// each participant to its connection. Whenever the queue runs dry a
// revision mints ringers past the end of byTask, so the chains of grown
// task IDs are walked too. After every step the table must agree with the
// reference: every copy out is found with the same holders and nothing
// else is out, each participant's primary count and binding match, the
// flag count is the number of flagged copies, the pool accounts for every
// record, and every task chain is acyclic.
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
	connOf := map[int]int{1: 0, 2: 1, 3: 2, 4: 0} // -1: unbound, its connection ended
	// join registers pid on connection c, as a resume does.
	join := func(pid, c int) (holds int) {
		conns[c].names[pid] = ""
		connOf[pid] = c
		return sup.bind(pid, conns[c])
	}
	for pid, c := range connOf {
		join(pid, c)
	}
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
		primaries, flagged := map[int]int{}, 0
		for k, want := range ref {
			primaries[want.primary.pid]++
			if want.clone != nil && want.clone.pid == 0 {
				flagged++
			}
			i := sup.findLocked(k)
			if i < 0 {
				fail("copy %v is out but not found", k)
			}
			rec := &l.recs[i]
			if rec.a != want.a || rec.primary.participant != want.primary.pid || !rec.primary.issuedAt.Equal(want.primary.at) {
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
				if !rec.clone.live() || rec.clone.participant != want.clone.pid || !rec.clone.issuedAt.Equal(want.clone.at) {
					fail("copy %v: clone %v, want participant %d since %v", k, rec.clone, want.clone.pid, want.clone.at)
				}
			}
		}
		for pid, c := range connOf {
			if n := int(l.primaries[pid]); n != primaries[pid] {
				fail("participant %d counts %d primaries, holds %d", pid, n, primaries[pid])
			}
			if cs, bound := l.conns[pid]; c < 0 && bound || c >= 0 && cs != conns[c] {
				fail("participant %d is bound %v, want connection %d", pid, bound, c)
			}
		}
		if l.flagged != flagged {
			fail("%d flags counted, %d copies flagged", l.flagged, flagged)
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

	revisions, resent := 0, 0
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
				sup.issueLocked(a, pid, now)
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
		case roll < 68:
			op = "resume"
			want := 0
			for _, c := range ref {
				if c.primary.pid == pid || liveClone(c) && c.clone.pid == pid {
					want++
				}
			}
			sup.lease.mu.Unlock()
			holds := join(pid, r.Intn(len(conns)))
			sup.lease.mu.Lock()
			if holds != want {
				t.Fatalf("step %d: participant %d resumed holding %d copies, want %d", step, pid, holds, want)
			}
		case roll < 70:
			op = "lease over a connection left"
			c := r.Intn(len(conns))
			if c == connOf[pid] {
				c = (c + 1) % len(conns)
			}
			var want []outstandingKey
			for _, k := range ks {
				if ref[k].primary.pid == pid {
					want = append(want, k)
					ref[k].primary.at = now
				}
			}
			sup.lease.mu.Unlock()
			m := sup.leaseBatch(pid, 1+r.Intn(4), false, conns[c], now)
			sup.lease.mu.Lock()
			var got []outstandingKey
			for _, w := range m.Work {
				got = append(got, outstandingKey{w.TaskID, w.Copy})
			}
			slices.SortFunc(got, func(a, b outstandingKey) int {
				if a.task != b.task {
					return a.task - b.task
				}
				return a.copy - b.copy
			})
			if wantType := map[bool]string{true: MsgNoWork, false: MsgWorkBatch}[len(want) == 0]; m.Type != wantType || !slices.Equal(got, want) {
				t.Fatalf("step %d: participant %d's lease over connection %d: %s %v, want %s %v", step, pid, c, m.Type, got, wantType, want)
			}
			resent += len(got)
		case roll < 73:
			op = "disconnect"
			gone := r.Intn(len(conns))
			for _, k := range ks {
				c := ref[k]
				if liveClone(c) && connOf[c.clone.pid] == gone {
					c.clone = nil
				}
				if connOf[c.primary.pid] == gone {
					release(k, c.primary.pid)
				}
			}
			sup.lease.mu.Unlock()
			sup.reclaim(conns[gone])
			sup.lease.mu.Lock()
			conns[gone] = newConnState(nil) // an ended connection serves no more
			for p, c := range connOf {
				if c == gone {
					connOf[p] = -1
				}
			}
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
			issued := sup.fillSpeculativeLocked(pid, want, &items, now)
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
	if resent == 0 {
		t.Fatal("no lease over a connection left re-sent a hold")
	}
}

// TestLeaseCycleAllocFree: once the record pool and its free list have
// reached a lease's size, issuing and claiming a 64-copy lease allocates
// nothing.
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
	now := time.Now()
	cycle := func() {
		for _, a := range lease {
			sup.issueLocked(a, 1, now)
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
