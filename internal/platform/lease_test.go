package platform

import (
	"bytes"
	"cmp"
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
)

// outstandingKey identifies one issued copy by task and copy.
type outstandingKey struct{ task, copy int }

// workKeys lists the copies of a lease reply, in its order.
func workKeys(m Message) []outstandingKey {
	var keys []outstandingKey
	for _, w := range m.Work {
		keys = append(keys, outstandingKey{w.TaskID, w.Copy})
	}
	return keys
}

// TestLeaseRelease walks every way a hold ends without a result
// (disconnect, deadline, quarantine) for each holder of a copy (its primary
// p, its clone c) against each state of the other holder (none, live, or
// past its deadline; a clone never exists without its primary, so the
// clone rows start at live), on a supervisor with one single-copy task and
// no goroutines: the sweeper is called by hand at a chosen now, and a hold
// past its deadline there is leased two hours before it. A quarantine is a
// suspect verdict and the sweep that follows it, as in production, so that
// sweep also reclaims an expired other holder. After the cause, after the
// sweep that follows it, and after the end of the same holder's holds
// again, it checks who holds the copy, the queue, reclaimed{reason}, the
// assignment_reclaimed events and the deadline-failure evidence.
func TestLeaseRelease(t *testing.T) {
	type state struct {
		holds    string // "p", "c", "p+c" (both), or "" when the copy is back in the queue
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
				Plan: simplePlan(t, 1), runs: []plan.Run{{First: 0, Count: 1, Copies: 1}}, Iters: 1,
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
			// issuedAt is when who leases: two hours back for a hold past
			// its deadline at the cause.
			issuedAt := func(who string) time.Time {
				if who == tc.holder && tc.cause == "deadline" || who != tc.holder && tc.other == "expired" {
					return now.Add(-2 * time.Hour)
				}
				return now
			}
			lease := func(who string) outstandingKey {
				t.Helper()
				m := sup.leaseBatch(pids[who], 1, false, conns[who], issuedAt(who))
				if m.Type != MsgWorkBatch || len(m.Work) != 1 {
					t.Fatalf("%s's lease: %+v", who, m)
				}
				return outstandingKey{m.Work[0].TaskID, m.Work[0].Copy}
			}

			key := lease("p")
			if tc.other != "none" {
				// A straggling primary: the sweep a second after its lease
				// flags it, and c's next lease is its clone.
				sup.roster.ObserveCompletion(pids["c"], time.Millisecond)
				sup.sweepExpired(issuedAt("p").Add(time.Second))
				if clone := lease("c"); clone != key {
					t.Fatalf("c leased %v, want the clone of %v", clone, key)
				}
			}

			check := func(step string, want state) {
				t.Helper()
				sup.stateMu.Lock()
				var holders []string
				for _, who := range []string{"p", "c"} {
					if sup.lease.Holds(pids[who]) > 0 {
						holders = append(holders, who)
					}
				}
				holds := strings.Join(holders, "+")
				issued, available := sup.lease.Queue().Issued(), sup.lease.Queue().Available()
				sup.stateMu.Unlock()
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
				sup.sweepExpired(now)
			case "quarantine":
				sup.pushTransition(*sup.roster.ObserveVerdict(pids[tc.holder], true, false, now))
				sup.sweepExpired(now)
			}
			check(tc.cause, tc.after[0])
			sup.sweepExpired(now)
			check("sweep", tc.after[1])
			// The hold has ended; ending the holder's holds again, as a
			// racing second cause would, changes nothing.
			sup.stateMu.Lock()
			sup.lease.EndHolds(func(pid int) bool { return pid == pids[tc.holder] }, tc.cause)
			sup.stateMu.Unlock()
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
// one: d leased both two hours back and then re-sent the earlier one, as
// a request_work reply does. h, healthy, keeps the primary v was racing.
// o, reclaimed at the previous sweep and quarantined still, is not
// counted again. A supervisor with SpeculatePct and no Health never
// reclaims as quarantine, whatever its roster says.
func TestSweepReclaimsQuarantined(t *testing.T) {
	tasks := []plan.Run{{First: 0, Count: 5, Copies: 1}}
	newSup := func(hc *health.Config) *Supervisor {
		sup, err := NewSupervisor(SupervisorConfig{
			Plan: simplePlan(t, 5), runs: tasks, Iters: 1,
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
	lease := func(sup *Supervisor, pid int, cs *connState, want int, at time.Time) []outstandingKey {
		t.Helper()
		m := sup.leaseBatch(pid, want, false, cs, at)
		if m.Type != MsgWorkBatch || len(m.Work) != want {
			t.Fatalf("participant %d's lease of %d: %+v", pid, want, m)
		}
		return workKeys(m)
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
	hKey := lease(sup, h, hc, 1, now)[0]
	sup.roster.ObserveCompletion(h, time.Millisecond)
	sup.sweepExpired(now.Add(time.Second))
	if vKeys := lease(sup, v, vc, 2, now); vKeys[0] != hKey {
		t.Fatalf("v leased %v, want the clone of %v first", vKeys, hKey)
	}
	lease(sup, o, oc, 1, now)
	sup.pushTransition(*sup.roster.ObserveVerdict(o, true, false, now))
	sup.sweepExpired(now)
	if n := quarantines(sup); n != 1 {
		t.Fatalf("the sweep after o's quarantine reclaimed %d holds as quarantine, want 1", n)
	}

	// d's later record expires, and v was quarantined by a verdict a
	// minute ago, past its 10 s probation.
	dKeys := lease(sup, d, dc, 2, now.Add(-2*time.Hour))
	if m := sup.leaseBatch(d, 1, true, dc, now); !slices.Equal(workKeys(m), dKeys[:1]) {
		t.Fatalf("d's request_work re-sent %+v, want %v", m, dKeys[0])
	}
	sup.pushTransition(*sup.roster.ObserveVerdict(v, true, false, now.Add(-time.Minute)))
	sup.sweepExpired(now)

	sup.stateMu.Lock()
	live := sup.lease.Live()
	holds := map[string]int{}
	for pid, name := range names {
		holds[name] = sup.lease.Holds(pid)
	}
	sup.stateMu.Unlock()
	if live != 1 || holds["h"] != 1 || holds["v"]+holds["d"]+holds["o"] != 0 {
		t.Errorf("after the sweep %d copies are out, held %v, want h's %v alone", live, holds, hKey)
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
	lease(sup, x, xc, 1, now)
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
	sup.stateMu.Lock()
	if held := sup.lease.Holds(x); held != 1 {
		t.Errorf("x holds %d copies after the sweep, want 1", held)
	}
	sup.stateMu.Unlock()
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
// reference: the three operations of the lease table's shell that need a
// connection (a resume, a lease over a connection its participant has
// left, and a disconnect), with fresh leases between them, in a seeded
// random order over three connections and four participants, against each
// participant's set of holds and its binding.
func TestHoldsFollowTheirParticipant(t *testing.T) {
	now := time.Now()
	start := func(t *testing.T, tasks int, cfg SupervisorConfig) (*Supervisor, *bytes.Buffer) {
		t.Helper()
		var events bytes.Buffer
		cfg.Plan, cfg.Iters, cfg.Events = simplePlan(t, float64(tasks)), 1, obs.NewSink(&events)
		cfg.runs = []plan.Run{{First: 0, Count: tasks, Copies: 1}}
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
		return workKeys(sup.leaseBatch(pid, want, false, cs, now))
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
		sup.stateMu.Lock()
		live, issued := sup.lease.Live(), sup.lease.Queue().Issued()
		sup.stateMu.Unlock()
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
		sup.stateMu.Lock()
		out, available := sup.lease.Live(), sup.lease.Queue().Available()
		sup.stateMu.Unlock()
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

	t.Run("reference", func(t *testing.T) {
		sup, _ := start(t, 60, SupervisorConfig{})
		conns := []*connState{newConnState(nil), newConnState(nil), newConnState(nil)}
		connOf := map[int]int{} // -1: unbound, its connection ended
		held := map[int][]outstandingKey{}
		// join registers pid on connection c, as a resume does.
		join := func(pid, c int) (holds int) {
			conns[c].names[pid] = ""
			connOf[pid] = c
			holds, _ = sup.bind(pid, conns[c])
			return holds
		}
		for pid := 1; pid <= 4; pid++ {
			join(pid, pid%len(conns))
		}
		sameSet := func(a, b []outstandingKey) bool {
			byKey := func(x, y outstandingKey) int { return cmp.Or(x.task-y.task, x.copy-y.copy) }
			a, b = slices.Clone(a), slices.Clone(b)
			slices.SortFunc(a, byKey)
			slices.SortFunc(b, byKey)
			return slices.Equal(a, b)
		}
		r := rng.New(11)
		resent := 0
		for step := 0; step < 400; step++ {
			pid := 1 + r.Intn(4)
			var op string
			switch roll := r.Intn(10); {
			case roll < 4:
				op = "lease"
				c := connOf[pid]
				if c < 0 || len(held[pid]) == 0 && !sup.lease.Queue().Available() {
					break // an unbound participant has no connection, and an empty-handed one would park
				}
				got, n := workKeys(sup.leaseBatch(pid, 1+r.Intn(4), false, conns[c], now)), len(held[pid])
				if len(got) < n || !sameSet(got[:n], held[pid]) {
					t.Fatalf("step %d: participant %d's lease sent %v, want its holds %v first", step, pid, got, held[pid])
				}
				held[pid] = got
			case roll < 6:
				op = "resume"
				if holds := join(pid, r.Intn(len(conns))); holds != len(held[pid]) {
					t.Fatalf("step %d: participant %d resumed holding %d copies, want %d", step, pid, holds, len(held[pid]))
				}
			case roll < 8:
				op = "lease over a connection left"
				c := r.Intn(len(conns))
				if c == connOf[pid] {
					c = (c + 1) % len(conns)
				}
				m := sup.leaseBatch(pid, 1+r.Intn(4), false, conns[c], now)
				wantType := map[bool]string{true: MsgNoWork, false: MsgWorkBatch}[len(held[pid]) == 0]
				if got := workKeys(m); m.Type != wantType || !sameSet(got, held[pid]) {
					t.Fatalf("step %d: participant %d's lease over connection %d: %s %v, want %s %v", step, pid, c, m.Type, got, wantType, held[pid])
				}
				resent += len(m.Work)
			default:
				op = "disconnect"
				gone := r.Intn(len(conns))
				sup.reclaim(conns[gone])
				conns[gone] = newConnState(nil) // an ended connection serves no more
				for p, c := range connOf {
					if c == gone {
						connOf[p] = -1
						delete(held, p)
					}
				}
			}
			sup.stateMu.Lock()
			out := 0
			for pid, c := range connOf {
				out += len(held[pid])
				if n := sup.lease.Holds(pid); n != len(held[pid]) {
					t.Fatalf("step %d (%s): participant %d holds %d copies, want %d", step, op, pid, n, len(held[pid]))
				}
				if cs, bound := sup.lease.conns[pid]; c < 0 && bound || c >= 0 && cs != conns[c] {
					t.Fatalf("step %d (%s): participant %d is bound %v, want connection %d", step, op, pid, bound, c)
				}
			}
			if live, issued := sup.lease.Live(), sup.lease.Queue().Outstanding(); live != out || issued != out {
				t.Fatalf("step %d (%s): %d records live and %d copies issued, want %d", step, op, live, issued, out)
			}
			sup.stateMu.Unlock()
		}
		if resent == 0 {
			t.Fatal("no lease over a connection left re-sent a hold")
		}
	})
}
