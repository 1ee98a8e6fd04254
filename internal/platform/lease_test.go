package platform

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"

	"redundancy/internal/health"
	"redundancy/internal/obs"
	"redundancy/internal/plan"
)

// TestLeaseRelease walks every way a hold ends without a result
// (disconnect, deadline, quarantine) for each holder of a copy (its primary
// p, its clone c) against each state of the other holder (none, live, or
// past its deadline; a clone never exists without its primary, so the
// clone rows start at live), on a supervisor with one single-copy task and no
// goroutines: time is moved by backdating issue times and the sweeper is
// called by hand. After the cause, after the sweep that follows it, and
// after a second release of the same hold, it checks who holds the copy,
// the connection index, the queue, reclaimed{reason}, the
// assignment_reclaimed events and the deadline-failure evidence.
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
		{"quarantine", "p", "expired", [2]state{{"c", "quarantine:p", ""}, {"", "quarantine:p deadline:c", "c"}}},
		{"quarantine", "c", "live", [2]state{{"p", "quarantine:c", ""}, {"p", "quarantine:c", ""}}},
		{"quarantine", "c", "expired", [2]state{{"p", "quarantine:c", ""}, {"", "quarantine:c deadline:p", "p"}}},
	}
	for _, tc := range cases {
		t.Run(tc.cause+"/"+tc.holder+"/other-"+tc.other, func(t *testing.T) {
			var events bytes.Buffer
			reg := obs.NewRegistry()
			sup, err := NewSupervisor(SupervisorConfig{
				Plan: simplePlan(t, 1), Tasks: []plan.TaskSpec{{ID: 0, Copies: 1}}, Iters: 1,
				Deadline: time.Hour, SpeculatePct: 0.5,
				// One latency sample arms speculation, and one deadline or
				// speculative drop quarantines its holder, who by then holds
				// nothing more for the quarantine to reclaim.
				Health:  &health.Config{MinLatencySamples: 1, MinEvents: 1},
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
			lease := func(who string) outstandingKey {
				t.Helper()
				m := sup.leaseBatch(pids[who], 1, false, conns[who])
				if m.Type != MsgWorkBatch || len(m.Work) != 1 {
					t.Fatalf("%s's lease: %+v", who, m)
				}
				return outstandingKey{m.Work[0].TaskID, m.Work[0].Copy}
			}
			// age moves who's hold on the copy back by d.
			age := func(key outstandingKey, who string, d time.Duration) {
				sup.lease.mu.Lock()
				defer sup.lease.mu.Unlock()
				r := sup.lease.table[key]
				if r.clone.live() && r.clone.participant == pids[who] {
					r.clone.issuedAt = r.clone.issuedAt.Add(-d)
				} else {
					r.primary.issuedAt = r.primary.issuedAt.Add(-d)
				}
				sup.lease.table[key] = r
			}

			key := lease("p")
			if tc.other != "none" {
				// A straggling primary: the sweep flags it, and c's next
				// lease is its clone.
				sup.roster.ObserveCompletion(pids["c"], time.Millisecond)
				age(key, "p", time.Second)
				sup.sweepExpired()
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
				r, ok := sup.lease.table[key]
				holds := ""
				if ok {
					holds = names[r.primary.participant]
					if r.clone.live() {
						holds += "+" + names[r.clone.participant]
					}
				}
				for who, cs := range conns {
					_, indexed := cs.held[key]
					if owns := ok && r.primary.owner == cs; indexed != owns {
						t.Errorf("%s: %s's connection indexes the copy %v, owns its primary %v", step, who, indexed, owns)
					}
				}
				issued, available := sup.lease.queue.Issued(), sup.lease.queue.Available()
				sup.lease.mu.Unlock()
				if holds != want.holds {
					t.Errorf("%s: copy held by %q, want %q", step, holds, want.holds)
				}
				out, wantIssued := want.holds != "", 0
				if out {
					wantIssued = 1
				}
				if issued != wantIssued || available == out {
					t.Errorf("%s: queue issued %d available %v, want %d and %v", step, issued, available, wantIssued, !out)
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
				sup.sweepExpired()
			case "quarantine":
				sup.lease.mu.Lock()
				sup.reclaimParticipantLocked(pids[tc.holder])
				sup.lease.mu.Unlock()
			}
			check(tc.cause, tc.after[0])
			sup.sweepExpired()
			check("sweep", tc.after[1])
			// The hold has ended; releasing it again, as a racing second
			// cause would, changes nothing.
			sup.lease.mu.Lock()
			sup.releaseLocked(key, pids[tc.holder], tc.cause, time.Now())
			sup.lease.mu.Unlock()
			check("second release", tc.after[1])
		})
	}
}
