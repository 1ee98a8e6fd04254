package platform

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"redundancy/internal/adapt"
	"redundancy/internal/dist"
	"redundancy/internal/faults"
	"redundancy/internal/health"
	"redundancy/internal/obs"
	"redundancy/internal/plan"
)

// metricValue polls reg until the named series reaches want or the timeout
// expires, returning the last observed value.
func metricValue(reg *obs.Registry, name string, labels ...string) float64 {
	v, _ := reg.Snapshot().Value(name, labels...)
	return v
}

func waitMetric(t *testing.T, reg *obs.Registry, want float64, timeout time.Duration, name string, labels ...string) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		if v := metricValue(reg, name, labels...); v >= want {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%s%v never reached %v (at %v)", name, labels, want, metricValue(reg, name, labels...))
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// honestValue computes the true answer for a task the way a worker would.
func honestValue(t *testing.T, kind string, taskID, iters int) uint64 {
	t.Helper()
	fn, err := Work(kind)
	if err != nil {
		t.Fatal(err)
	}
	return fn(TaskSeed(taskID), iters)
}

// TestSpeculativeFirstResultWins drives the speculative tier by hand: a
// straggler leases one copy and sits on it, a fast participant completes
// everything else (feeding the latency roster), the sweeper flags the
// stuck lease, the fast participant receives the clone and wins the race,
// and the straggler's eventual submission is rejected as a duplicate —
// credited exactly once, end to end. The clone is served by the lease
// core, so a request_work requester wins it exactly as a get_work one.
func TestSpeculativeFirstResultWins(t *testing.T) {
	for _, v := range bothVerbs {
		t.Run(string(v), func(t *testing.T) { testSpeculativeFirstResultWins(t, v) })
	}
}

func testSpeculativeFirstResultWins(t *testing.T, v verbs) {
	p, err := plan.FromDistribution(dist.Simple(40), 0.5)
	if err != nil {
		t.Fatal(err)
	}
	var events syncBuffer // read while the supervisor can still emit (worker_left at cleanup)
	reg := obs.NewRegistry()
	sup, err := NewSupervisor(SupervisorConfig{
		Plan: p, WorkKind: "hashchain", Iters: 10, Seed: 3,
		Deadline: 4 * time.Second, SpeculatePct: 0.9,
		Metrics: reg, Events: obs.NewSink(&events),
	})
	if err != nil {
		t.Fatal(err)
	}
	addr, err := sup.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sup.Close() })

	// The straggler leases one copy and goes quiet.
	_, slow := dialCodec(t, addr)
	w1 := roundTrip(t, slow, Message{Type: MsgRegister, Name: "straggler"})
	if w1.Type != MsgRegistered {
		t.Fatalf("register: %+v", w1)
	}
	slowID := w1.ParticipantID
	lease := v.lease(t, slow, slowID, 1)
	if lease.Type != MsgWorkBatch || len(lease.Work) != 1 {
		t.Fatalf("lease: %+v", lease)
	}
	stuck := lease.Work[0]

	// The fast participant drains the pool, populating the
	// completion-latency sample window past MinLatencySamples. Once the
	// sweeper flags the straggler's lease, a lease will carry the
	// speculative clone of exactly that stuck copy — parked requests wake
	// on the flagging sweep, so the clone simply shows up inside the
	// ordinary lease loop.
	_, fast := dialCodec(t, addr)
	w2 := roundTrip(t, fast, Message{Type: MsgRegister, Name: "fast"})
	fastID := w2.ParticipantID
	completed := 0
	var clone *WorkItem
	deadline := time.Now().Add(30 * time.Second)
	for clone == nil {
		if time.Now().After(deadline) {
			t.Fatalf("speculative clone never issued (completed %d, spec metric %v)",
				completed, metricValue(reg, "redundancy_speculative_issued_total"))
		}
		m := v.lease(t, fast, fastID, 8)
		if m.Type != MsgWorkBatch {
			time.Sleep(10 * time.Millisecond)
			continue
		}
		results := make([]ResultItem, 0, len(m.Work))
		for _, it := range m.Work {
			it := it
			if it.TaskID == stuck.TaskID && it.Copy == stuck.Copy {
				clone = &it // the speculative duplicate of the stuck lease
				continue
			}
			results = append(results, ResultItem{
				TaskID: it.TaskID, Copy: it.Copy,
				Value: honestValue(t, m.Kind, it.TaskID, m.Iters),
			})
		}
		if len(results) == 0 {
			continue // the lease was the clone alone
		}
		for _, a := range v.submit(t, fast, fastID, results) {
			if !a.OK {
				t.Fatalf("fast result refused: %+v", a)
			}
			completed++
		}
	}
	if completed < 20 {
		t.Fatalf("clone issued after only %d completions; the quantile gate should need 20 samples", completed)
	}
	if n := metricValue(reg, "redundancy_speculative_issued_total"); n != 1 {
		t.Errorf("speculative_issued = %v, want 1", n)
	}

	// The clone wins the race...
	if ack := v.submit(t, fast, fastID, []ResultItem{{
		TaskID: clone.TaskID, Copy: clone.Copy,
		Value: honestValue(t, "hashchain", clone.TaskID, 10),
	}})[0]; !ack.OK {
		t.Fatalf("clone result rejected: %+v", ack)
	}
	if n := metricValue(reg, "redundancy_speculative_wins_total"); n != 1 {
		t.Errorf("speculative_wins = %v, want 1", n)
	}

	// ...and the straggler's late submission is adjudicated exactly once:
	// rejected as a duplicate, never double-credited.
	if late := v.submit(t, slow, slowID, []ResultItem{{
		TaskID: stuck.TaskID, Copy: stuck.Copy,
		Value: honestValue(t, "hashchain", stuck.TaskID, 10),
	}})[0]; late.OK || late.Reason != ReasonDuplicate {
		t.Fatalf("loser's submission got %+v, want %s", late, ReasonDuplicate)
	}
	if n := metricValue(reg, "redundancy_speculative_wasted_total"); n != 1 {
		t.Errorf("speculative_wasted = %v, want 1", n)
	}

	// Finish whatever the pool still holds (the clone may have arrived
	// before the drain completed).
	drainRoundRobin(t, v, 8, []*Codec{fast}, []int{fastID}, []CheatFunc{nil})

	sup.Wait()
	sum := sup.Summary()
	if sum.Verify.Accepted != p.N {
		t.Errorf("certified %d of %d", sum.Verify.Accepted, p.N)
	}
	total := 0
	for _, e := range sum.Credits {
		total += e.Credit
		if e.Participant == slowID && e.Credit != 0 {
			t.Errorf("race loser holds %d credits, want 0", e.Credit)
		}
	}
	if total != p.TotalAssignments() {
		t.Errorf("total credit %d, want %d (double or lost credit)", total, p.TotalAssignments())
	}
	if !strings.Contains(events.String(), `"event":"assignment_speculated"`) {
		t.Error("no assignment_speculated event emitted")
	}
}

// TestDisconnectDeadlineReclaimOverlap is the regression test for the two
// reclaim paths racing over one lease: a copy reclaimed by the deadline
// sweeper must not be reclaimed again when its holder's connection dies,
// and vice versa. Each direction must count — and reissue — exactly once,
// or queue accounting corrupts and the run never completes.
func TestDisconnectDeadlineReclaimOverlap(t *testing.T) {
	p, err := plan.FromDistribution(dist.Simple(5), 0.5)
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	sup, err := NewSupervisor(SupervisorConfig{
		Plan: p, WorkKind: "hashchain", Iters: 10, Seed: 1,
		Deadline: 150 * time.Millisecond, Metrics: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	addr, err := sup.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sup.Close() })

	// Direction 1: deadline fires first, then the connection dies. The
	// disconnect must find nothing left to reclaim.
	conn1, c1 := dialCodec(t, addr)
	r1 := roundTrip(t, c1, Message{Type: MsgRegister, Name: "d1"})
	if w := roundTrip(t, c1, Message{Type: MsgRequestWork, ParticipantID: r1.ParticipantID}); w.Type != MsgWork {
		t.Fatalf("lease: %+v", w)
	}
	waitMetric(t, reg, 1, 3*time.Second, "redundancy_assignments_reclaimed_total", "deadline")
	conn1.Close()
	time.Sleep(100 * time.Millisecond) // let the serve goroutine run its reclaim
	if v := metricValue(reg, "redundancy_assignments_reclaimed_total", "disconnect"); v != 0 {
		t.Fatalf("deadline-swept lease reclaimed again on disconnect (%v times)", v)
	}

	// Direction 2: the connection dies first, then the deadline passes.
	// The sweeper must find nothing left to reclaim.
	conn2, c2 := dialCodec(t, addr)
	r2 := roundTrip(t, c2, Message{Type: MsgRegister, Name: "d2"})
	if w := roundTrip(t, c2, Message{Type: MsgRequestWork, ParticipantID: r2.ParticipantID}); w.Type != MsgWork {
		t.Fatalf("lease: %+v", w)
	}
	conn2.Close()
	waitMetric(t, reg, 1, 3*time.Second, "redundancy_assignments_reclaimed_total", "disconnect")
	time.Sleep(400 * time.Millisecond) // several sweeps past the lease's deadline
	if v := metricValue(reg, "redundancy_assignments_reclaimed_total", "deadline"); v != 1 {
		t.Fatalf("disconnect-reclaimed lease reclaimed again by the sweeper (deadline count %v)", v)
	}

	// An honest worker finishes the computation; exact accounting proves
	// neither copy was double-queued or lost.
	if _, err := RunWorker(WorkerConfig{Addr: addr, Name: "finisher"}); err != nil {
		t.Fatal(err)
	}
	sup.Wait()
	sum := sup.Summary()
	if sum.Verify.Accepted != p.N {
		t.Errorf("certified %d of %d", sum.Verify.Accepted, p.N)
	}
	total := 0
	for _, e := range sum.Credits {
		total += e.Credit
	}
	if total != p.TotalAssignments() {
		t.Errorf("total credit %d, want %d", total, p.TotalAssignments())
	}
	// 5 first issues + exactly one reissue per reclaimed copy.
	if v := metricValue(reg, "redundancy_assignments_issued_total"); v != float64(p.TotalAssignments()+2) {
		t.Errorf("assignments issued %v, want %d (each reclaimed copy reissued exactly once)",
			v, p.TotalAssignments()+2)
	}
}

// quarantinePlan builds a small plan whose regular tasks have multiplicity
// 3 and 4 (so a lone cheater is always the strict-majority suspect, never
// an even split) plus ringers for the probation diet: 6 tasks @3, 16 tail
// tasks @4, 4 ringers @5.
func quarantinePlan(t *testing.T) *plan.Plan {
	t.Helper()
	d := &dist.Distribution{}
	d.SetCount(3, 6)
	for i := 4; i <= 23; i++ {
		d.SetCount(i, 0.8)
	}
	p, err := plan.FromDistribution(d, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if p.TailMultiplicity != 4 || p.Ringers < 4 {
		t.Fatalf("plan shape drifted: tail mult %d, %d ringers", p.TailMultiplicity, p.Ringers)
	}
	return p
}

// TestQuarantineLifecycle walks a cheating participant through the whole
// health arc: circumstantial suspect verdicts accumulate to quarantine
// (regular leases refused, the outstanding lease reclaimed within one
// sweep), the probation clock re-admits it to ringer-only work, and a
// clean ringer streak restores full standing — with the event and metric
// trail proving every step. The probation diet is served by the lease
// core, so the probationer is fed ringers whichever verb it asks with.
func TestQuarantineLifecycle(t *testing.T) {
	for _, v := range bothVerbs {
		t.Run(string(v), func(t *testing.T) { testQuarantineLifecycle(t, v) })
	}
}

func testQuarantineLifecycle(t *testing.T, v verbs) {
	p := quarantinePlan(t)
	var mu sync.Mutex
	var events bytes.Buffer
	reg := obs.NewRegistry()
	sup, err := NewSupervisor(SupervisorConfig{
		Plan: p, WorkKind: "hashchain", Iters: 10, Seed: 5,
		Metrics: reg, Events: obs.NewSink(&syncWriter{mu: &mu, w: &events}),
		Health: &health.Config{
			SuspectLimit: 3, Probation: 400 * time.Millisecond, ProbationRingers: 2,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	addr, err := sup.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sup.Close() })

	// Four manual participants: one future cheater, three honest.
	reg4 := func(name string) (net.Conn, *Codec, int) {
		conn, c := dialCodec(t, addr)
		w := roundTrip(t, c, Message{Type: MsgRegister, Name: name})
		if w.Type != MsgRegistered {
			t.Fatalf("register %s: %+v", name, w)
		}
		return conn, c, w.ParticipantID
	}
	_, mc, mID := reg4("mallory")
	var honestConn [3]net.Conn
	var honest [3]*Codec
	var honestID [3]int
	for i := range honest {
		honestConn[i], honest[i], honestID[i] = reg4(fmt.Sprintf("honest-%d", i))
	}

	// Phase 1: everyone batch-leases a slice of the pool.
	type copyKey struct{ task, copy int }
	mHeld := map[copyKey]bool{}
	mPerTask := map[int]int{}
	mb := roundTrip(t, mc, Message{Type: MsgGetWork, ParticipantID: mID, Batch: 8})
	if mb.Type != MsgWorkBatch || len(mb.Work) != 8 {
		t.Fatalf("cheater batch lease: %+v", mb)
	}
	for _, it := range mb.Work {
		mHeld[copyKey{it.TaskID, it.Copy}] = true
		mPerTask[it.TaskID]++
	}
	type heldItem struct {
		task, copy int
	}
	var hHeld [3][]heldItem
	for i := range honest {
		hb := roundTrip(t, honest[i], Message{Type: MsgGetWork, ParticipantID: honestID[i], Batch: 4})
		if hb.Type != MsgWorkBatch {
			t.Fatalf("honest %d batch lease: %+v", i, hb)
		}
		for _, it := range hb.Work {
			hHeld[i] = append(hHeld[i], heldItem{it.TaskID, it.Copy})
		}
	}

	// The cheater corrupts exactly SuspectLimit regular tasks where it
	// holds exactly one copy (so the honest majority always outs it, and
	// no suspect verdict can land after probation begins and knock it back
	// into quarantine), answers everything else honestly, and keeps one
	// lease outstanding so the quarantine reclaim has something to take
	// back. Sort the held set so the outstanding pick and the cheat
	// choices are deterministic.
	held := make([]copyKey, 0, len(mHeld))
	for k := range mHeld {
		held = append(held, k)
	}
	sort.Slice(held, func(i, j int) bool {
		if held[i].task != held[j].task {
			return held[i].task < held[j].task
		}
		return held[i].copy < held[j].copy
	})
	// Outstanding: prefer a copy the cheat rule would skip anyway (a
	// ringer or a doubled-up task) so it never costs us a cheat slot.
	outIdx := 0
	for i, k := range held {
		if k.task >= p.N || mPerTask[k.task] > 1 {
			outIdx = i
			break
		}
	}
	cheatedTasks := 0
	for i, k := range held {
		if i == outIdx {
			continue
		}
		v := honestValue(t, "hashchain", k.task, 10)
		if k.task < p.N && mPerTask[k.task] == 1 && cheatedTasks < 3 {
			v ^= 0xDEADBEEFCAFEBABE
			cheatedTasks++
		}
		ack := roundTrip(t, mc, Message{Type: MsgResult, ParticipantID: mID, TaskID: k.task, Copy: k.copy, Value: v})
		if ack.Type != MsgAck {
			t.Fatalf("cheater submission refused: %+v", ack)
		}
	}
	if cheatedTasks < 3 {
		t.Fatalf("only %d singleton tasks cheated on; raise the lease count (need >= SuspectLimit 3)", cheatedTasks)
	}
	for i := range honest {
		for _, h := range hHeld[i] {
			ack := roundTrip(t, honest[i], Message{
				Type: MsgResult, ParticipantID: honestID[i],
				TaskID: h.task, Copy: h.copy, Value: honestValue(t, "hashchain", h.task, 10),
			})
			if ack.Type != MsgAck {
				t.Fatalf("honest submission refused: %+v", ack)
			}
		}
	}

	// Phase 2: honest participants batch-lease the rest of the pool,
	// submitting regular copies but holding every ringer copy they draw,
	// so the cheated tasks adjudicate (firing quarantine) while a reserve
	// of ringer work survives for the probation diet. Their held ringer
	// copies requeue when they disconnect below.
	var hSeen [3]map[copyKey]bool
	for i := range hSeen {
		hSeen[i] = map[copyKey]bool{}
	}
	deadline := time.Now().Add(30 * time.Second)
	for metricValue(reg, "redundancy_quarantines_entered_total") < 1 {
		if time.Now().After(deadline) {
			t.Fatalf("quarantine never fired (suspect verdicts incomplete?)")
		}
		progressed := false
		for i := range honest {
			m := roundTrip(t, honest[i], Message{Type: MsgGetWork, ParticipantID: honestID[i], Batch: 16})
			if m.Type != MsgWorkBatch {
				continue
			}
			for _, it := range m.Work {
				k := copyKey{it.TaskID, it.Copy}
				if hSeen[i][k] {
					continue // a held ringer copy re-issued by get_work
				}
				hSeen[i][k] = true
				progressed = true
				if it.TaskID >= p.N {
					continue // hold ringer copies back for probation
				}
				ack := roundTrip(t, honest[i], Message{
					Type: MsgResult, ParticipantID: honestID[i],
					TaskID: it.TaskID, Copy: it.Copy, Value: honestValue(t, "hashchain", it.TaskID, 10),
				})
				if ack.Type != MsgAck {
					t.Fatalf("honest submission refused: %+v", ack)
				}
			}
		}
		if !progressed {
			time.Sleep(10 * time.Millisecond)
		}
	}

	// Quarantined: no new leases on either path, and the outstanding lease
	// is reclaimed within a sweep.
	if m := roundTrip(t, mc, Message{Type: MsgRequestWork, ParticipantID: mID}); m.Type != MsgNoWork {
		t.Fatalf("quarantined participant leased regular work: %+v", m)
	}
	if m := roundTrip(t, mc, Message{Type: MsgGetWork, ParticipantID: mID, Batch: 4}); m.Type != MsgNoWork {
		t.Fatalf("quarantined participant leased a batch: %+v", m)
	}
	waitMetric(t, reg, 1, 3*time.Second, "redundancy_assignments_reclaimed_total", "quarantine")

	// Release the honest workers' held ringer copies back to the queue so
	// probation has a diet to draw from.
	for i := range honestConn {
		honestConn[i].Close()
	}

	// Probation: the clock promotes the cheater to ringer-only work.
	probeState := func() health.State {
		for _, ph := range sup.HealthSnapshot() {
			if ph.Participant == mID {
				return ph.State
			}
		}
		return health.Healthy
	}
	deadline = time.Now().Add(5 * time.Second)
	for probeState() != health.Probation {
		if time.Now().After(deadline) {
			t.Fatalf("probation never began (state %v)", probeState())
		}
		time.Sleep(20 * time.Millisecond)
	}
	// Each lease is answered before the next is asked for: a request_work
	// reply has room for one item, and a held copy is always re-issued
	// ahead of a fresh one.
	ringers := 0
	deadline = time.Now().Add(5 * time.Second)
	for ringers < 2 {
		if time.Now().After(deadline) {
			t.Fatalf("probation fed only %d ringer copies, need 2", ringers)
		}
		m := v.lease(t, mc, mID, 2)
		if m.Type != MsgWorkBatch {
			time.Sleep(20 * time.Millisecond)
			continue
		}
		for _, it := range m.Work {
			if it.TaskID < p.N {
				t.Fatalf("probation leased regular task %d (ringers start at %d)", it.TaskID, p.N)
			}
		}
		for _, a := range v.submit(t, mc, mID, answer(t, m, nil)) {
			if !a.OK {
				t.Fatalf("probation ringer result refused: %+v", a)
			}
			ringers++
		}
	}

	// Phase 3: honest participants finish everything (including the other
	// copies of the probation ringers), which fires the clean ringer
	// verdicts that re-admit the cheater.
	doneCh := make(chan struct{})
	go func() { sup.Wait(); close(doneCh) }()
	var fin [3]*Codec
	var finID [3]int
	for i := range fin {
		_, fin[i], finID[i] = reg4(fmt.Sprintf("finisher-%d", i))
	}
	finishers := make(chan error, 3)
	for i := range fin {
		go func(i int) {
			c, id := fin[i], finID[i]
			for {
				m := roundTrip(t, c, Message{Type: MsgRequestWork, ParticipantID: id})
				switch m.Type {
				case MsgDone:
					finishers <- nil
					return
				case MsgNoWork:
					time.Sleep(10 * time.Millisecond)
					continue
				case MsgWork:
					ack := roundTrip(t, c, Message{
						Type: MsgResult, ParticipantID: id,
						TaskID: m.TaskID, Copy: m.Copy, Value: honestValue(t, "hashchain", m.TaskID, 10),
					})
					if ack.Type != MsgAck {
						finishers <- fmt.Errorf("finisher %d: submission refused: %+v", i, ack)
						return
					}
				default:
					finishers <- fmt.Errorf("finisher %d: unexpected %+v", i, m)
					return
				}
			}
		}(i)
	}
	for i := 0; i < 3; i++ {
		if err := <-finishers; err != nil {
			t.Fatal(err)
		}
	}
	select {
	case <-doneCh:
	case <-time.After(30 * time.Second):
		t.Fatal("computation never completed after re-admission")
	}

	waitMetric(t, reg, 1, 5*time.Second, "redundancy_quarantines_exited_total")
	if st := probeState(); st != health.Healthy {
		t.Errorf("re-admitted participant state %v, want Healthy", st)
	}

	// The event trail must show the full arc in order.
	mu.Lock()
	lines := strings.Split(events.String(), "\n")
	mu.Unlock()
	arc := []string{EvParticipantQuarantined, EvParticipantProbation, EvParticipantReadmitted}
	idx := 0
	for _, line := range lines {
		if idx == len(arc) {
			break
		}
		var ev map[string]any
		if json.Unmarshal([]byte(line), &ev) != nil {
			continue
		}
		if ev["event"] == arc[idx] {
			if pid, _ := ev["participant"].(float64); int(pid) != mID {
				t.Errorf("%s names participant %v, want %d", arc[idx], ev["participant"], mID)
			}
			idx++
		}
	}
	if idx != len(arc) {
		t.Errorf("event trail incomplete: found %d of %v", idx, arc)
	}
	sum := sup.Summary()
	if sum.Verify.MismatchDetected < 3 {
		t.Errorf("mismatches detected %d, want >= 3", sum.Verify.MismatchDetected)
	}
	if len(sum.Convicted) != 0 {
		t.Errorf("circumstantial cheater was convicted: %v", sum.Convicted)
	}
}

// syncWriter serializes event-sink writes with the test's own reads.
type syncWriter struct {
	mu *sync.Mutex
	w  *bytes.Buffer
}

func (s *syncWriter) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.w.Write(p)
}

// TestQuarantineFeedsEstimator checks the control-plane coupling: a
// quarantine transition counts as adversary evidence in the adaptive p̂
// estimator, exactly like a caught cheat.
func TestQuarantineFeedsEstimator(t *testing.T) {
	p, err := plan.Balanced(50, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	sup, err := NewSupervisor(SupervisorConfig{
		Plan: p, WorkKind: "hashchain", Iters: 10, Seed: 1,
		Health: &health.Config{SuspectLimit: 3},
		Adapt:  &adapt.Config{TargetEpsilon: 0.5},
	})
	if err != nil {
		t.Fatal(err)
	}
	before, on := sup.AdaptiveEstimate()
	if !on {
		t.Fatal("adaptive estimator not enabled")
	}
	sup.pushTransition(health.Transition{
		Participant: 7, From: health.Healthy, To: health.Quarantined, Reason: "suspects",
	}, false)
	after, _ := sup.AdaptiveEstimate()
	if !(after.PHat > before.PHat) {
		t.Errorf("quarantine did not move p̂: before %v after %v", before.PHat, after.PHat)
	}
	sup.Close()
}

// TestStallChaosSoak is the straggler-era acceptance soak: the full chaos
// battery plus the stall mode (connections freeze silently and thaw),
// heterogeneous worker speed models with a straggler mixture, speculative
// reissue enabled, and an abrupt mid-run kill + journal restore. The
// ending invariants are exact: every task certified, total credit equals
// total assignments (no speculative duplicate ever double-credited, no
// work lost across the restart), and the journal holds every accepted
// result exactly once.
func TestStallChaosSoak(t *testing.T) {
	p, err := plan.Balanced(120, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	inj, err := faults.New(faults.Config{
		Seed:     11,
		DialDrop: 0.04, ReadDrop: 0.02, WriteDrop: 0.02,
		Corrupt: 0.01, ShortWrite: 0.01,
		Stall: 0.03, StallFor: 120 * time.Millisecond,
		Latency: 200 * time.Microsecond, Jitter: 300 * time.Microsecond,
	})
	if err != nil {
		t.Fatal(err)
	}

	jpath := filepath.Join(t.TempDir(), "journal.jsonl")
	jf1, err := os.OpenFile(jpath, os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	reg1 := obs.NewRegistry()
	sup1, err := NewSupervisor(SupervisorConfig{
		Plan: p, WorkKind: "hashchain", Iters: 10, Seed: 13,
		Journal: jf1, JournalSync: true,
		IOTimeout: 2 * time.Second, Deadline: 2 * time.Second,
		SpeculatePct: 0.85,
		WrapListener: inj.Listener, Metrics: reg1,
	})
	if err != nil {
		t.Fatal(err)
	}
	addr, err := sup1.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}

	var stop atomic.Bool
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			batch := 16
			if i == 3 {
				batch = 1
			}
			for !stop.Load() {
				RunWorker(WorkerConfig{
					Addr: addr, Name: fmt.Sprintf("stall-%d", i),
					Reconnect: true, MaxReconnects: 25, BatchSize: batch,
					BackoffBase: 2 * time.Millisecond, BackoffMax: 50 * time.Millisecond,
					Seed: uint64(i + 1),
					Speed: &SpeedModel{
						Jitter:     2 * time.Millisecond,
						StragglerP: 0.08, StragglerDelay: 250 * time.Millisecond,
					},
					Dial: func(a string) (net.Conn, error) { return inj.Dial("tcp", a) },
				})
				time.Sleep(5 * time.Millisecond)
			}
		}(i)
	}
	fail := func(format string, args ...any) {
		t.Helper()
		stop.Store(true)
		wg.Wait()
		t.Fatalf(format, args...)
	}

	// Phase 1: accumulate real progress, then kill the supervisor abruptly.
	deadline := time.Now().Add(90 * time.Second)
	for {
		if v, _ := reg1.Snapshot().Value("redundancy_journal_records_total"); v >= 30 {
			break
		}
		if time.Now().After(deadline) {
			fail("phase 1: fewer than 30 results journaled in time")
		}
		time.Sleep(2 * time.Millisecond)
	}
	sup1.Close()
	jf1.Close()

	// A crash mid-append leaves a torn final record.
	tear, err := os.OpenFile(jpath, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	tear.WriteString(`{"task":0,"cop`)
	tear.Close()

	// Phase 2: restore at the same address, speculation still on.
	data, err := os.ReadFile(jpath)
	if err != nil {
		t.Fatal(err)
	}
	jf2, err := os.OpenFile(jpath, os.O_RDWR|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	defer jf2.Close()
	reg2 := obs.NewRegistry()
	sup2, err := NewSupervisor(SupervisorConfig{
		Plan: p, WorkKind: "hashchain", Iters: 10, Seed: 13,
		Restore: bytes.NewReader(data), Journal: jf2, JournalSync: true,
		IOTimeout: 2 * time.Second, Deadline: 2 * time.Second,
		SpeculatePct: 0.85,
		WrapListener: inj.Listener, Metrics: reg2,
	})
	if err != nil {
		fail("restore from stall-chaos journal: %v", err)
	}
	valid := sup2.RestoredJournalBytes()
	if valid <= 0 || valid > int64(len(data))-int64(len(`{"task":0,"cop`)) {
		fail("valid journal prefix %d of %d bytes does not exclude the torn tail", valid, len(data))
	}
	for try := 0; ; try++ {
		if _, err = sup2.Start(addr); err == nil {
			break
		}
		if try >= 100 {
			fail("could not rebind %s: %v", addr, err)
		}
		time.Sleep(10 * time.Millisecond)
	}

	waitDone := make(chan struct{})
	go func() { sup2.Wait(); close(waitDone) }()
	select {
	case <-waitDone:
	case <-time.After(180 * time.Second):
		fail("stall soak never reached certification (journal: %v restored, %v live)",
			func() float64 { v, _ := reg2.Snapshot().Value("redundancy_journal_restored_total"); return v }(),
			func() float64 { v, _ := reg2.Snapshot().Value("redundancy_journal_records_total"); return v }())
	}
	stop.Store(true)
	wg.Wait()
	sup2.Close()

	sum := sup2.Summary()
	tasks := p.N + p.Ringers
	if sum.Verify.Tasks != tasks || sum.Verify.Accepted != tasks {
		t.Errorf("certified %d/%d tasks, want all %d", sum.Verify.Accepted, sum.Verify.Tasks, tasks)
	}
	if sum.Verify.MismatchDetected != 0 || sum.WrongResults != 0 {
		t.Errorf("honest workers under stalls produced mismatches: %+v wrong=%d",
			sum.Verify, sum.WrongResults)
	}
	total := 0
	for _, e := range sum.Credits {
		total += e.Credit
	}
	if total != p.TotalAssignments() {
		t.Errorf("total credit %d, want %d (a speculative duplicate or the restart double-credited work)",
			total, p.TotalAssignments())
	}
	if sum.Restored < 30 {
		t.Errorf("restored %d results, want the >=30 journaled before the kill", sum.Restored)
	}
	snap := reg2.Snapshot()
	if v, _ := snap.Value("redundancy_journal_records_total"); sum.Restored+int(v) != p.TotalAssignments() {
		t.Errorf("journal holds %d restored + %v live records, want %d total", sum.Restored, v, p.TotalAssignments())
	}
	if inj.Injected() == 0 {
		t.Error("fault injector never fired; the soak proved nothing")
	}
	specIssued, _ := snap.Value("redundancy_speculative_issued_total")
	specWins, _ := snap.Value("redundancy_speculative_wins_total")
	specWasted, _ := snap.Value("redundancy_speculative_wasted_total")
	t.Logf("stall soak: %d faults, %d restored, speculation issued=%v wins=%v wasted=%v",
		inj.Injected(), sum.Restored, specIssued, specWins, specWasted)
}

// TestProbationExpiresWhenRingerStarved regresses the fleet-wide
// quarantine deadlock: a plan with no ringer tasks (dist.Simple mints
// none) quarantines every participant at once, so nobody is left to
// drain the regular queue and nobody can earn ringer-proven
// re-admission. The probation clock must expire instead
// ("probation_expired"), re-admit the fleet, and let the run finish —
// whichever verb the starved participants keep asking with.
func TestProbationExpiresWhenRingerStarved(t *testing.T) {
	for _, v := range bothVerbs {
		t.Run(string(v), func(t *testing.T) { testProbationExpires(t, v) })
	}
}

func testProbationExpires(t *testing.T, v verbs) {
	p, err := plan.FromDistribution(dist.Simple(6), 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if p.Ringers != 0 {
		t.Fatalf("dist.Simple plan minted %d ringers; the starved scenario needs zero", p.Ringers)
	}
	var mu sync.Mutex
	var events bytes.Buffer
	reg := obs.NewRegistry()
	sup, err := NewSupervisor(SupervisorConfig{
		Plan: p, WorkKind: "hashchain", Iters: 10, Seed: 11,
		Metrics: reg, Events: obs.NewSink(&syncWriter{mu: &mu, w: &events}),
		Health: &health.Config{
			SuspectLimit: 1, Probation: 300 * time.Millisecond, ProbationRingers: 1,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	addr, err := sup.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sup.Close() })

	reg2 := func(name string) (*Codec, int) {
		_, c := dialCodec(t, addr)
		w := roundTrip(t, c, Message{Type: MsgRegister, Name: name})
		if w.Type != MsgRegistered {
			t.Fatalf("register %s: %+v", name, w)
		}
		return c, w.ParticipantID
	}
	w1, id1 := reg2("liar")
	w2, id2 := reg2("honest")
	codecs, ids := []*Codec{w1, w2}, []int{id1, id2}

	// The liar takes one copy; the honest participant leases everything
	// else and completes only the sibling copy of the liar's task,
	// holding the rest so real work is still queued when the axe falls.
	lease := v.lease(t, w1, id1, 1)
	if lease.Type != MsgWorkBatch || len(lease.Work) != 1 {
		t.Fatalf("liar lease: %+v", lease)
	}
	target := lease.Work[0]
	rest := roundTrip(t, w2, Message{Type: MsgGetWork, ParticipantID: id2, Batch: 16})
	if rest.Type != MsgWorkBatch || len(rest.Work) != p.TotalAssignments()-1 {
		t.Fatalf("honest lease: %+v", rest)
	}
	var sibling *WorkItem
	for i := range rest.Work {
		if rest.Work[i].TaskID == target.TaskID {
			sibling = &rest.Work[i]
		}
	}
	if sibling == nil {
		t.Fatalf("no sibling copy of task %d in the honest lease", target.TaskID)
	}
	if acks := v.submit(t, w2, id2, []ResultItem{{
		TaskID: sibling.TaskID, Copy: sibling.Copy,
		Value: honestValue(t, "hashchain", sibling.TaskID, 10),
	}}); !acks[0].OK {
		t.Fatalf("sibling ack: %+v", acks[0])
	}

	// The lie completes the tuple: a mismatch, circumstantial suspects
	// for both holders, and — at SuspectLimit 1 — a fleet-wide
	// quarantine with ten copies reclaimed back into the queue.
	if acks := v.submit(t, w1, id1, []ResultItem{{
		TaskID: target.TaskID, Copy: target.Copy,
		Value: honestValue(t, "hashchain", target.TaskID, 10) ^ 0xBAD,
	}}); !acks[0].OK {
		t.Fatalf("cheat ack: %+v", acks[0])
	}
	waitMetric(t, reg, 2, 5*time.Second, "redundancy_quarantines_entered_total")
	waitMetric(t, reg, float64(p.TotalAssignments()-2), 5*time.Second,
		"redundancy_assignments_reclaimed_total", "quarantine")

	// With no ringers to prove themselves on, both must ride the
	// probation clock back in. One goroutine, fixed order: each keeps
	// asking — a starved probationer is answered no_work at once, never
	// parked — until the clock re-admits it and it is dealt regular work,
	// and then holds that lease. While the first holds copies the run
	// cannot finish under the second, so the second is provably still
	// asking when its own clock runs out.
	held := make([]Message, len(codecs))
	deadline := time.Now().Add(30 * time.Second)
	for i, c := range codecs {
		for held[i].Type != MsgWorkBatch {
			if time.Now().After(deadline) {
				t.Fatalf("participant %d still starved after 30s", ids[i])
			}
			held[i] = v.lease(t, c, ids[i], 4)
			if held[i].Type != MsgWorkBatch && held[i].Type != MsgNoWork {
				t.Fatalf("participant %d: unexpected %+v", ids[i], held[i])
			}
		}
	}
	if n := metricValue(reg, "redundancy_quarantines_exited_total"); n != 2 {
		t.Errorf("quarantines_exited = %v with both participants leasing regular work, want 2", n)
	}
	for _, ph := range sup.HealthSnapshot() {
		if ph.State != health.Healthy {
			t.Errorf("participant %d state %v, want Healthy", ph.Participant, ph.State)
		}
	}

	// Return the held leases and finish the run.
	for i, c := range codecs {
		for _, a := range v.submit(t, c, ids[i], answer(t, held[i], nil)) {
			if !a.OK {
				t.Fatalf("participant %d: task %d copy %d refused: %s", ids[i], a.TaskID, a.Copy, a.Reason)
			}
		}
	}
	drainRoundRobin(t, v, 4, codecs, ids, make([]CheatFunc, len(codecs)))
	sup.Wait()

	// Both re-admissions must carry the clock-expiry reason — no ringer
	// existed to earn the proven kind.
	mu.Lock()
	lines := strings.Split(events.String(), "\n")
	mu.Unlock()
	expired := 0
	for _, line := range lines {
		var ev map[string]any
		if json.Unmarshal([]byte(line), &ev) != nil {
			continue
		}
		if ev["event"] == EvParticipantReadmitted {
			if ev["reason"] != "probation_expired" {
				t.Errorf("readmission reason %v, want probation_expired", ev["reason"])
			}
			expired++
		}
	}
	if expired != 2 {
		t.Errorf("found %d probation_expired re-admissions, want 2", expired)
	}
	sum := sup.Summary()
	if sum.Verify.MismatchDetected != 1 {
		t.Errorf("mismatches detected %d, want 1", sum.Verify.MismatchDetected)
	}
	if len(sum.Convicted) != 0 {
		t.Errorf("circumstantial suspects were convicted: %v", sum.Convicted)
	}
}
