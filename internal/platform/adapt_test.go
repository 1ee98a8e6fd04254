package platform

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"redundancy/internal/adapt"
	"redundancy/internal/dist"
	"redundancy/internal/obs"
	"redundancy/internal/plan"
	"redundancy/internal/sched"
)

// minDetectionAt is the weakest per-class detection guarantee a plan
// offers when the adversary holds share p of the assignments: the minimum
// of P_{k,p} over every class with regular mass.
func minDetectionAt(p *plan.Plan, at float64) float64 {
	reg, ring := p.SplitDistribution()
	min := 1.0
	for k := 1; k <= len(reg.Counts); k++ {
		if reg.Count(k) == 0 {
			continue
		}
		if d := dist.DetectionAtSplit(reg, ring, k, at); d < min {
			min = d
		}
	}
	return min
}

// TestAdaptiveDriftEndToEnd is the control plane's acceptance test: a
// coalition's true cheat rate steps from 2% to 15% mid-run, and the
// adaptive supervisor — fed only by its own verification verdicts — must
// revise the live plan so that P_{k,p} stays at or above the target ε at
// the estimator's own upper confidence bound, while the static plan it
// started from demonstrably falls below ε at that same adversary share.
// Controller ticks are driven manually between phases (the background
// interval is set to an hour) so the test is deterministic about when
// revisions may fire.
func TestAdaptiveDriftEndToEnd(t *testing.T) {
	const eps = 0.5
	p, err := plan.Balanced(400, eps)
	if err != nil {
		t.Fatal(err)
	}
	static, err := plan.Balanced(400, eps) // untouched copy for comparison
	if err != nil {
		t.Fatal(err)
	}

	reg := obs.NewRegistry()
	var events syncBuffer // read while a departed worker's worker_left can still be emitted
	sink := obs.NewSink(&events)
	sup, err := NewSupervisor(SupervisorConfig{
		Plan: p, Policy: sched.Free, WorkKind: "hashchain", Iters: 5, Seed: 3,
		Metrics: reg, Events: sink,
		Adapt: &adapt.Config{TargetEpsilon: eps, Interval: time.Hour, MinSamples: 40},
	})
	if err != nil {
		t.Fatal(err)
	}
	addr, err := sup.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sup.Close() })

	// runPhase runs a bounded burst of work: two coalition members (when a
	// cheat function is given) alongside three honest workers, each
	// completing a fixed number of assignments and disconnecting.
	runPhase := func(cheat CheatFunc, perWorker int) {
		var wg sync.WaitGroup
		for w := 0; w < 5; w++ {
			cf, name := CheatFunc(nil), fmt.Sprintf("honest-%d", w)
			if w < 2 && cheat != nil {
				cf, name = cheat, fmt.Sprintf("colluder-%d", w)
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				// Colluders may be convicted and refused work mid-phase.
				_, _ = RunWorker(WorkerConfig{
					Addr: addr, Name: name, Cheat: cf, MaxAssignments: perWorker,
				})
			}()
		}
		wg.Wait()
	}

	// Phase 1: a calm adversary corrupting ~2% of the tasks it touches.
	runPhase(NewCoalition(0.02, 11).CheatFunc(), 25)
	sup.adaptTick()
	if _, on := sup.AdaptiveEstimate(); !on {
		t.Fatal("AdaptiveEstimate reports disabled despite Adapt config")
	}

	// Phase 2: the adversary turns aggressive mid-run (15%).
	runPhase(NewCoalition(0.15, 13).CheatFunc(), 25)
	sup.adaptTick()
	est, _ := sup.AdaptiveEstimate()
	revs := sup.RevisionsApplied()

	if revs == 0 {
		t.Fatalf("no revision applied (p̂=%.4f upper=%.4f samples=%.0f)",
			est.PHat, est.Upper, est.Samples)
	}
	if est.Upper <= 0 || est.Samples < 40 {
		t.Fatalf("estimator never accumulated evidence: %+v", est)
	}
	// The static plan was tuned for p=0, so at the observed adversary share
	// its weakest class must fall below ε...
	if got := minDetectionAt(static, est.Upper); got >= eps {
		t.Errorf("static plan still satisfies ε=%v at p=%.4f (min P_k = %v); drift proved nothing",
			eps, est.Upper, got)
	}
	// ...while the revised plan must hold the line at the same share.
	if got := minDetectionAt(p, est.Upper); got < eps-1e-9 {
		t.Errorf("adaptive plan fails its target: min P_k = %v < ε=%v at p̂ upper %.4f",
			got, eps, est.Upper)
	}
	if problems := p.Audit(1e-9); len(problems) != 0 {
		t.Errorf("revised live plan fails audit: %v", problems)
	}

	// Phase 3: honest workers finish the revised computation, proving the
	// promoted and minted copies are actually issuable and creditable.
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			_, _ = RunWorker(WorkerConfig{Addr: addr, Name: fmt.Sprintf("finisher-%d", w)})
		}(w)
	}
	done := make(chan struct{})
	go func() { sup.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(120 * time.Second):
		t.Fatal("revised computation never drained")
	}
	wg.Wait()

	snap := reg.Snapshot()
	if v, _ := snap.Value("redundancy_adapt_revisions_total"); int(v) != revs {
		t.Errorf("redundancy_adapt_revisions_total = %v, supervisor says %d", v, revs)
	}
	if v, _ := snap.Value("redundancy_adapt_phat"); v != est.PHat {
		// Phase 3's honest evidence moves p̂ only on the next tick, which
		// never comes (1h interval), so the gauge must still hold the
		// estimate from the deciding tick.
		t.Errorf("redundancy_adapt_phat gauge = %v, want %v", v, est.PHat)
	}
	if !strings.Contains(events.String(), `"event":"plan_revised"`) {
		t.Error("no plan_revised event emitted")
	}
	t.Logf("drift: %d revision(s), p̂=%.4f upper=%.4f, static min P=%.4f, adaptive min P=%.4f",
		revs, est.PHat, est.Upper, minDetectionAt(static, est.Upper), minDetectionAt(p, est.Upper))
}

// TestAdaptiveChaosResumesRevisedPlan is the crash-tolerance half of the
// control plane's contract: a supervisor journals and applies a revision
// mid-run, is killed abruptly (leaving a torn revision record at the
// journal tail, as a crash mid-append would), and the restarted
// supervisor — handed the same *base* plan a real restart would rebuild
// from its flags — must reconstruct the revised plan exactly from the
// journal and finish the computation with exactly-once crediting.
// Estimator evidence is planted directly; the estimation pipeline itself
// is exercised by TestAdaptiveDriftEndToEnd.
func TestAdaptiveChaosResumesRevisedPlan(t *testing.T) {
	const eps = 0.5
	mk := func() *plan.Plan {
		t.Helper()
		p, err := plan.Balanced(150, eps)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	p1 := mk()
	jpath := filepath.Join(t.TempDir(), "journal.jsonl")
	jf1, err := os.OpenFile(jpath, os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	acfg := &adapt.Config{TargetEpsilon: eps, Interval: time.Hour, MinSamples: 1}
	sup1, err := NewSupervisor(SupervisorConfig{
		Plan: p1, Policy: sched.Free, WorkKind: "hashchain", Iters: 5, Seed: 9,
		Journal: jf1, JournalSync: true, Adapt: acfg,
	})
	if err != nil {
		t.Fatal(err)
	}
	addr1, err := sup1.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}

	// Partial progress: 60 results journaled, the rest still queued.
	var wg sync.WaitGroup
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			_, _ = RunWorker(WorkerConfig{
				Addr: addr1, Name: fmt.Sprintf("early-%d", w), MaxAssignments: 20,
			})
		}(w)
	}
	wg.Wait()

	// Plant adversary evidence and force a revision.
	sup1.audit.mu.Lock()
	sup1.audit.est.Observe(200, 30)
	sup1.audit.mu.Unlock()
	sup1.adaptTick()
	if got := sup1.RevisionsApplied(); got != 1 {
		t.Fatalf("revisions applied before kill = %d, want 1", got)
	}
	want := p1.Tasks()

	// Kill abruptly — no drain — and tear a half-written revision record
	// onto the tail, as a crash during the journal append would.
	sup1.Close()
	jf1.Close()
	const torn = `{"revision":{"seq":1,"ph`
	tear, err := os.OpenFile(jpath, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	tear.WriteString(torn)
	tear.Close()

	// Restore: a real restart re-derives the base plan from its flags and
	// replays the journal, which must reconstruct the revision.
	data, err := os.ReadFile(jpath)
	if err != nil {
		t.Fatal(err)
	}
	jf2, err := os.OpenFile(jpath, os.O_RDWR|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	defer jf2.Close()
	p2 := mk()
	reg2 := obs.NewRegistry()
	sup2, err := NewSupervisor(SupervisorConfig{
		Plan: p2, Policy: sched.Free, WorkKind: "hashchain", Iters: 5, Seed: 9,
		Restore: bytes.NewReader(data), Journal: jf2, JournalSync: true,
		Metrics: reg2, Adapt: acfg,
	})
	if err != nil {
		t.Fatalf("restore across a mid-run revision: %v", err)
	}
	if got := sup2.RevisionsApplied(); got != 1 {
		t.Fatalf("restored supervisor replayed %d revisions, want 1", got)
	}
	have := p2.Tasks()
	if len(want) != len(have) {
		t.Fatalf("restored plan has %d tasks, pre-crash revised plan had %d", len(have), len(want))
	}
	for i := range want {
		if want[i] != have[i] {
			t.Fatalf("restored task %d = %+v, pre-crash %+v", i, have[i], want[i])
		}
	}
	valid := sup2.RestoredJournalBytes()
	if valid <= 0 || valid > int64(len(data))-int64(len(torn)) {
		t.Fatalf("valid journal prefix %d of %d bytes does not exclude the torn revision", valid, len(data))
	}
	addr2, err := sup2.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sup2.Close() })

	// Honest workers finish the revised computation.
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			_, _ = RunWorker(WorkerConfig{Addr: addr2, Name: fmt.Sprintf("late-%d", w)})
		}(w)
	}
	done := make(chan struct{})
	go func() { sup2.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(120 * time.Second):
		t.Fatal("restored revised run never drained")
	}
	wg.Wait()

	sum := sup2.Summary()
	if sum.Verify.MismatchDetected != 0 || sum.WrongResults != 0 {
		t.Errorf("honest run produced mismatches: %+v wrong=%d", sum.Verify, sum.WrongResults)
	}
	if sum.Restored != 60 {
		t.Errorf("restored %d results, want the 60 journaled before the kill", sum.Restored)
	}
	// Exactly-once accounting across the crash, against the *revised*
	// assignment total: a lost promoted copy leaves this short, a
	// double-granted one pushes it over.
	total := 0
	for _, e := range sum.Credits {
		total += e.Credit
	}
	if total != p2.TotalAssignments() {
		t.Errorf("total credit %d, want %d (lost or double-granted work)", total, p2.TotalAssignments())
	}
	snap := reg2.Snapshot()
	if v, _ := snap.Value("redundancy_journal_records_total"); sum.Restored+int(v) != p2.TotalAssignments() {
		t.Errorf("journal holds %d restored + %v live records, want %d (re-ran completed work?)",
			sum.Restored, v, p2.TotalAssignments())
	}
}

// TestRevisionGrowsPastPresizedTables: the verdict list is allocated at the
// registered task count by the first adjudication, and the lease table's
// task index at construction, and a revision applied after that
// (promotions, and more minted ringers than either has room for) must
// still be leased, reclaimed, collected and adjudicated: the growth behind
// the pre-sized tables is a path a live run takes, not dead code. One
// participant leases everything left, minted ringers included, claims one
// copy of a minted ringer and sits on the rest past the deadline; the
// sweep returns them, the second copy of that ringer among them, and a
// second participant finishes the run.
func TestRevisionGrowsPastPresizedTables(t *testing.T) {
	const tasks, mint = 40, 30
	p := simplePlan(t, tasks)
	sup, err := NewSupervisor(SupervisorConfig{
		Plan: p, Policy: sched.Free, WorkKind: "hashchain", Iters: 5, Seed: 4,
		Deadline: time.Hour, MaxBatch: 1 << 10,
		Adapt: &adapt.Config{TargetEpsilon: 0.5, Interval: time.Hour, MinSamples: 1 << 30},
	})
	if err != nil {
		t.Fatal(err)
	}
	addr, err := sup.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sup.Close() })

	if _, err := RunWorker(WorkerConfig{Addr: addr, Name: "before", MaxAssignments: tasks}); err != nil {
		t.Fatal(err)
	}
	sup.lease.mu.Lock()
	sup.audit.mu.Lock()
	presized := len(sup.lease.byTask)
	before := sup.audit.collector.Verdicts()
	var rev plan.Revision
	for id := 0; id < tasks; id++ {
		if !sup.lease.queue.EverIssued(id) {
			rev.Promotions = append(rev.Promotions, plan.Promotion{TaskID: id, From: 2, To: 3})
		}
	}
	for i := 0; i < mint; i++ {
		rev.Minted = append(rev.Minted, plan.Mint{TaskID: tasks + i, Copies: 2})
	}
	err = sup.applyRevisionLocked(revisionRecord{Promotions: rev.Promotions, Minted: rev.Minted})
	grown := len(sup.lease.byTask)
	sup.audit.mu.Unlock()
	sup.lease.mu.Unlock()
	if err != nil {
		t.Fatal(err)
	}
	if len(before) == 0 || cap(before) != tasks || len(rev.Promotions) == 0 {
		t.Fatalf("before the revision: %d verdicts in a list of capacity %d (want some, in %d), %d tasks left to promote",
			len(before), cap(before), tasks, len(rev.Promotions))
	}
	if presized != tasks || grown != tasks+mint {
		t.Fatalf("byTask covers %d tasks at construction and %d after the revision, want %d and %d", presized, grown, tasks, tasks+mint)
	}

	cs := newConnState(nil) // nothing is flushed: the lease finds work
	stale := sup.register(Message{Type: MsgRegister, Name: "stale"}, cs).ParticipantID
	lease := sup.leaseBatch(stale, 1<<10, false, cs)
	ringer := rev.Minted[mint-1].TaskID
	leased := 0
	for _, w := range lease.Work {
		if w.TaskID == ringer {
			leased++
		}
	}
	if lease.Type != MsgWorkBatch || leased != 2 {
		t.Fatalf("the stale lease holds %d copies of minted ringer %d: %+v", leased, ringer, lease)
	}
	acks, _ := sup.resultBatch(stale, []ResultItem{{TaskID: ringer, Copy: 0, Value: sup.work(TaskSeed(ringer), sup.cfg.Iters)}}, false, cs)
	if len(acks) != 1 || !acks[0].OK {
		t.Fatalf("claim of minted ringer %d copy 0: %+v", ringer, acks)
	}
	sup.lease.mu.Lock()
	for id := 0; id < tasks+mint; id++ {
		for _, r := range sup.leasesOf(id) { // all of them the stale lease
			r.primary.issuedAt = r.primary.issuedAt.Add(-2 * time.Hour)
		}
	}
	sup.lease.mu.Unlock()
	sup.sweepExpired()
	sup.lease.mu.Lock()
	out, outstanding := len(sup.leasesOf(ringer)), sup.lease.queue.Outstanding()
	sup.lease.mu.Unlock()
	if out != 0 || outstanding != 0 {
		t.Fatalf("after the sweep %d copies of minted ringer %d and %d assignments are still out", out, ringer, outstanding)
	}
	if v, _ := sup.Metrics().Snapshot().Value("redundancy_assignments_reclaimed_total", "deadline"); int(v) != len(lease.Work)-1 {
		t.Fatalf("%v copies reclaimed by deadline, want the %d left unclaimed", v, len(lease.Work)-1)
	}

	if _, err := RunWorker(WorkerConfig{Addr: addr, Name: "after"}); err != nil {
		t.Fatal(err)
	}
	sup.Wait()
	sum := sup.Summary()
	if sum.Verify.Tasks != tasks+mint || sum.Verify.Accepted != tasks+mint || sum.WrongResults != 0 {
		t.Fatalf("summary after the revised run: %+v", sum)
	}
	sup.audit.mu.Lock()
	defer sup.audit.mu.Unlock()
	for _, pr := range rev.Promotions {
		if v, ok := sup.audit.collector.VerdictFor(pr.TaskID); !ok || v.Copies != pr.To {
			t.Errorf("promoted task %d: verdict %+v, %v; want %d copies", pr.TaskID, v, ok, pr.To)
		}
	}
	for _, m := range rev.Minted {
		if v, ok := sup.audit.collector.VerdictFor(m.TaskID); !ok || !v.Ringer || !v.Accepted {
			t.Errorf("minted ringer %d: verdict %+v, %v", m.TaskID, v, ok)
		}
	}
}
