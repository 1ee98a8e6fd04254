package platform

// The audit domain: verification and everything verdicts feed. audit.mu is
// locked only in this file; withLeaseAndAudit locks it together with lease.mu.

import (
	"fmt"
	"sync"
	"time"

	"redundancy/internal/adapt"
	"redundancy/internal/agg"
	"redundancy/internal/plan"
	"redundancy/internal/verify"
)

// auditState guards verification and everything verdicts feed: the
// credit ledger, supervisor-resolved disputes, the adaptive estimator and
// the applied plan revisions.
type auditState struct {
	mu        sync.Mutex
	collector *verify.Collector
	credits   *CreditLedger
	resolved  map[int]uint64 // taskID → supervisor-recomputed value
	est       *adapt.Estimator
	// revisions retains every applied revision record (live and replayed),
	// in sequence order — snapshots carry them so a compacted journal can
	// still rebuild the revised plan. Its length is the next revision's
	// journal sequence number.
	revisions []revisionRecord
}

// withLeaseAndAudit runs fn holding lease.mu and then audit.mu, the one
// function that locks both: a plan revision (adaptTick) re-shapes the
// queue and the verification expectations atomically, and a snapshot
// (captureSnapshot) sees no revision half-applied. Everything else crosses
// domains through their methods, in the same order (DESIGN.md §11).
func (s *Supervisor) withLeaseAndAudit(fn func()) {
	s.lease.mu.Lock()
	defer s.lease.mu.Unlock()
	s.audit.mu.Lock()
	defer s.audit.mu.Unlock()
	fn()
}

// onVerdict is the collector's verdict callback. Credit is awarded only at
// certification, so claiming credit for uncompleted or rejected work is
// structurally impossible; a conviction revokes a participant's standing
// entirely. It fires inside Collector.Submit, i.e. under audit.mu (or during
// single-threaded construction replay), which is what makes the estimator
// and ledger updates safe.
func (s *Supervisor) onVerdict(v *verify.Verdict) {
	if s.audit.est != nil {
		// Adaptive evidence: every adjudicated copy is one Bernoulli
		// observation, attributed copies are the bad ones. Fed during
		// replay too, so p̂ survives a restart along with the plan.
		s.audit.est.Observe(v.Copies, len(v.Suspects))
	}
	if v.Accepted {
		s.audit.credits.Award(v.Contributors)
	}
	if v.Ringer && v.MismatchDetected {
		for _, p := range v.Suspects {
			s.audit.credits.Revoke(p)
		}
	}
	if s.cfg.Health != nil {
		// Health evidence: every contributor gets one verdict
		// observation, implicated or clean. Fed during replay too, so a
		// participant quarantined before a crash is still quarantined
		// after restore (pushTransition suppresses the side effects).
		now := time.Now()
		suspect := make(map[int]bool, len(v.Suspects))
		for _, p := range v.Suspects {
			suspect[p] = true
		}
		for _, p := range v.Contributors {
			if tr := s.roster.ObserveVerdict(p, suspect[p], v.Ringer, now); tr != nil {
				s.pushTransition(*tr, true)
			}
		}
	}
	if s.replaying {
		return // restored verdicts were counted by the previous process
	}
	if v.Accepted {
		s.metrics.tasksCertified.Inc()
	}
	if v.MismatchDetected {
		s.metrics.mismatchDetected.Inc()
		if s.events != nil {
			s.events.Emit(EvMismatchDetected, map[string]any{
				"task": v.TaskID, "ringer": v.Ringer, "suspects": v.Suspects,
			})
		}
		if v.Ringer {
			s.metrics.ringerFailures.Inc()
			s.metrics.convictions.Add(uint64(len(v.Suspects)))
			if s.events != nil {
				s.events.Emit(EvRingerFailed, map[string]any{
					"task": v.TaskID, "suspects": v.Suspects,
				})
			}
		}
	}
}

// convicted answers the blacklist question under audit.mu. Only
// conclusive (ringer) evidence denies further work: a 2-way mismatch
// cannot say which party lied, and refusing every suspect would let an
// adversary starve the computation by framing honest participants.
func (s *Supervisor) convicted(participant int) bool {
	s.audit.mu.Lock()
	defer s.audit.mu.Unlock()
	return s.audit.collector.Convicted(participant)
}

// noteQuarantine feeds a quarantine entry to the adaptive estimator as one
// bad observation: quarantine is cheat/stall evidence the planner should
// see. underAudit says whether the caller already holds audit.mu.
func (s *Supervisor) noteQuarantine(underAudit bool) {
	if s.audit.est == nil {
		return
	}
	if !underAudit {
		s.audit.mu.Lock()
		defer s.audit.mu.Unlock()
	}
	s.audit.est.Observe(1, 1)
}

// pendingResult carries one claimed result between resultBatch's phases,
// next to the verify.Result at the same index of the submission's subs.
type pendingResult struct {
	idx      int       // index of this result's ack in the reply
	issuedAt time.Time // when the claiming holder was issued the copy
	failed   bool      // verification refused it in phase B
}

// adjudicate is phase B of resultBatch: it submits cs.subs, marks the
// refused ones failed (in cs.pend and d.acks), and queues the records of
// the rest with the committer, reporting whether the ack must wait for them.
func (s *Supervisor) adjudicate(pid int, cs *connState, d *deferredAck, now time.Time) (deferred bool) {
	pend, subs, acks := cs.pend, cs.subs, d.acks
	recs := d.recs[:0]
	s.audit.mu.Lock()
	// One call adjudicates the whole submission, in order. Credits and
	// the adaptive estimator update inside the collector's verdict
	// callback, result by result.
	outs := s.audit.collector.SubmitBatch(subs, cs.outs[:0])
	for i := range pend {
		p := &pend[i]
		if err := outs[i].Err; err != nil {
			p.failed = true
			acks[p.idx].OK = false
			acks[p.idx].Reason = ReasonVerification
			acks[p.idx].Error = err.Error()
			continue
		}
		if v := outs[i].Verdict; v != nil && v.MismatchDetected {
			s.logf("CHEAT DETECTED on task %d (suspects %v)", v.TaskID, v.Suspects)
			if s.cfg.ResolveMismatches && !v.Ringer {
				// Reactive measure: the supervisor recomputes the
				// disputed task on trusted hardware.
				s.audit.resolved[v.TaskID] = s.work(TaskSeed(v.TaskID), s.cfg.Iters)
				s.logf("task %d resolved by supervisor recomputation", v.TaskID)
			}
		}
		if s.committer != nil {
			a := &subs[i].Assignment
			recs = append(recs, journalRecord{
				TaskID:      a.TaskID,
				Copy:        a.Copy,
				Ringer:      a.Ringer,
				Participant: pid,
				Value:       subs[i].Value,
			})
		}
	}
	if len(recs) > 0 {
		if d.seq, deferred = s.committer.enqueue(commitReq{recs: recs, at: now}); !deferred {
			s.logf("journal write failed: committer closed")
		}
	}
	s.audit.mu.Unlock()
	cs.outs, d.recs = outs, recs
	return deferred
}

// applyRevisionLocked applies one plan revision to the supervisor's live
// state — plan, queue, and verification expectations (and the lease
// table's task index, for minted ringers past its end) — in that order,
// and retains its record in audit.revisions. It does NOT journal; the
// caller either just queued the record (live tick) or is replaying it
// (restore). Callers hold lease.mu and audit.mu (or are single-threaded
// construction). Revisions are validated against the plan before anything
// mutates, so a failure leaves state untouched.
func (s *Supervisor) applyRevisionLocked(rec revisionRecord) error {
	seq := len(s.audit.revisions)
	if rec.Seq != seq {
		return fmt.Errorf("revision sequence %d out of order (want %d)", rec.Seq, seq)
	}
	rev := plan.Revision{Promotions: rec.Promotions, Minted: rec.Minted}
	if err := s.cfg.Plan.ValidateRevision(rev); err != nil {
		return err
	}
	// Cross-check against the queue before mutating anything: every
	// promotion must name a never-issued task with exactly From copies
	// still queued. The controller only proposes such tasks; this guards
	// replay against a journal that disagrees with the queue.
	for _, pr := range rev.Promotions {
		if s.lease.queue.EverIssued(pr.TaskID) {
			return fmt.Errorf("platform: revision promotes issued task %d", pr.TaskID)
		}
	}
	if err := s.cfg.Plan.ApplyRevision(rev); err != nil {
		return err
	}
	for _, pr := range rev.Promotions {
		if err := s.lease.queue.Promote(pr.TaskID, pr.From, pr.To); err != nil {
			return fmt.Errorf("platform: revision %d: %w", seq, err)
		}
		s.audit.collector.Expect(pr.TaskID, pr.To)
	}
	for _, m := range rev.Minted {
		if err := s.lease.queue.AddTask(plan.TaskSpec{ID: m.TaskID, Copies: m.Copies, Ringer: true}); err != nil {
			return fmt.Errorf("platform: revision %d: %w", seq, err)
		}
		s.audit.collector.Expect(m.TaskID, m.Copies)
		s.growByTaskLocked(m.TaskID)
	}
	s.audit.revisions = append(s.audit.revisions, rec)
	return nil
}

// AdaptiveEstimate returns the current p̂ estimate and true when the
// adaptive control plane is enabled.
func (s *Supervisor) AdaptiveEstimate() (adapt.Estimate, bool) {
	if s.audit.est == nil {
		return adapt.Estimate{}, false
	}
	s.audit.mu.Lock()
	defer s.audit.mu.Unlock()
	return s.audit.est.Estimate(), true
}

// RevisionsApplied reports how many plan revisions this supervisor has
// applied, including revisions restored from the journal.
func (s *Supervisor) RevisionsApplied() int {
	s.audit.mu.Lock()
	defer s.audit.mu.Unlock()
	return len(s.audit.revisions)
}

// Summary is a snapshot of the platform's verification state.
type Summary struct {
	Participants int
	Verify       verify.Stats
	// Blacklist holds every suspect, including participants implicated
	// only circumstantially (a 2-way mismatch suspects both parties).
	Blacklist []int
	// Convicted holds participants caught by conclusive ringer evidence;
	// only these are refused further work.
	Convicted    []int
	WrongResults int // certified values that differ from the true computation
	// Restored counts results recovered from the journal at startup.
	Restored int
	// Resolved counts disputed tasks the supervisor recomputed itself
	// (only with ResolveMismatches enabled).
	Resolved int
	// Credits is the per-participant leaderboard: one credit per
	// contribution to a certified task, zeroed by conviction.
	Credits []CreditEntry
}

// Summary reports current progress; safe to call at any time.
func (s *Supervisor) Summary() Summary {
	participants := s.participantCount()
	s.audit.mu.Lock()
	defer s.audit.mu.Unlock()
	sum := Summary{
		Participants: participants,
		Verify:       s.audit.collector.Stats(),
		Blacklist:    s.audit.collector.Blacklist(),
		Convicted:    s.audit.collector.ConvictedList(),
		Credits:      s.audit.credits.Leaderboard(),
		Resolved:     len(s.audit.resolved),
		Restored:     s.replayed.restored,
	}
	var cmp verify.Comparator = verify.Exact{}
	if s.cfg.ResultDigits > 0 {
		cmp = verify.Quantize{Digits: s.cfg.ResultDigits}
	}
	verdicts := s.audit.collector.Verdicts()
	for i := range verdicts {
		v := &verdicts[i]
		truth := s.work(TaskSeed(v.TaskID), s.cfg.Iters)
		if v.Accepted && cmp.Canonical(v.Value) != cmp.Canonical(truth) {
			sum.WrongResults++
		}
	}
	return sum
}

// CertifiedValue returns the final value of a task and whether one exists:
// the redundancy-certified value, or the supervisor's own recomputation for
// resolved disputes.
func (s *Supervisor) CertifiedValue(taskID int) (uint64, bool) {
	s.audit.mu.Lock()
	defer s.audit.mu.Unlock()
	if v, ok := s.audit.resolved[taskID]; ok {
		return v, true
	}
	if v, ok := s.audit.collector.VerdictFor(taskID); ok && v.Accepted {
		return v.Value, true
	}
	return 0, false
}

// Export snapshots this supervisor's audit state in the form the cluster
// aggregator merges: plain sums over the verdict stream plus the credit
// ledger keyed by participant name (IDs are shard-local; names are the
// cross-shard identity).
func (s *Supervisor) Export() agg.ShardExport {
	ex := agg.ShardExport{Shard: s.cfg.shardID, Credits: map[string]int{}}
	s.audit.mu.Lock()
	st := s.audit.collector.Stats()
	ex.Tasks, ex.Accepted = st.Tasks, st.Accepted
	ex.Mismatches, ex.RingersCaught = st.MismatchDetected, st.RingersCaught
	verdicts := s.audit.collector.Verdicts()
	for i := range verdicts {
		ex.Assignments += verdicts[i].Copies
		ex.Bad += len(verdicts[i].Suspects)
	}
	board := s.audit.credits.Leaderboard()
	s.audit.mu.Unlock()
	for _, e := range board {
		ex.Credits[s.creditName(e.Participant)] += e.Credit
	}
	return ex
}
