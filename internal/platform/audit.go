package platform

// The audit domain: verification and everything verdicts feed. audit.mu is
// locked only in this file; withLeaseAndAudit locks it together with lease.mu.

import (
	"fmt"
	"slices"
	"sync"
	"time"

	"redundancy/internal/adapt"
	"redundancy/internal/agg"
	"redundancy/internal/health"
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

// applyVerdict applies every state effect of one verdict; no other code
// does. Live adjudicate, journal replay and snapshot restore all call it,
// with now the request's time or the restore's start. Each copy is one p̂
// observation, attributed copies the bad ones. Credit is awarded only at
// certification, and a conviction revokes it. Each contributor is one
// health observation, and each quarantine that causes is one more bad p̂
// observation, so a restore rebuilds that evidence too. With
// ResolveMismatches a disputed task is recomputed. It returns the health
// transitions the verdict caused; a restore drops them. Callers hold
// audit.mu or are single-threaded construction.
func (s *Supervisor) applyVerdict(v *verify.Verdict, now time.Time) []health.Transition {
	if s.audit.est != nil {
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
	var trs []health.Transition
	if s.cfg.Health != nil {
		for _, p := range v.Contributors {
			if tr := s.roster.ObserveVerdict(p, slices.Contains(v.Suspects, p), v.Ringer, now); tr != nil {
				trs = append(trs, *tr)
				if tr.To == health.Quarantined && s.audit.est != nil {
					s.audit.est.Observe(1, 1)
				}
			}
		}
	}
	if s.cfg.ResolveMismatches && v.MismatchDetected && !v.Ringer {
		s.audit.resolved[v.TaskID] = s.work(TaskSeed(v.TaskID), s.cfg.Iters)
	}
	return trs
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

// noteQuarantine feeds a lease-path quarantine entry (a reclaim past a
// deadline or a speculation) to the adaptive estimator as one bad
// observation: quarantine is cheat/stall evidence the planner should see.
// The failures behind it are not journaled, so this evidence is live-only;
// applyVerdict feeds a verdict-caused quarantine itself. Its one caller,
// the lease table's observer (released), holds lease.mu, and lease.mu →
// audit.mu is the legal nesting order.
func (s *Supervisor) noteQuarantine() {
	if s.audit.est == nil {
		return
	}
	s.audit.mu.Lock()
	defer s.audit.mu.Unlock()
	s.audit.est.Observe(1, 1)
}

// observeVerdict emits what only a live process observes of one applied
// verdict: its health transitions (trs), then counters, events and logs.
func (s *Supervisor) observeVerdict(v *verify.Verdict, trs []health.Transition) {
	for _, tr := range trs {
		s.pushTransition(tr)
	}
	if v.Accepted {
		s.metrics.tasksCertified.Inc()
	}
	if !v.MismatchDetected {
		return
	}
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
	s.logf("CHEAT DETECTED on task %d (suspects %v)", v.TaskID, v.Suspects)
	if s.cfg.ResolveMismatches && !v.Ringer {
		s.logf("task %d resolved by supervisor recomputation", v.TaskID)
	}
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
	// One call adjudicates the whole submission; its verdicts are then
	// applied and observed in order.
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
		if v := outs[i].Verdict; v != nil {
			s.observeVerdict(v, s.applyVerdict(v, now))
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
// state — plan, queue, and verification expectations, in that order —
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
		if s.lease.Queue().EverIssued(pr.TaskID) {
			return fmt.Errorf("platform: revision promotes issued task %d", pr.TaskID)
		}
	}
	if err := s.cfg.Plan.ApplyRevision(rev); err != nil {
		return err
	}
	for _, pr := range rev.Promotions {
		if err := s.lease.Queue().Promote(pr.TaskID, pr.From, pr.To); err != nil {
			return fmt.Errorf("platform: revision %d: %w", seq, err)
		}
		s.audit.collector.Expect(pr.TaskID, pr.To)
	}
	for _, m := range rev.Minted {
		if err := s.lease.Queue().AddTask(plan.TaskSpec{ID: m.TaskID, Copies: m.Copies, Ringer: true}); err != nil {
			return fmt.Errorf("platform: revision %d: %w", seq, err)
		}
		s.audit.collector.Expect(m.TaskID, m.Copies)
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
	col := s.audit.collector
	sum := Summary{
		Participants: participants,
		Verify:       col.Stats(),
		Blacklist:    col.Blacklist(),
		Convicted:    col.ConvictedList(),
		Credits:      s.audit.credits.Leaderboard(),
		Resolved:     len(s.audit.resolved),
		Restored:     s.replayed.restored,
	}
	n := col.NumVerdicts()
	s.audit.mu.Unlock()

	var cmp verify.Comparator = verify.Exact{}
	if s.cfg.ResultDigits > 0 {
		cmp = verify.Quantize{Digits: s.cfg.ResultDigits}
	}
	// The accepted values are judged against the work function outside
	// audit.mu, so a long recomputation never stalls the result path. The
	// verdict list only grows, so its first n entries are the ones counted
	// above; they are copied out a fixed-size chunk at a time, which keeps
	// the copy off the heap.
	var chunk [256]struct {
		task  int
		value uint64
	}
	for i := 0; i < n; {
		k := 0
		s.audit.mu.Lock()
		for ; i < n && k < len(chunk); i++ {
			if v := col.VerdictAt(i); v.Accepted {
				chunk[k].task, chunk[k].value = v.TaskID, v.Value
				k++
			}
		}
		s.audit.mu.Unlock()
		for _, c := range chunk[:k] {
			if cmp.Canonical(c.value) != cmp.Canonical(s.work(TaskSeed(c.task), s.cfg.Iters)) {
				sum.WrongResults++
			}
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
	col := s.audit.collector
	for i := range col.NumVerdicts() {
		v := col.VerdictAt(i)
		ex.Assignments += v.Copies
		ex.Bad += len(v.Suspects)
	}
	board := s.audit.credits.Leaderboard()
	s.audit.mu.Unlock()
	for _, e := range board {
		ex.Credits[s.creditName(e.Participant)] += e.Credit
	}
	return ex
}
