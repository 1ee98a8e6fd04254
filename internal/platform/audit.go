package platform

// The audit domain: verification and everything verdicts feed. It is
// guarded by the state mutex (stateMu), which lease.go locks; this file's
// readers take it through withState.

import (
	"fmt"
	"slices"
	"time"

	"redundancy/internal/adapt"
	"redundancy/internal/agg"
	"redundancy/internal/health"
	"redundancy/internal/plan"
	"redundancy/internal/verify"
)

// auditState is verification and everything verdicts feed: the credit
// ledger, supervisor-resolved disputes, the adaptive estimator and the
// applied plan revisions. stateMu guards it.
type auditState struct {
	collector *verify.Collector
	credits   *CreditLedger
	resolved  map[int]uint64 // local task ID → supervisor-recomputed value
	est       *adapt.Estimator
	// revisions retains every applied revision record (live and replayed),
	// in sequence order — snapshots carry them so a compacted journal can
	// still rebuild the revised plan. Its length is the next revision's
	// journal sequence number.
	revisions []revisionRecord
	// tasks is the adaptive controller's view of the plan, one entry per
	// task with tasks[id].ID == id: built from the plan's runs at
	// construction and kept in step with the plan by applyRevisionLocked,
	// so adaptTick refreshes only Eligible. Nil without Adapt.
	tasks []adapt.TaskState
}

// applyVerdict applies every state effect of one verdict; no other code
// does. Live adjudication, journal replay and snapshot restore all call it,
// with now the request's time or the restore's start. Each copy is one p̂
// observation, attributed copies the bad ones. Credit is awarded only at
// certification, and a conviction revokes it. Each contributor is one
// health observation, and each quarantine that causes is one more bad p̂
// observation, so a restore rebuilds that evidence too. With
// ResolveMismatches a disputed task is recomputed. It returns the health
// transitions the verdict caused; a restore drops them. Callers hold
// stateMu or are single-threaded construction.
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
		s.audit.resolved[v.TaskID] = s.work(TaskSeed(s.cfg.ids.global(v.TaskID)), s.cfg.Iters)
	}
	return trs
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
	task := s.cfg.ids.global(v.TaskID)
	if s.events != nil {
		s.events.Emit(EvMismatchDetected, map[string]any{
			"task": task, "ringer": v.Ringer, "suspects": v.Suspects,
		})
	}
	if v.Ringer {
		s.metrics.ringerFailures.Inc()
		s.metrics.convictions.Add(uint64(len(v.Suspects)))
		if s.events != nil {
			s.events.Emit(EvRingerFailed, map[string]any{
				"task": task, "suspects": v.Suspects,
			})
		}
	}
	s.logf("CHEAT DETECTED on task %d (suspects %v)", task, v.Suspects)
	if s.cfg.ResolveMismatches && !v.Ringer {
		s.logf("task %d resolved by supervisor recomputation", task)
	}
}

// pendingResult is one claimed result of a submission, next to the
// verify.Result at the same index of the submission's subs.
type pendingResult struct {
	idx      int       // index of this result's ack in the reply
	issuedAt time.Time // when the claiming holder was issued the copy
	failed   bool      // verification refused it
}

// adjudicateLocked is the audit step of settleResults: it submits cs.subs,
// marks the refused ones failed (in cs.pend and d.acks), and queues the
// records of the rest with the committer, reporting whether the ack must
// wait for them. Queueing under stateMu makes journal order adjudication
// order across connections. Callers hold stateMu.
func (s *Supervisor) adjudicateLocked(pid int, cs *connState, d *deferredAck, now time.Time) (deferred bool) {
	pend, subs, acks := cs.pend, cs.subs, d.acks
	recs := d.recs[:0]
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
				TaskID:      s.cfg.ids.global(a.TaskID),
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
	cs.outs, d.recs = outs, recs
	return deferred
}

// applyRevisionLocked applies one plan revision to the supervisor's live
// state — plan, queue, and verification expectations, in that order —
// and retains its record in audit.revisions. It does NOT journal; the
// caller either just queued the record (live tick) or is replaying it
// (restore). Callers hold stateMu (or are single-threaded construction).
// Revisions are validated against the plan before anything mutates, so a
// failure leaves state untouched.
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
	if s.audit.tasks != nil {
		for _, pr := range rev.Promotions {
			s.audit.tasks[pr.TaskID].Copies = pr.To
		}
		for _, m := range rev.Minted {
			s.audit.tasks = append(s.audit.tasks, adapt.TaskState{ID: m.TaskID, Copies: m.Copies, Ringer: true})
		}
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
func (s *Supervisor) AdaptiveEstimate() (est adapt.Estimate, ok bool) {
	if s.audit.est == nil {
		return adapt.Estimate{}, false
	}
	s.withState(func() { est = s.audit.est.Estimate() })
	return est, true
}

// RevisionsApplied reports how many plan revisions this supervisor has
// applied, including revisions restored from the journal.
func (s *Supervisor) RevisionsApplied() (n int) {
	s.withState(func() { n = len(s.audit.revisions) })
	return n
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
	sum := Summary{Participants: s.participantCount(), Restored: s.replayed.restored}
	col := s.audit.collector
	var n int
	s.withState(func() {
		sum.Verify = col.Stats()
		sum.Blacklist = col.Blacklist()
		sum.Convicted = col.ConvictedList()
		sum.Credits = s.audit.credits.Leaderboard()
		sum.Resolved = len(s.audit.resolved)
		n = col.NumVerdicts()
	})

	var cmp verify.Comparator = verify.Exact{}
	if s.cfg.ResultDigits > 0 {
		cmp = verify.Quantize{Digits: s.cfg.ResultDigits}
	}
	// The accepted values are judged against the work function outside
	// stateMu, so a long recomputation never stalls the result path. The
	// verdict list only grows, so its first n entries are the ones counted
	// above; they are copied out a fixed-size chunk at a time, which keeps
	// the copy off the heap.
	var chunk [256]struct {
		task  int
		value uint64
	}
	for i := 0; i < n; {
		k := 0
		s.withState(func() {
			for ; i < n && k < len(chunk); i++ {
				if v := col.VerdictAt(i); v.Accepted {
					chunk[k].task, chunk[k].value = s.cfg.ids.global(v.TaskID), v.Value
					k++
				}
			}
		})
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
// resolved disputes. A cluster shard has none for another shard's task.
func (s *Supervisor) CertifiedValue(taskID int) (value uint64, ok bool) {
	if taskID = s.cfg.ids.local(taskID); taskID < 0 {
		return 0, false
	}
	s.withState(func() {
		if value, ok = s.audit.resolved[taskID]; ok {
			return
		}
		if v, found := s.audit.collector.VerdictFor(taskID); found && v.Accepted {
			value, ok = v.Value, true
		}
	})
	return value, ok
}

// Export snapshots this supervisor's audit state in the form the cluster
// aggregator merges: plain sums over the verdict stream plus the credit
// ledger keyed by participant name (IDs are shard-local; names are the
// cross-shard identity).
func (s *Supervisor) Export() agg.ShardExport {
	ex := agg.ShardExport{Shard: s.cfg.shardID, Credits: map[string]int{}}
	var board []CreditEntry
	s.withState(func() {
		col := s.audit.collector
		st := col.Stats()
		ex.Tasks, ex.Accepted = st.Tasks, st.Accepted
		ex.Mismatches, ex.RingersCaught = st.MismatchDetected, st.RingersCaught
		for i := range col.NumVerdicts() {
			v := col.VerdictAt(i)
			ex.Assignments += v.Copies
			ex.Bad += len(v.Suspects)
		}
		board = s.audit.credits.Leaderboard()
	})
	for _, e := range board {
		ex.Credits[s.creditName(e.Participant)] += e.Credit
	}
	return ex
}
