package platform

// The supervisor's control glue: the background loops' ticker, the
// consequences of health transitions, and the adaptive re-planner. It locks
// no state mutex itself.

import (
	"slices"
	"strconv"
	"time"

	"redundancy/internal/adapt"
	"redundancy/internal/health"
	"redundancy/internal/obs"
	"redundancy/internal/plan"
)

// every runs fn once per interval on a loop goroutine until the supervisor
// stops or every task is adjudicated; Close and Shutdown wait for it.
func (s *Supervisor) every(interval time.Duration, fn func()) {
	s.loopWG.Add(1)
	go func() {
		defer s.loopWG.Done()
		tick := time.NewTicker(interval)
		defer tick.Stop()
		for {
			select {
			case <-s.stop:
				return
			case <-s.done:
				return
			case <-tick.C:
				fn()
			}
		}
	}()
}

// pushTransition observes one health-state transition: metrics, events
// and a log line. It changes no state: the roster has recorded the
// transition already, a quarantined participant's holds end at the next
// sweep (sweepExpired reads the roster), and the caller that caused a
// quarantine has fed the estimator (applyVerdict, released). Only
// the live path calls it: a restore drops the transitions applyVerdict
// returns.
func (s *Supervisor) pushTransition(tr health.Transition) {
	switch tr.To {
	case health.Quarantined:
		s.metrics.quarantinesEntered.Inc()
		if s.events != nil {
			s.events.Emit(EvParticipantQuarantined, map[string]any{
				"participant": tr.Participant, "reason": tr.Reason, "from": tr.From.String(),
			})
		}
	case health.Probation:
		if s.events != nil {
			s.events.Emit(EvParticipantProbation, map[string]any{
				"participant": tr.Participant,
			})
		}
	case health.Healthy:
		s.metrics.quarantinesExited.Inc()
		if s.events != nil {
			// reason distinguishes a ringer-proven re-admission
			// ("readmitted") from the ringer-starved clock fallback
			// ("probation_expired").
			s.events.Emit(EvParticipantReadmitted, map[string]any{
				"participant": tr.Participant, "reason": tr.Reason,
			})
		}
	}
	s.healthGauge(tr.Participant).Set(s.roster.Score(tr.Participant))
	s.logf("participant %d: %s -> %s (%s)", tr.Participant, tr.From, tr.To, tr.Reason)
}

// healthGauge returns pid's health gauge: the family's child, looked up
// once per participant and then kept in gauges. Callers hold stateMu.
func (s *Supervisor) healthGauge(pid int) *obs.Gauge {
	if pid < len(s.gauges) && s.gauges[pid] != nil {
		return s.gauges[pid]
	}
	if pid >= len(s.gauges) {
		s.gauges = append(s.gauges, make([]*obs.Gauge, pid+1-len(s.gauges))...)
	}
	var buf [20]byte
	s.gauges[pid] = s.metrics.participantHealth.With(string(strconv.AppendInt(buf[:0], int64(pid), 10)))
	return s.gauges[pid]
}

// HealthSnapshot returns the health roster's per-participant view (state,
// score, counters), or nil when neither Health nor SpeculatePct is
// configured. It reads the roster under stateMu and returns a copy, so it
// is safe from any goroutine.
func (s *Supervisor) HealthSnapshot() (out []health.ParticipantHealth) {
	if s.roster != nil {
		s.withState(func() { out = slices.Clone(s.roster.Snapshot()) })
	}
	return out
}

// adaptTasks lays out the adaptive controller's view of runs, one entry
// per task in ID order; adaptTick fills in Eligible before each use.
func adaptTasks(runs []plan.Run) []adapt.TaskState {
	n := 0
	for _, r := range runs {
		n += r.Count
	}
	tasks := make([]adapt.TaskState, 0, n)
	for _, r := range runs {
		for id := r.First; id < r.End(); id++ {
			tasks = append(tasks, adapt.TaskState{ID: id, Copies: r.Copies, Ringer: r.Ringer})
		}
	}
	return tasks
}

// adaptTick is one evaluation of the control loop: refresh the p̂ gauges,
// and if the interval's upper bound leaves any active class below the
// target ε, journal and apply a revision, without waiting for the disk
// (revisionRecord has the ordering argument). It runs under withState: a
// revision must re-shape the queue and the verification expectations
// atomically.
func (s *Supervisor) adaptTick() {
	s.withState(func() {
		est := s.audit.est.Estimate()
		s.metrics.adaptPHat.Set(est.PHat)
		s.metrics.adaptIntervalWidth.Set(est.Width())
		if est.Samples < float64(s.adaptCfg.MinSamples) || s.lease.finished || s.lease.draining.Load() {
			return
		}
		tasks, q := s.audit.tasks, s.lease.Queue()
		for i := range tasks {
			tasks[i].Eligible = !tasks[i].Ringer && !q.EverIssued(tasks[i].ID)
		}
		rev, ok := adapt.Replan(tasks, s.cfg.Plan.NextTaskID(), s.adaptCfg.TargetEpsilon, est.Upper)
		if rev.Empty() {
			if !ok {
				s.logf("adapt: ε=%g unreachable at p̂ upper bound %.4f (safety cap)",
					s.adaptCfg.TargetEpsilon, est.Upper)
			}
			return
		}
		seq := len(s.audit.revisions)
		rec := revisionRecord{
			Seq: seq, PHat: est.PHat, Upper: est.Upper,
			Promotions: rev.Promotions, Minted: rev.Minted,
		}
		if s.committer != nil {
			if _, ok := s.committer.enqueue(commitReq{rev: &rec}); !ok {
				s.logf("adapt: journal committer closed, revision deferred")
				return
			}
		}
		if err := s.applyRevisionLocked(rec); err != nil {
			// Pre-validated, so this is a genuine bug; surface loudly but keep
			// serving — the journal record will replay (and fail) identically.
			s.logf("adapt: BUG: journaled revision failed to apply: %v", err)
			return
		}
		s.kickLeaseLocked() // the revision queued new copies
		promoted := 0
		for _, pr := range rev.Promotions {
			promoted += pr.To - pr.From
		}
		minted := rev.CopiesAdded() - promoted
		s.metrics.adaptRevisions.Inc()
		s.metrics.adaptPromoted.Add(uint64(promoted))
		s.metrics.adaptMinted.Add(uint64(len(rev.Minted)))
		if s.events != nil {
			s.events.Emit(EvPlanRevised, map[string]any{
				"seq": seq, "phat": est.PHat, "upper": est.Upper,
				"promotions": len(rev.Promotions), "promoted_copies": promoted,
				"minted": len(rev.Minted), "minted_copies": minted, "satisfied": ok,
			})
		}
		s.logf("adapt: revision %d applied (p̂=%.4f upper=%.4f): %d promotion(s), %d minted ringer(s), %d new assignments",
			seq, est.PHat, est.Upper, len(rev.Promotions), len(rev.Minted), rev.CopiesAdded())
	})
}
