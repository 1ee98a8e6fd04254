package platform

// Journal snapshots and compaction. A snapshot is a point-in-time capture
// of everything replaying the journal prefix would reconstruct — applied
// revisions, issued verdicts, partial results — written as one journal
// line. Replay installs a snapshot only when it heads the journal (the
// compacted case); mid-stream snapshots are redundant with the records
// before them and are skipped. A live snapshot atomically *replaces* the
// journal, so restore cost and journal size stay O(live state) instead of
// O(run history).
// DESIGN.md §12 has the correctness argument; PROTOCOL.md documents the
// record format.

import (
	"bytes"
	"fmt"
	"time"

	"redundancy/internal/sched"
	"redundancy/internal/verify"
)

// journalReplacer is the compaction facet of a journal writer: ReplaceWith
// atomically substitutes the journal's entire contents, surviving a crash
// at any point with either the old or the new contents intact (*JournalFile
// implements it via write-temp, fsync, rename).
type journalReplacer interface {
	ReplaceWith(contents []byte) error
}

// captureSnapshotLocked captures the supervisor's certification state.
// Callers hold lease.mu and audit.mu (or are single-threaded), so the
// capture is a consistent cut: no result can be adjudicated and no
// revision applied while it runs.
func (s *Supervisor) captureSnapshotLocked() *snapshotRecord {
	rec := &snapshotRecord{MaxParticipant: -1}
	if n := len(s.audit.revisions); n > 0 {
		rec.Revisions = make([]revisionRecord, n)
		copy(rec.Revisions, s.audit.revisions)
	}
	verdicts := s.audit.collector.Verdicts()
	if len(verdicts) > 0 {
		rec.Verdicts = make([]snapshotVerdict, 0, len(verdicts))
	}
	for i := range verdicts {
		v := &verdicts[i]
		rec.Verdicts = append(rec.Verdicts, snapshotVerdict{
			TaskID:       v.TaskID,
			Ringer:       v.Ringer,
			Copies:       v.Copies,
			Accepted:     v.Accepted,
			Value:        v.Value,
			Mismatch:     v.MismatchDetected,
			Suspects:     v.Suspects,
			Contributors: v.Contributors,
		})
		rec.Results += v.Copies
		for _, p := range v.Contributors {
			if p > rec.MaxParticipant {
				rec.MaxParticipant = p
			}
		}
	}
	pending := s.audit.collector.PendingResults()
	if len(pending) > 0 {
		rec.Pending = make([]journalRecord, 0, len(pending))
	}
	for _, r := range pending {
		rec.Pending = append(rec.Pending, journalRecord{
			TaskID:      r.Assignment.TaskID,
			Copy:        r.Assignment.Copy,
			Ringer:      r.Assignment.Ringer,
			Participant: r.Participant,
			Value:       r.Value,
		})
		rec.Results++
		if r.Participant > rec.MaxParticipant {
			rec.MaxParticipant = r.Participant
		}
	}
	return rec
}

// replaySnapshot installs a captured state wholesale: revisions first (in
// sequence order, onto a fresh queue whose promoted tasks were never
// issued — exactly the precondition the live apply checked), then every
// verdict through RestoreVerdict (firing estimator and credit updates in
// the original adjudication order), then one bulk pass completing the
// adjudicated copies in the queue, then the partial results through the
// ordinary replay path. The resulting state is byte-identical to replaying
// the uncompacted prefix record by record: removals preserve the ready
// pool's order and commute, promote/mint appends land after every original
// element in both histories, and the verdict order — the only thing the
// estimator's and ledger's floating-point accumulation depends on — is
// preserved verbatim.
func (r *supReplayer) replaySnapshot(rec snapshotRecord) error {
	s := r.s
	for _, rev := range rec.Revisions {
		if err := r.replayRevision(rev); err != nil {
			return fmt.Errorf("revision %d: %w", rev.Seq, err)
		}
	}
	covered := make(map[[2]int]bool, 2*len(rec.Verdicts))
	total := 0
	for _, v := range rec.Verdicts {
		if err := s.audit.collector.RestoreVerdict(verify.Verdict{
			TaskID:           v.TaskID,
			Ringer:           v.Ringer,
			Copies:           v.Copies,
			Accepted:         v.Accepted,
			Value:            v.Value,
			MismatchDetected: v.Mismatch,
			Suspects:         v.Suspects,
			Contributors:     v.Contributors,
		}); err != nil {
			return err
		}
		for c := 0; c < v.Copies; c++ {
			covered[[2]int{v.TaskID, c}] = true
		}
		total += v.Copies
	}
	if rec.Results != total+len(rec.Pending) {
		return fmt.Errorf("snapshot claims %d results but carries %d", rec.Results, total+len(rec.Pending))
	}
	n, err := s.lease.queue.MarkCompletedBulk(func(a sched.Assignment) bool {
		return covered[[2]int{a.TaskID, a.Copy}]
	})
	if err != nil {
		return err
	}
	if n != total {
		return fmt.Errorf("snapshot verdicts cover %d copies but only %d were queued", total, n)
	}
	for _, p := range rec.Pending {
		a := sched.Assignment{TaskID: p.TaskID, Copy: p.Copy, Ringer: p.Ringer}
		if err := r.replayResult(a, p.Participant, p.Value); err != nil {
			// A torn-tolerable miss is interior corruption here: the
			// snapshot is a single record, so no part of it can be torn.
			return fmt.Errorf("pending result task=%d copy=%d: %w", p.TaskID, p.Copy, err)
		}
	}
	return nil
}

// noteJournaled advances the snapshot trigger by n freshly appended
// records and takes a snapshot when the configured interval is crossed.
// Callers must hold no supervisor locks: the trigger site is the
// committer's window loop. appendRevision deliberately only counts
// (adaptTick holds lease.mu, where taking a snapshot would deadlock); the
// revision is swept up by the next result-driven trigger.
func (s *Supervisor) noteJournaled(n int) {
	if s.cfg.SnapshotInterval <= 0 || n <= 0 {
		return
	}
	if s.jnlSince.Add(int64(n)) < int64(s.cfg.SnapshotInterval) {
		return
	}
	if !s.snapBusy.CompareAndSwap(false, true) {
		return // a snapshot is already in progress; its count reset covers us
	}
	s.jnlSince.Store(0)
	s.takeSnapshot()
	s.snapBusy.Store(false)
}

// takeSnapshot captures the current state and makes it durable by
// atomically replacing the whole journal with it. The journal write happens
// while lease.mu and audit.mu are still held. That is deliberate, not an
// oversight: any result adjudicated before the capture is covered by the
// snapshot (so losing its record to compaction, or reading it after the
// snapshot line, is harmless — replay's covered-set skips it), while a
// result adjudicated after the capture is blocked on audit.mu until the
// snapshot bytes are down, so its record can only land after them. Release
// the locks first and that second class could slip a record in front of
// the snapshot — ReplaceWith would silently discard an uncovered, acked
// result.
func (s *Supervisor) takeSnapshot() {
	s.lease.mu.Lock()
	defer s.lease.mu.Unlock()
	s.audit.mu.Lock()
	defer s.audit.mu.Unlock()
	rec := s.captureSnapshotLocked()
	buf := bufPool.Get().(*bytes.Buffer)
	buf.Reset()
	if err := appendJournalSnapshot(buf, rec); err != nil {
		bufPool.Put(buf)
		s.logf("snapshot: encode failed: %v", err)
		return
	}
	// ReplaceWith fsyncs internally; the old records are gone only once the
	// rename is durable.
	s.jnlMu.Lock()
	err := s.cfg.Journal.(journalReplacer).ReplaceWith(buf.Bytes())
	compacted := s.jnlLines
	if err == nil {
		s.jnlLines = 1
	}
	s.jnlMu.Unlock()
	bufPool.Put(buf)
	if err != nil {
		s.logf("snapshot: journal replace failed: %v", err)
		return
	}
	s.metrics.journalSnapshots.Inc()
	s.metrics.journalCompactedRecords.Add(uint64(compacted))
	s.logf("snapshot: %d verdict(s), %d pending result(s), %d revision(s); compacted %d journal record(s)",
		len(rec.Verdicts), len(rec.Pending), len(rec.Revisions), compacted)
}

// Snapshot returns the canonical encoding of the supervisor's current
// certification state — the exact bytes a journal snapshot would carry.
// Two supervisors are in the same certification state iff their Snapshot
// bytes are equal, which is what the restore-equivalence tests assert.
func (s *Supervisor) Snapshot() ([]byte, error) {
	s.lease.mu.Lock()
	defer s.lease.mu.Unlock()
	s.audit.mu.Lock()
	defer s.audit.mu.Unlock()
	buf := bufPool.Get().(*bytes.Buffer)
	defer bufPool.Put(buf)
	buf.Reset()
	if err := appendJournalSnapshot(buf, s.captureSnapshotLocked()); err != nil {
		return nil, err
	}
	out := make([]byte, buf.Len())
	copy(out, buf.Bytes())
	return out, nil
}

// restoreTimer wraps the restore-duration gauge so NewSupervisor reads as
// straight-line code.
func (s *Supervisor) observeRestore(start time.Time) {
	s.metrics.journalRestoreSeconds.Set(time.Since(start).Seconds())
}
