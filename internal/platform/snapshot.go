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

// captureSnapshot captures the supervisor's certification state under
// withState, so the capture is a consistent cut: no result can be
// adjudicated and no revision applied while it runs. The capture shares no
// memory that changes once the lock is released — issued verdicts'
// contributor and suspect lists and applied revisions are never written
// again, and the rest is copied — so callers encode it with no lock held.
func (s *Supervisor) captureSnapshot() *snapshotRecord {
	rec := &snapshotRecord{MaxParticipant: -1}
	s.withState(func() {
		rec.Revisions = append([]revisionRecord(nil), s.audit.revisions...)
		col := s.audit.collector
		rec.Verdicts = make([]snapshotVerdict, 0, col.NumVerdicts())
		for i := range col.NumVerdicts() {
			v := col.VerdictAt(i)
			rec.Verdicts = append(rec.Verdicts, snapshotVerdict{
				TaskID:       s.cfg.ids.global(v.TaskID),
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
		rec.Pending = make([]journalRecord, 0, len(pending))
		for _, r := range pending {
			rec.Pending = append(rec.Pending, journalRecord{
				TaskID:      s.cfg.ids.global(r.Assignment.TaskID),
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
	})
	return rec
}

// replaySnapshot installs a captured state wholesale: revisions first (in
// sequence order, onto a fresh queue whose promoted tasks were never
// issued — exactly the precondition the live apply checked), then every
// verdict through RestoreVerdict and applyVerdict (in the original
// adjudication order) with its copies marked completed, then
// the partial results through the ordinary replay path. Every copy is
// marked in the queue, so the replay's Settle takes them all out at once.
// The resulting state is byte-identical to replaying the uncompacted
// prefix record by record: the queue ends with the same marked set, which
// Settle completes the same way whatever order it was marked in; its
// removals commute with promote/mint appends, which land after every
// original element in both histories; and the verdict order — the only thing the estimator's and
// ledger's floating-point accumulation depends on — is preserved verbatim.
func (r *supReplayer) replaySnapshot(rec snapshotRecord) error {
	s := r.s
	for _, rev := range rec.Revisions {
		if err := r.replayRevision(rev); err != nil {
			return fmt.Errorf("revision %d: %w", rev.Seq, err)
		}
	}
	total := 0
	for _, v := range rec.Verdicts {
		id := s.cfg.ids.local(v.TaskID)
		if id < 0 {
			return fmt.Errorf("verdict for task %d, not this supervisor's", v.TaskID)
		}
		verdict := verify.Verdict{
			TaskID:           id,
			Ringer:           v.Ringer,
			Copies:           v.Copies,
			Accepted:         v.Accepted,
			Value:            v.Value,
			MismatchDetected: v.Mismatch,
			Suspects:         v.Suspects,
			Contributors:     v.Contributors,
		}
		if err := s.audit.collector.RestoreVerdict(verdict); err != nil {
			return err
		}
		s.applyVerdict(&verdict, r.now)
		for c := 0; c < v.Copies; c++ {
			if !s.lease.Queue().MarkCompleted(sched.Assignment{TaskID: id, Copy: c, Ringer: v.Ringer}) {
				return fmt.Errorf("verdict copy task=%d copy=%d is not queued", v.TaskID, c)
			}
		}
		total += v.Copies
	}
	if rec.Results != total+len(rec.Pending) {
		return fmt.Errorf("snapshot claims %d results but carries %d", rec.Results, total+len(rec.Pending))
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

// Snapshot returns the canonical encoding of the supervisor's current
// certification state — the exact bytes a journal snapshot would carry.
// Two supervisors are in the same certification state iff their Snapshot
// bytes are equal, which is what the restore-equivalence tests assert.
func (s *Supervisor) Snapshot() ([]byte, error) {
	var buf bytes.Buffer
	if err := appendJournalSnapshot(&buf, s.captureSnapshot()); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}
