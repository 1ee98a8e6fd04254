package platform

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"time"

	"redundancy/internal/plan"
	"redundancy/internal/sched"
	"redundancy/internal/verify"
)

// journalRecord is one accepted result, appended to the journal as a JSON
// line the moment it is recorded. Replaying the journal against the same
// plan reconstructs the supervisor's verification state exactly, so a
// restarted supervisor resumes where the previous process stopped instead
// of re-running days of volunteer work.
type journalRecord struct {
	TaskID      int    `json:"task"`
	Copy        int    `json:"copy"`
	Ringer      bool   `json:"ringer,omitempty"`
	Participant int    `json:"participant"`
	Value       uint64 `json:"value"`
}

// revisionRecord journals one adaptive plan revision. The supervisor
// queues the record with the journal committer under stateMu, as it
// queues results, and then applies the revision to its in-memory plan,
// queue, and collector. The committer writes in queue order, so the record
// lands after every result adjudicated before it and ahead of every record
// that depends on it (a revised copy can only be issued — and its result
// queued — after the apply step): a crash that loses or tears the line
// loses nothing written after it. Replay applies revisions at their
// recorded position in the result stream, reconstructing the revised plan
// exactly.
type revisionRecord struct {
	// Seq numbers revisions from 0 in application order.
	Seq int `json:"seq"`
	// PHat and Upper snapshot the estimate that triggered the revision —
	// diagnostic only; replay does not depend on them.
	PHat  float64 `json:"phat"`
	Upper float64 `json:"upper"`

	Promotions []plan.Promotion `json:"promotions,omitempty"`
	Minted     []plan.Mint      `json:"minted,omitempty"`
}

// snapshotVerdict is one adjudicated task inside a snapshot, carrying
// exactly the fields RestoreVerdict needs to reinstate the verdict (and
// its downstream effects: credits, blacklist, estimator evidence) without
// re-running the per-copy results through the pipeline.
type snapshotVerdict struct {
	TaskID       int    `json:"task"`
	Ringer       bool   `json:"ringer,omitempty"`
	Copies       int    `json:"copies"`
	Accepted     bool   `json:"accepted,omitempty"`
	Value        uint64 `json:"value"`
	Mismatch     bool   `json:"mismatch,omitempty"`
	Suspects     []int  `json:"suspects,omitempty"`
	Contributors []int  `json:"contributors"`
}

// snapshotRecord is a point-in-time capture of everything journal replay
// would reconstruct: applied revisions, issued verdicts (in adjudication
// order, so estimator and credit updates replay in the exact sequence the
// live process performed them), and the partial results of still-pending
// tasks. A snapshot at the head of a journal replaces the replay of its
// covered prefix — compaction truncates that prefix away — turning
// restore cost from O(run history) into O(live state). Its canonical JSON
// encoding doubles as a state digest: two supervisors are in the same
// certification state iff their captures encode to the same bytes.
type snapshotRecord struct {
	// Results is the number of journaled result records the snapshot
	// covers: the restored count a full replay of the prefix would report.
	Results int `json:"results"`
	// MaxParticipant is the highest participant ID among covered records
	// (-1 if none) — replay parity for the ID-allocation high-water mark.
	MaxParticipant int `json:"max_participant"`
	// Revisions are the applied plan revisions, in sequence order.
	Revisions []revisionRecord `json:"revisions,omitempty"`
	// Verdicts are the adjudicated tasks, in adjudication order.
	Verdicts []snapshotVerdict `json:"verdicts,omitempty"`
	// Pending are the results of partially-collected tasks, ordered by
	// task ID then submission — a deterministic enumeration, so equal
	// states encode to equal bytes.
	Pending []journalRecord `json:"pending,omitempty"`
}

// journalLine is the union read shape: a result record, or — when the
// corresponding pointer is set — a plan revision or a snapshot.
type journalLine struct {
	journalRecord
	Revision *revisionRecord `json:"revision,omitempty"`
	Snapshot *snapshotRecord `json:"snapshot,omitempty"`
}

// journalRecordKinds names every record type a journal line can carry.
// PROTOCOL.md's enforcement test diffs its journal-format section against
// this list, so adding a kind without documenting it fails the build.
var journalRecordKinds = []string{"result", "revision", "snapshot"}

// encodeJournalRecords appends recs to buf, one JSON line each — the one
// result-record encoder. The committer writes the buffer with a single
// Write call, which matters for crash safety: a partial write of one
// contiguous buffer can only truncate it, so at most the final record is
// torn — exactly the damage replayJournal tolerates — and interleaved
// interior corruption is impossible.
func encodeJournalRecords(buf *bytes.Buffer, recs []journalRecord) error {
	enc := json.NewEncoder(buf)
	for i := range recs {
		if err := enc.Encode(&recs[i]); err != nil {
			return err
		}
	}
	return nil
}

// encodeJournalRevision appends one revision record to buf as a journal
// line; the committer encodes it in the same pass as the results around it.
func encodeJournalRevision(buf *bytes.Buffer, rec *revisionRecord) error {
	return json.NewEncoder(buf).Encode(struct {
		Revision *revisionRecord `json:"revision"`
	}{rec})
}

// appendJournalSnapshot encodes one snapshot record as a journal line
// into dst. Encoding is canonical — encoding/json with deterministic field
// and element order — which is what lets the snapshot double as a state
// digest.
func appendJournalSnapshot(dst *bytes.Buffer, rec *snapshotRecord) error {
	return json.NewEncoder(dst).Encode(struct {
		Snapshot *snapshotRecord `json:"snapshot"`
	}{rec})
}

// journalReplayer is what replaying a journal needs from its owner: the
// verification/queue state every result feeds, plus hooks for applying
// plan revisions at their recorded position and installing a snapshot.
// The supervisor implements it; tests may substitute pieces.
type journalReplayer interface {
	replayResult(a sched.Assignment, participant int, value uint64) error
	replayRevision(rec revisionRecord) error
	replaySnapshot(rec snapshotRecord) error
}

// replayStats summarizes one journal replay.
type replayStats struct {
	// restored counts result records the journal accounts for, including
	// results a head snapshot covers.
	restored int
	// maxParticipant is the highest participant ID seen (-1 if none).
	maxParticipant int
	// validBytes is the length of the journal prefix that replayed
	// cleanly, counting the bytes actually read: a final valid line missing
	// its newline ends the prefix without one. NewSupervisor truncates a
	// truncatable journal to it, so a torn tail does not glue itself onto
	// the next record and turn into interior corruption at a later restore.
	validBytes int64
	// readBytes is every byte replay read, the refused tail included.
	readBytes int64
	// unterminated reports that the valid prefix ends in a record without
	// its newline; the committer writes one before its first record, or
	// that record would weld onto this one.
	unterminated bool
	// lines counts the record lines consumed (blank lines excluded) —
	// the journal's current length in records, which compaction
	// accounting needs exactly (replayer callbacks undercount: covered
	// duplicates and mid-stream snapshots never reach them).
	lines int
}

// replayJournal feeds every journaled line back through rp. Torn trailing
// lines (a crash mid-write) are tolerated; corrupt interior records abort
// with an error.
func replayJournal(r io.Reader, rp journalReplayer) (replayStats, error) {
	sc := bufio.NewScanner(r)
	// Result and revision lines are tiny, but a snapshot line scales with
	// the live state it captures (a 50k-verdict snapshot runs to several
	// MB), so the line cap is far above the wire protocol's maxFrame.
	sc.Buffer(make([]byte, 0, 4096), 1<<30)
	st := replayStats{maxParticipant: -1}
	// The split function counts what each line consumed, so the valid
	// prefix is measured in bytes read, not reconstructed from the token.
	newline := false
	sc.Split(func(data []byte, atEOF bool) (int, []byte, error) {
		adv, tok, err := bufio.ScanLines(data, atEOF)
		if adv > 0 {
			st.readBytes += int64(adv)
			newline = data[adv-1] == '\n'
		}
		return adv, tok, err
	})
	// accept extends the valid prefix through the line just scanned.
	accept := func() {
		st.validBytes, st.unterminated = st.readBytes, !newline
	}
	var pendingErr error
	// covered, set when a head snapshot installs, holds the (task, copy)
	// keys the snapshot already accounts for, and coveredRevs the number of
	// revisions it carries. A record is written only after it was applied,
	// so a record applied before the capture can land after the snapshot
	// line; replaying it would apply it twice, so covered results (each
	// appears at most once) and revisions whose seq the snapshot carries
	// are skipped.
	var covered map[[2]int]bool
	coveredRevs := 0
	first := true
	for sc.Scan() {
		line := sc.Bytes()
		if len(line) == 0 {
			if pendingErr == nil {
				accept() // a blank line extends the prefix by its newline
			}
			continue
		}
		if pendingErr != nil {
			// A bad record followed by more data is real corruption, not
			// a torn tail.
			return st, pendingErr
		}
		var rec journalLine
		if err := json.Unmarshal(line, &rec); err != nil {
			pendingErr = fmt.Errorf("platform: corrupt journal record: %w", err)
			continue
		}
		if rec.Snapshot != nil {
			// Only a snapshot heading the journal installs: it is the
			// compacted stand-in for the truncated prefix. A snapshot
			// mid-stream is a periodic capture of state the records before
			// it already rebuilt — skip it. (A torn snapshot at the tail
			// never reaches here: it fails the JSON parse above and is
			// tolerated like any torn final line.)
			if first {
				if err := rp.replaySnapshot(*rec.Snapshot); err != nil {
					return st, fmt.Errorf("platform: journal snapshot: %w", err)
				}
				s := rec.Snapshot
				covered = make(map[[2]int]bool, 2*len(s.Verdicts)+len(s.Pending))
				for _, v := range s.Verdicts {
					for c := 0; c < v.Copies; c++ {
						covered[[2]int{v.TaskID, c}] = true
					}
				}
				for _, p := range s.Pending {
					covered[[2]int{p.TaskID, p.Copy}] = true
				}
				coveredRevs = len(s.Revisions)
				st.restored += s.Results
				if s.MaxParticipant > st.maxParticipant {
					st.maxParticipant = s.MaxParticipant
				}
			}
			first = false
			accept()
			st.lines++
			continue
		}
		first = false
		if rec.Revision != nil {
			// Revisions are load-bearing plan state: an inapplicable one is
			// interior corruption even at the tail, because it sits where
			// the live supervisor applied it — a revision that once applied
			// cleanly always replays cleanly. One the head snapshot carries
			// was applied before its capture and written after its line.
			if rec.Revision.Seq >= coveredRevs {
				if err := rp.replayRevision(*rec.Revision); err != nil {
					return st, fmt.Errorf("platform: journal revision %d: %w", rec.Revision.Seq, err)
				}
			}
			accept()
			st.lines++
			continue
		}
		if covered[[2]int{rec.TaskID, rec.Copy}] {
			// Applied before the snapshot's capture, appended after its
			// line: the snapshot already carries this result.
			delete(covered, [2]int{rec.TaskID, rec.Copy})
			accept()
			st.lines++
			continue
		}
		a := sched.Assignment{TaskID: rec.TaskID, Copy: rec.Copy, Ringer: rec.Ringer}
		if err := rp.replayResult(a, rec.Participant, rec.Value); err != nil {
			if torn, ok := err.(replayTornError); ok {
				pendingErr = torn.err
				continue
			}
			return st, err
		}
		if rec.Participant > st.maxParticipant {
			st.maxParticipant = rec.Participant
		}
		st.restored++
		accept()
		st.lines++
	}
	if err := sc.Err(); err != nil {
		return st, err
	}
	return st, nil
}

// replayTornError wraps a replay failure that should be tolerated when it
// is the journal's final line (the torn-tail rule) but is corruption when
// followed by more data.
type replayTornError struct{ err error }

func (e replayTornError) Error() string { return e.err.Error() }

// supReplayer adapts a Supervisor to journalReplayer. Each replayed copy is
// marked in the queue, which refuses an unknown or duplicate record at its
// own line; Settle completes the marked copies in one pass before a
// revision applies and once the journal has replayed. Verdicts apply at
// now, the restore's start time.
type supReplayer struct {
	s   *Supervisor
	now time.Time
}

func (r *supReplayer) replayResult(a sched.Assignment, participant int, value uint64) error {
	task := a.TaskID
	if a.TaskID = r.s.cfg.ids.local(task); !r.s.lease.Queue().MarkCompleted(a) {
		return replayTornError{fmt.Errorf("platform: journal replays unknown assignment task=%d copy=%d",
			task, a.Copy)}
	}
	v, done, err := r.s.audit.collector.Submit(verify.Result{Assignment: a, Participant: participant, Value: value})
	if err != nil {
		return fmt.Errorf("platform: journal replay: %w", err)
	}
	if done {
		r.s.applyVerdict(&v, r.now)
	}
	return nil
}

func (r *supReplayer) replayRevision(rec revisionRecord) error {
	// A revision names global IDs of the one shared plan, and a cluster
	// shard never revises (NewCluster refuses Adapt).
	if r.s.cfg.ids != nil {
		return errors.New("platform: a cluster shard's journal holds a plan revision")
	}
	// The revision reads EverIssued and appends to the pool.
	if err := r.s.lease.Queue().Settle(); err != nil {
		return err
	}
	return r.s.applyRevisionLocked(rec)
}
