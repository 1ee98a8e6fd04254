package plan

import (
	"fmt"
)

// maxRevisedCopies bounds any single task's multiplicity after a revision.
// It is far above anything a sane controller produces; the bound exists so
// a corrupted or hostile plan file cannot make Tasks or a scheduler
// allocate per-copy state without limit.
const maxRevisedCopies = 1 << 16

// Promotion raises one not-yet-dispatched regular task from its current
// multiplicity to a higher one — the adaptive controller's response to an
// adversary share p̂ larger than the plan was built for.
type Promotion struct {
	// TaskID identifies the task in the plan's ID space (see Tasks).
	TaskID int `json:"task"`
	// From is the task's multiplicity before the revision; recorded so a
	// revision can be validated against (and only against) the exact plan
	// state it was computed from.
	From int `json:"from"`
	// To is the new multiplicity, strictly greater than From.
	To int `json:"to"`
}

// Mint appends a new supervisor-precomputed ringer task to the plan.
// Minted ringers restore detection power for classes whose regular tasks
// are already dispatched and therefore cannot be promoted.
type Mint struct {
	// TaskID must continue the plan's ID sequence (NextTaskID at the time
	// the revision is applied), so IDs never collide or leave gaps.
	TaskID int `json:"task"`
	// Copies is the minted ringer's multiplicity.
	Copies int `json:"copies"`
}

// Revision is one atomic mid-run re-planning step: a set of promotions and
// ringer mints computed together by the adaptive controller. Revisions are
// applied in order on top of the base layout and are part of the plan's
// persistent state (Save/Load round-trips them; the platform journals them).
type Revision struct {
	Promotions []Promotion `json:"promotions,omitempty"`
	Minted     []Mint      `json:"minted,omitempty"`
}

// Empty reports whether the revision changes nothing.
func (r Revision) Empty() bool { return len(r.Promotions) == 0 && len(r.Minted) == 0 }

// CopiesAdded returns the number of assignments the revision creates —
// promoted copies plus minted ringer copies.
func (r Revision) CopiesAdded() int {
	n := 0
	for _, p := range r.Promotions {
		n += p.To - p.From
	}
	for _, m := range r.Minted {
		n += m.Copies
	}
	return n
}

// revState is the per-task view of a plan after zero or more revisions:
// copies[id] is task id's current multiplicity, ringer[id] marks
// precomputed tasks. Task IDs are dense (0..len-1), so slices suffice.
type revState struct {
	copies []int
	ringer []bool
}

// baseState lays out the unrevised plan task by task, as baseRuns orders
// it.
func (p *Plan) baseState() *revState {
	s := &revState{}
	for _, r := range p.baseRuns() {
		for range r.Count {
			s.copies = append(s.copies, r.Copies)
			s.ringer = append(s.ringer, r.Ringer)
		}
	}
	return s
}

// apply validates rev against the current state and mutates the state on
// success. On error the state is left unchanged.
func (s *revState) apply(rev Revision) error {
	// Validate everything before touching state, so a failed revision
	// cannot half-apply.
	seen := make(map[int]bool, len(rev.Promotions))
	staged := make(map[int]int, len(rev.Promotions))
	for i, pr := range rev.Promotions {
		if pr.TaskID < 0 || pr.TaskID >= len(s.copies) {
			return fmt.Errorf("promotion %d: task %d outside plan", i, pr.TaskID)
		}
		if s.ringer[pr.TaskID] {
			return fmt.Errorf("promotion %d: task %d is a ringer", i, pr.TaskID)
		}
		if seen[pr.TaskID] {
			return fmt.Errorf("promotion %d: task %d promoted twice in one revision", i, pr.TaskID)
		}
		seen[pr.TaskID] = true
		if pr.From != s.copies[pr.TaskID] {
			return fmt.Errorf("promotion %d: task %d has %d copies, revision expects %d",
				i, pr.TaskID, s.copies[pr.TaskID], pr.From)
		}
		if pr.To <= pr.From || pr.To > maxRevisedCopies {
			return fmt.Errorf("promotion %d: task %d multiplicity %d -> %d is not a valid raise",
				i, pr.TaskID, pr.From, pr.To)
		}
		staged[pr.TaskID] = pr.To
	}
	next := len(s.copies)
	for i, m := range rev.Minted {
		if m.TaskID != next {
			return fmt.Errorf("mint %d: ringer ID %d breaks the ID sequence (want %d)", i, m.TaskID, next)
		}
		if m.Copies < 1 || m.Copies > maxRevisedCopies {
			return fmt.Errorf("mint %d: ringer %d has invalid multiplicity %d", i, m.TaskID, m.Copies)
		}
		next++
	}
	for id, to := range staged {
		s.copies[id] = to
	}
	for _, m := range rev.Minted {
		s.copies = append(s.copies, m.Copies)
		s.ringer = append(s.ringer, true)
	}
	return nil
}

// runs compresses the state into the runs it expands from.
func (s *revState) runs() []Run {
	var runs []Run
	for id, c := range s.copies {
		if n := len(runs); n > 0 && runs[n-1].Copies == c && runs[n-1].Ringer == s.ringer[id] {
			runs[n-1].Count++
			continue
		}
		runs = append(runs, Run{First: id, Count: 1, Copies: c, Ringer: s.ringer[id]})
	}
	return runs
}

// maxRevisableTasks bounds the plans whose revisions we will replay:
// replay materializes per-task state, which is fine for the platform-scale
// plans revisions exist for and hopeless for the paper's N = 10⁹ analysis
// vectors (which are never revised). The guard keeps a hostile plan file —
// huge task counts plus a revision — from forcing the allocation.
const maxRevisableTasks = 1 << 22

// revisedState replays every recorded revision over the base layout,
// stopping at (and reporting) the first invalid one. A plan whose
// revisions all came through ApplyRevision never stops early; the error
// path exists for hand-edited or corrupted plan files, which Audit turns
// into a rejection.
func (p *Plan) revisedState() (*revState, error) {
	total := 0
	for _, c := range append(append([]int{}, p.Counts...), p.TailTasks, p.Ringers) {
		if c > maxRevisableTasks {
			return &revState{}, fmt.Errorf("plan has too many tasks to revise (> %d)", maxRevisableTasks)
		}
		if c > 0 {
			total += c
		}
		if total > maxRevisableTasks {
			return &revState{}, fmt.Errorf("plan has too many tasks to revise (> %d)", maxRevisableTasks)
		}
	}
	s := p.baseState()
	for i, rev := range p.Revisions {
		if err := s.apply(rev); err != nil {
			return s, fmt.Errorf("revision %d: %v", i, err)
		}
	}
	return s, nil
}

// NextTaskID returns the first unused task ID — the ID the next minted
// ringer must take.
func (p *Plan) NextTaskID() int {
	n := p.N + p.Ringers
	for _, rev := range p.Revisions {
		n += len(rev.Minted)
	}
	return n
}

// ValidateRevision checks that rev can be applied on top of the plan's
// current revisions without changing anything.
func (p *Plan) ValidateRevision(rev Revision) error {
	s, err := p.revisedState()
	if err != nil {
		return err
	}
	return s.apply(rev)
}

// ApplyRevision validates rev against the plan's current state and records
// it. The revision becomes part of the plan's persistent identity: Tasks,
// Distribution, TotalAssignments, and Audit all reflect it, and Save
// round-trips it.
func (p *Plan) ApplyRevision(rev Revision) error {
	if err := p.ValidateRevision(rev); err != nil {
		return fmt.Errorf("plan: revision rejected: %w", err)
	}
	recorded := Revision{
		Promotions: append([]Promotion(nil), rev.Promotions...),
		Minted:     append([]Mint(nil), rev.Minted...),
	}
	p.Revisions = append(p.Revisions, recorded)
	return nil
}
