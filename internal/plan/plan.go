// Package plan converts the theoretical (real-valued, effectively
// infinite-dimensional) distributions of package dist into deployable
// integer assignment plans using the adaptation of §6 of the paper:
//
//  1. round each class size a_i down to the nearest integer;
//  2. find i_f, the first multiplicity whose theoretical class size falls
//     below one; tasks not yet covered by the rounded classes form the
//     "tail partition", each assigned with multiplicity i_f;
//  3. precompute r "ringer" tasks, each distributed i_f+1 times, with
//     r > x_{i_f}·ε / ((1−ε)(i_f+1)), which restores the detection
//     guarantee for i_f-tuples that truncation would otherwise destroy.
//
// The result is a Plan: an exact integer multiset of assignments that a
// scheduler can hand to real participants.
package plan

import (
	"fmt"
	"math"

	"redundancy/internal/dist"
)

// Plan is a concrete, integer-valued deployment of a distribution scheme.
type Plan struct {
	// Epsilon is the detection threshold the plan is built for.
	Epsilon float64
	// N is the number of real (non-ringer) tasks.
	N int
	// Counts[i] is the integer number of regular tasks assigned with
	// multiplicity i+1, for multiplicities below the tail.
	Counts []int
	// TailMultiplicity is i_f: the multiplicity given to every tail task.
	TailMultiplicity int
	// TailTasks is the number of tasks in the tail partition.
	TailTasks int
	// Ringers is the number of precomputed ringer tasks, each assigned
	// RingerMultiplicity times.
	Ringers int
	// RingerMultiplicity is i_f + 1.
	RingerMultiplicity int
	// Revisions records mid-run re-planning steps (promotions of queued
	// tasks to higher multiplicities and minted ringers), applied in order
	// on top of the base layout above. Always appended through
	// ApplyRevision, which validates each step. Empty for a static plan.
	Revisions []Revision `json:",omitempty"`
}

// FromDistribution builds the §6 integer plan for a theoretical scheme d at
// threshold epsilon. The scheme's task mass must be an integer-valued N (to
// within rounding) of at least 1. The construction targets schemes with a
// decaying tail (Balanced, Golle–Stubblebine, the §7 extension); schemes
// that already end in a large top class (simple redundancy, the LP optima)
// come out with an empty tail and no ringers, since their top class is
// verified by the supervisor instead (§2.2).
func FromDistribution(d *dist.Distribution, epsilon float64) (*Plan, error) {
	if !(epsilon > 0 && epsilon < 1) {
		return nil, fmt.Errorf("plan: threshold must lie in (0,1), got %v", epsilon)
	}
	n := int(math.Round(d.N()))
	if n < 1 {
		return nil, fmt.Errorf("plan: distribution has no tasks (N=%v)", d.N())
	}

	// i_f: one past the last multiplicity with a whole task's worth of
	// mass. Everything from i_f on is swept into the tail partition.
	last := 0
	for i := 1; i <= d.Dimension(); i++ {
		if d.Count(i) >= 1 {
			last = i
		}
	}
	if last == 0 {
		return nil, fmt.Errorf("plan: no multiplicity class holds a whole task (N=%v)", d.N())
	}
	iF := last + 1

	p := &Plan{
		Epsilon:            epsilon,
		N:                  n,
		Counts:             make([]int, last),
		TailMultiplicity:   iF,
		RingerMultiplicity: iF + 1,
	}
	assignedTasks := 0
	for i := 1; i <= last; i++ {
		c := int(math.Floor(d.Count(i)))
		p.Counts[i-1] = c
		assignedTasks += c
	}
	p.TailTasks = n - assignedTasks
	if p.TailTasks < 0 {
		return nil, fmt.Errorf("plan: rounded classes exceed N (%d > %d)", assignedTasks, n)
	}

	// Ringer count: r > x_{i_f}·ε / ((1−ε)(i_f+1)), §6. With an empty tail
	// no i_f-tuples exist and no ringers are needed.
	if p.TailTasks > 0 {
		bound := float64(p.TailTasks) * epsilon / ((1 - epsilon) * float64(iF+1))
		p.Ringers = int(math.Floor(bound)) + 1
	}
	return p, nil
}

// Balanced builds the deployable plan of the Balanced distribution for n
// tasks at threshold epsilon — the paper's recommended configuration.
func Balanced(n int, epsilon float64) (*Plan, error) {
	d, err := dist.Balanced(float64(n), epsilon)
	if err != nil {
		return nil, err
	}
	return FromDistribution(d, epsilon)
}

// TotalTasks returns the number of real tasks covered by the plan
// (always equal to N by construction).
func (p *Plan) TotalTasks() int {
	t := p.TailTasks
	for _, c := range p.Counts {
		t += c
	}
	return t
}

// TotalAssignments returns the number of assignments handed out, including
// tail copies, ringer copies, and any copies added by revisions. For the
// common unrevised case this is O(classes), never O(N) — paper-scale plans
// run to N = 10⁹ tasks.
func (p *Plan) TotalAssignments() int {
	a := 0
	for i, c := range p.Counts {
		a += (i + 1) * c
	}
	a += p.TailTasks*p.TailMultiplicity + p.Ringers*p.RingerMultiplicity
	if len(p.Revisions) == 0 {
		return a
	}
	s, _ := p.revisedState()
	a = 0
	for _, c := range s.copies {
		a += c
	}
	return a
}

// PrecomputedAssignments returns the number of assignments whose results
// the supervisor must compute itself (the ringer copies, base and minted).
func (p *Plan) PrecomputedAssignments() int {
	a := p.Ringers * p.RingerMultiplicity
	for _, rev := range p.Revisions {
		for _, m := range rev.Minted {
			a += m.Copies
		}
	}
	return a
}

// TotalRingers returns the number of ringer tasks, base plus minted.
func (p *Plan) TotalRingers() int {
	r := p.Ringers
	for _, rev := range p.Revisions {
		r += len(rev.Minted)
	}
	return r
}

// RedundancyFactor returns assignments per real task.
func (p *Plan) RedundancyFactor() float64 {
	return float64(p.TotalAssignments()) / float64(p.N)
}

// Distribution converts the plan back into a dist.Distribution, including
// the tail partition, ringer tasks, and any revisions, so the detection
// formulas of package dist apply to the deployed scheme exactly as §6
// analyzes it.
func (p *Plan) Distribution() *dist.Distribution {
	reg, ring := p.SplitDistribution()
	for i := 1; i <= len(ring.Counts); i++ {
		if c := ring.Count(i); c > 0 {
			reg.SetCount(i, reg.Count(i)+c)
		}
	}
	reg.Name = "plan"
	return reg
}

// SplitDistribution converts the (possibly revised) plan into two
// distributions: the regular-task mass and the ringer mass. The split is
// what the detection audit needs — a fully-controlled ringer tuple is
// always caught against precomputed truth, so ringer mass strengthens
// every class's denominator without ever contributing an escape
// (dist.DetectionAtSplit).
func (p *Plan) SplitDistribution() (regular, ringers *dist.Distribution) {
	regular = &dist.Distribution{Name: "plan-regular"}
	ringers = &dist.Distribution{Name: "plan-ringers"}
	if len(p.Revisions) == 0 {
		// O(classes) fast path: paper-scale plans have N far too large to
		// expand per task.
		for i, c := range p.Counts {
			if c > 0 {
				regular.SetCount(i+1, float64(c))
			}
		}
		if p.TailTasks > 0 {
			regular.SetCount(p.TailMultiplicity,
				regular.Count(p.TailMultiplicity)+float64(p.TailTasks))
		}
		if p.Ringers > 0 {
			ringers.SetCount(p.RingerMultiplicity, float64(p.Ringers))
		}
		return regular, ringers
	}
	s, _ := p.revisedState()
	for id, c := range s.copies {
		d := regular
		if s.ringer[id] {
			d = ringers
		}
		d.SetCount(c, d.Count(c)+1)
	}
	return regular, ringers
}

// Audit verifies the deployed plan end to end: integer consistency (every
// task covered exactly once, non-negative classes, revisions that replay
// cleanly) and the detection guarantee P_k >= ε−tol for every multiplicity
// k at which regular tasks exist. Thanks to the ringers this includes
// k = i_f, the constraint the truncation alone could not satisfy. Classes
// holding only ringers are vacuously safe: ringer results are precomputed,
// so cheating there is always detected (dist.DetectionAtSplit encodes
// exactly that asymmetry, which also covers revised plans whose promoted
// tasks share a class with ringers).
func (p *Plan) Audit(tol float64) []string {
	var problems []string
	if p.TotalTasks() != p.N {
		problems = append(problems,
			fmt.Sprintf("plan covers %d tasks, want %d", p.TotalTasks(), p.N))
	}
	for i, c := range p.Counts {
		if c < 0 {
			problems = append(problems, fmt.Sprintf("negative class at multiplicity %d", i+1))
		}
	}
	if p.TailTasks < 0 || p.Ringers < 0 {
		problems = append(problems, "negative tail or ringer count")
	}
	if p.TailTasks > 0 && p.Ringers == 0 {
		problems = append(problems, "tail partition present but no ringers precomputed")
	}
	if len(p.Revisions) > 0 {
		if _, err := p.revisedState(); err != nil {
			problems = append(problems, err.Error())
			return problems // detection numbers are meaningless past a bad revision
		}
	}
	reg, ring := p.SplitDistribution()
	for k := 1; k <= len(reg.Counts); k++ {
		if reg.Count(k) == 0 {
			continue // vacuous: no regular k-multiplicity tasks to cheat on
		}
		if pk := dist.DetectionAtSplit(reg, ring, k, 0); pk < p.Epsilon-tol {
			problems = append(problems,
				fmt.Sprintf("deployed P_%d = %.6f < ε = %g", k, pk, p.Epsilon))
		}
	}
	return problems
}

// String summarizes the plan.
func (p *Plan) String() string {
	rev := ""
	if len(p.Revisions) > 0 {
		rev = fmt.Sprintf(", revisions=%d", len(p.Revisions))
	}
	return fmt.Sprintf(
		"plan{N=%d, ε=%g, classes=%d, i_f=%d, tail=%d, ringers=%d, assignments=%d, factor=%.4f%s}",
		p.N, p.Epsilon, len(p.Counts), p.TailMultiplicity, p.TailTasks, p.TotalRingers(),
		p.TotalAssignments(), p.RedundancyFactor(), rev)
}

// TaskSpec describes one concrete task in a deployable plan.
type TaskSpec struct {
	// ID numbers real tasks 0..N-1; ringers continue from N.
	ID int
	// Copies is how many assignments of this task are created.
	Copies int
	// Ringer marks supervisor-precomputed tasks.
	Ringer bool
}

// Run is a stretch of tasks with consecutive IDs that share a multiplicity
// and a kind: tasks First..First+Count-1, each assigned Copies times. A
// plan's multiplicity histogram is a handful of runs however many tasks it
// holds, so tables sized per task are filled from runs, never from a list
// of TaskSpecs.
type Run struct {
	First  int
	Count  int
	Copies int
	Ringer bool
}

// End returns the ID after the run's last task.
func (r Run) End() int { return r.First + r.Count }

// Runs returns the plan's layout as runs in ID order: real tasks class by
// class, then the tail partition, then base ringers, then what revisions
// promoted and minted. An unrevised plan gives one run per non-empty class;
// a revised one gives the runs of its replayed state, so a promotion splits
// the run it lands in. It is the one definition of the layout: Tasks is its
// expansion.
func (p *Plan) Runs() []Run {
	if len(p.Revisions) > 0 {
		s, _ := p.revisedState()
		return s.runs()
	}
	return p.baseRuns()
}

// baseRuns lays out the unrevised plan.
func (p *Plan) baseRuns() []Run {
	runs := make([]Run, 0, len(p.Counts)+2)
	id := 0
	add := func(count, copies int, ringer bool) {
		if count > 0 {
			runs = append(runs, Run{First: id, Count: count, Copies: copies, Ringer: ringer})
			id += count
		}
	}
	for i, c := range p.Counts {
		add(c, i+1, false)
	}
	add(p.TailTasks, p.TailMultiplicity, false)
	add(p.Ringers, p.RingerMultiplicity, true)
	return runs
}

// Expand returns one TaskSpec per task of runs, in run order.
func Expand(runs []Run) []TaskSpec {
	n := 0
	for _, r := range runs {
		n += max(r.Count, 0)
	}
	specs := make([]TaskSpec, 0, n)
	for _, r := range runs {
		for id := r.First; id < r.End(); id++ {
			specs = append(specs, TaskSpec{ID: id, Copies: r.Copies, Ringer: r.Ringer})
		}
	}
	return specs
}

// Compress returns the fewest runs that expand to specs, in the same
// order, allocated once.
func Compress(specs []TaskSpec) []Run {
	n := 0
	for i := range specs {
		if i == 0 || !continues(specs[i-1], specs[i]) {
			n++
		}
	}
	runs := make([]Run, 0, n)
	for i, s := range specs {
		if i > 0 && continues(specs[i-1], s) {
			runs[len(runs)-1].Count++
			continue
		}
		runs = append(runs, Run{First: s.ID, Count: 1, Copies: s.Copies, Ringer: s.Ringer})
	}
	return runs
}

// continues reports whether b extends a run that ends with a.
func continues(a, b TaskSpec) bool {
	return b.ID == a.ID+1 && b.Copies == a.Copies && b.Ringer == a.Ringer
}

// Tasks expands the plan into one TaskSpec per task, in the order of Runs.
func (p *Plan) Tasks() []TaskSpec { return Expand(p.Runs()) }
