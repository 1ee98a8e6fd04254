package plan

import (
	"reflect"
	"testing"

	"redundancy/internal/dist"
)

// referenceTasks lays a plan out one task at a time, as the per-task
// expansion always has: every class's tasks, then the tail partition, then
// the base ringers, then each revision's promotions and mints on top.
func referenceTasks(t *testing.T, p *Plan) []TaskSpec {
	t.Helper()
	var specs []TaskSpec
	add := func(count, copies int, ringer bool) {
		for range count {
			specs = append(specs, TaskSpec{ID: len(specs), Copies: copies, Ringer: ringer})
		}
	}
	for i, c := range p.Counts {
		add(c, i+1, false)
	}
	add(p.TailTasks, p.TailMultiplicity, false)
	add(p.Ringers, p.RingerMultiplicity, true)
	for i, rev := range p.Revisions {
		for _, pr := range rev.Promotions {
			if specs[pr.TaskID].Copies != pr.From {
				t.Fatalf("revision %d promotes task %d from %d, it has %d", i, pr.TaskID, pr.From, specs[pr.TaskID].Copies)
			}
			specs[pr.TaskID].Copies = pr.To
		}
		for _, m := range rev.Minted {
			specs = append(specs, TaskSpec{ID: m.TaskID, Copies: m.Copies, Ringer: true})
		}
	}
	return specs
}

// TestRunsExpandToTasks: the runs of every kind of plan expand to the
// per-task layout, are the fewest runs that do, and an unrevised plan has
// one run per non-empty class.
func TestRunsExpandToTasks(t *testing.T) {
	mustPlan := func(d *dist.Distribution, err error) *Plan {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		p, err := FromDistribution(d, 0.75)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	balanced, err := Balanced(50_000, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	tail, err := Balanced(1_000_000, 0.75)
	if err != nil {
		t.Fatal(err)
	}
	if tail.TailTasks == 0 || tail.Ringers == 0 {
		t.Fatalf("Balanced(10^6, 0.75) has %d tail tasks and %d ringers, want some of each", tail.TailTasks, tail.Ringers)
	}
	revised, err := Balanced(2_000, 0.75)
	if err != nil {
		t.Fatal(err)
	}
	// Promote a task in the middle of the first class, the last task of
	// the second and, in a later revision, the same middle task again, and
	// mint in both: the promotions split runs, and the mints follow the
	// base ringers.
	c0 := revised.Counts[0]
	for i, rev := range []Revision{
		{
			Promotions: []Promotion{{TaskID: c0 / 2, From: 1, To: 3}, {TaskID: c0 + revised.Counts[1] - 1, From: 2, To: 3}},
			Minted:     []Mint{{TaskID: revised.NextTaskID(), Copies: 4}, {TaskID: revised.NextTaskID() + 1, Copies: 4}},
		},
		{
			Promotions: []Promotion{{TaskID: c0 / 2, From: 3, To: 5}, {TaskID: c0/2 + 1, From: 1, To: 2}},
			Minted:     []Mint{{TaskID: revised.NextTaskID() + 2, Copies: 2}},
		},
	} {
		if err := revised.ApplyRevision(rev); err != nil {
			t.Fatalf("revision %d: %v", i, err)
		}
	}

	for _, tc := range []struct {
		name string
		p    *Plan
	}{
		{"balanced", balanced},
		{"golle-stubblebine", mustPlan(dist.GolleStubblebineForThreshold(100_000, 0.75))},
		{"simple", mustPlan(dist.Simple(1_000), nil)},
		{"min-multiplicity", mustPlan(dist.MinMultiplicity(100_000, 0.5, 2))},
		{"tail-partitioned", tail},
		{"revised", revised},
	} {
		runs := tc.p.Runs()
		want := referenceTasks(t, tc.p)
		if got := Expand(runs); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: %d runs expand to %d tasks, not the %d of the per-task layout", tc.name, len(runs), len(got), len(want))
		}
		if got := tc.p.Tasks(); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: Tasks differs from the per-task layout", tc.name)
		}
		if fewest := Compress(want); !reflect.DeepEqual(runs, fewest) {
			t.Errorf("%s: %d runs, the layout compresses to %d", tc.name, len(runs), len(fewest))
		}
		if len(tc.p.Revisions) > 0 {
			continue
		}
		classes := 0
		for _, c := range append(append([]int{}, tc.p.Counts...), tc.p.TailTasks, tc.p.Ringers) {
			if c > 0 {
				classes++
			}
		}
		if len(runs) != classes {
			t.Errorf("%s: %d runs for %d non-empty classes", tc.name, len(runs), classes)
		}
	}
}

// TestCompressRoundTrips: Compress merges exactly the neighbours that
// continue a run, whatever the order and gaps of its specs.
func TestCompressRoundTrips(t *testing.T) {
	specs := []TaskSpec{
		{ID: 4, Copies: 2}, {ID: 5, Copies: 2}, {ID: 6, Copies: 2, Ringer: true},
		{ID: 7, Copies: 2, Ringer: true}, {ID: 9, Copies: 2, Ringer: true},
		{ID: 10, Copies: 3, Ringer: true}, {ID: 0, Copies: 1}, {ID: 1, Copies: 1},
	}
	want := []Run{
		{First: 4, Count: 2, Copies: 2}, {First: 6, Count: 2, Copies: 2, Ringer: true},
		{First: 9, Count: 1, Copies: 2, Ringer: true}, {First: 10, Count: 1, Copies: 3, Ringer: true},
		{First: 0, Count: 2, Copies: 1},
	}
	runs := Compress(specs)
	if !reflect.DeepEqual(runs, want) {
		t.Fatalf("Compress = %+v, want %+v", runs, want)
	}
	if got := Expand(runs); !reflect.DeepEqual(got, specs) {
		t.Fatalf("Expand(Compress(specs)) = %+v", got)
	}
	if len(Compress(nil)) != 0 || len(Expand(nil)) != 0 {
		t.Fatal("an empty spec list has no runs")
	}
}
