package sim

import (
	"math"
	goruntime "runtime"
	"testing"
	"unsafe"

	"redundancy/internal/sched"
)

// TestScenarioAllocsPerTask guards the scenario lab's allocation budget:
// the per-event hot path (event heap, backlogs, coalition bookkeeping,
// verifier slabs) is arena-backed, so a run's allocation count is O(setup)
// — plan construction, arena sizing — and amortizes to well under one
// allocation per task. The pre-arena lab spent ~7.7 allocations per task;
// a regression that reintroduces per-assignment allocation overshoots
// this bound by two orders of magnitude.
func TestScenarioAllocsPerTask(t *testing.T) {
	sc, ok := ScenarioByName(TemplateDrifting)
	if !ok {
		t.Fatal("missing drifting template")
	}
	const tasks = 20_000
	sc = sc.WithScale(tasks, tasks)
	allocs := testing.AllocsPerRun(2, func() {
		if _, err := RunScenario(sc); err != nil {
			t.Fatal(err)
		}
	})
	if perTask := allocs / tasks; perTask > 0.25 {
		t.Errorf("scenario run allocates %.0f times for %d tasks (%.3f per task, budget 0.25)",
			allocs, tasks, perTask)
	}
}

// TestScenarioBytesPerTask guards the scenario lab's per-task byte budget:
// every byte a drifting run at 10^5 tasks allocates, set-up and report
// included, divided by its tasks. Per task the run holds the plan's specs
// while the queue and collector are built, the queue's slots and the
// collector's tables; per assignment a 12-byte backlog entry; per worker
// (one a task here) a 12-byte simWorker and a 16-byte heap node: about
// 184 B in all (DESIGN.md §15 itemizes it), under a 240 B budget.
func TestScenarioBytesPerTask(t *testing.T) {
	sc, ok := ScenarioByName(TemplateDrifting)
	if !ok {
		t.Fatal("missing drifting template")
	}
	const tasks = 100_000
	sc = sc.WithScale(tasks, tasks)
	var before, after goruntime.MemStats
	goruntime.ReadMemStats(&before)
	if _, err := RunScenario(sc); err != nil {
		t.Fatal(err)
	}
	goruntime.ReadMemStats(&after)
	perTask := float64(after.TotalAlloc-before.TotalAlloc) / tasks
	t.Logf("%.0f bytes allocated per task", perTask)
	if perTask > 240 {
		t.Errorf("scenario run allocates %.0f B per task, budget 240", perTask)
	}
}

// TestRunStateSizes pins the per-worker, per-assignment and per-event
// footprints the byte budget above is built from.
func TestRunStateSizes(t *testing.T) {
	for _, c := range []struct {
		name      string
		got, want uintptr
	}{
		{"simWorker", unsafe.Sizeof(simWorker{}), 12},
		{"sched.Slot", unsafe.Sizeof(sched.Slot{}), 8},
		{"heapNode", unsafe.Sizeof(heapNode{}), 16},
	} {
		if c.got != c.want {
			t.Errorf("%s is %d bytes, want %d", c.name, c.got, c.want)
		}
	}
}

// TestBacklogEntryRoundTrip: a backlog entry (sched's queue slot) gives
// back the assignment it packed, at the widest task ID and copy index the
// queue deals and with the Ringer bit beside the copy index.
func TestBacklogEntryRoundTrip(t *testing.T) {
	for _, a := range []sched.Assignment{
		{},
		{TaskID: 1, Copy: 2},
		{TaskID: 7, Copy: math.MaxInt32, Ringer: true},
		{TaskID: math.MaxInt32, Copy: math.MaxInt32},
		{TaskID: math.MaxInt32, Copy: 0, Ringer: true},
	} {
		if s, ok := sched.Pack(a); !ok || s.Assignment() != a {
			t.Errorf("sched.Pack(%+v) = %+v, %v; unpacks to %+v", a, s, ok, s.Assignment())
		}
	}
}

// BenchmarkScenarioDrifting measures the full scenario pipeline (deal,
// simulate, verify, adjudicate, report) per task.
func BenchmarkScenarioDrifting(b *testing.B) {
	sc, ok := ScenarioByName(TemplateDrifting)
	if !ok {
		b.Fatal("missing drifting template")
	}
	const tasks = 50_000
	sc = sc.WithScale(tasks, tasks)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep, err := RunScenario(sc)
		if err != nil {
			b.Fatal(err)
		}
		if rep.Tasks != rep.PlannedTasks {
			b.Fatalf("adjudicated %d of %d", rep.Tasks, rep.PlannedTasks)
		}
	}
	b.ReportMetric(float64(b.N)*tasks/b.Elapsed().Seconds(), "tasks/s")
}
