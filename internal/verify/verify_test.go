package verify

import (
	"math"
	"reflect"
	"testing"

	"redundancy/internal/sched"
)

func res(task, copy, participant int, value uint64, ringer bool) Result {
	return Result{
		Assignment:  sched.Assignment{TaskID: task, Copy: copy, Ringer: ringer},
		Participant: participant,
		Value:       value,
	}
}

func TestUnanimousResultsAccepted(t *testing.T) {
	c := NewCollector(nil)
	c.Expect(1, 3)
	for i := 0; i < 2; i++ {
		v, done, err := c.Submit(res(1, i, 10+i, 42, false))
		if err != nil || done {
			t.Fatalf("early adjudication: %+v %v %v", v, done, err)
		}
	}
	v, done, err := c.Submit(res(1, 2, 12, 42, false))
	if err != nil || !done {
		t.Fatalf("final copy: done=%v err=%v", done, err)
	}
	if !v.Accepted || v.Value != 42 || v.MismatchDetected || len(v.Suspects) != 0 {
		t.Errorf("verdict = %+v", v)
	}
}

func TestUnanimousLieAcceptedUndetected(t *testing.T) {
	// The core vulnerability: a coalition holding every copy returns the
	// same wrong value and redundancy certifies it.
	c := NewCollector(nil)
	c.Expect(7, 2)
	c.Submit(res(7, 0, 1, 666, false))
	v, done, _ := c.Submit(res(7, 1, 2, 666, false))
	if !done || !v.Accepted || v.MismatchDetected {
		t.Errorf("unanimous lie should be (wrongly) accepted: %+v", v)
	}
}

func TestMismatchDetectedMajoritySuspects(t *testing.T) {
	c := NewCollector(nil)
	c.Expect(3, 3)
	c.Submit(res(3, 0, 1, 5, false))
	c.Submit(res(3, 1, 2, 5, false))
	v, done, _ := c.Submit(res(3, 2, 3, 9, false))
	if !done || !v.MismatchDetected || v.Accepted {
		t.Fatalf("verdict = %+v", v)
	}
	if !reflect.DeepEqual(v.Suspects, []int{3}) {
		t.Errorf("suspects = %v, want the minority voter", v.Suspects)
	}
}

func TestEvenSplitSuspectsEveryone(t *testing.T) {
	c := NewCollector(nil)
	c.Expect(4, 2)
	c.Submit(res(4, 0, 1, 5, false))
	v, done, _ := c.Submit(res(4, 1, 2, 9, false))
	if !done || !v.MismatchDetected {
		t.Fatalf("verdict = %+v", v)
	}
	if !reflect.DeepEqual(v.Suspects, []int{1, 2}) {
		t.Errorf("suspects = %v, want both (no majority)", v.Suspects)
	}
}

func TestRingerExposesUnanimousLie(t *testing.T) {
	truth := func(taskID int) uint64 { return 1000 + uint64(taskID) }
	c := NewCollector(truth)
	c.Expect(5, 2)
	c.Submit(res(5, 0, 1, 666, true))
	v, done, _ := c.Submit(res(5, 1, 2, 666, true))
	if !done || !v.MismatchDetected || v.Accepted {
		t.Fatalf("ringer lie not detected: %+v", v)
	}
	if !reflect.DeepEqual(v.Suspects, []int{1, 2}) {
		t.Errorf("suspects = %v", v.Suspects)
	}
	if v.Value != 1005 {
		t.Errorf("certified value = %d, want the precomputed truth", v.Value)
	}
}

func TestRingerCorrectResultsAccepted(t *testing.T) {
	truth := func(taskID int) uint64 { return 77 }
	c := NewCollector(truth)
	c.Expect(9, 1)
	v, done, _ := c.Submit(res(9, 0, 4, 77, true))
	if !done || !v.Accepted || v.MismatchDetected {
		t.Errorf("verdict = %+v", v)
	}
}

func TestRingerWithoutOraclePanics(t *testing.T) {
	c := NewCollector(nil)
	c.Expect(1, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	c.Submit(res(1, 0, 1, 5, true))
}

func TestUnregisteredTaskRejected(t *testing.T) {
	c := NewCollector(nil)
	if _, _, err := c.Submit(res(1, 0, 1, 5, false)); err == nil {
		t.Error("expected error for unregistered task")
	}
}

func TestTooManyResultsRejected(t *testing.T) {
	c := NewCollector(nil)
	c.Expect(1, 1)
	c.Submit(res(1, 0, 1, 5, false))
	if _, _, err := c.Submit(res(1, 1, 2, 5, false)); err == nil {
		t.Error("expected error for extra result")
	}
}

func TestExpectPanicsOnZeroCopies(t *testing.T) {
	c := NewCollector(nil)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	c.Expect(1, 0)
}

// TestExpectPanicsOnAdjudicatedTask: a verdict reads its copies from the
// task slot, so a raise after adjudication would rewrite an issued verdict.
func TestExpectPanicsOnAdjudicatedTask(t *testing.T) {
	c := NewCollector(nil)
	c.Expect(1, 1)
	c.Submit(res(1, 0, 10, 5, false))
	defer func() {
		if recover() == nil {
			t.Fatal("Expect raised an adjudicated task")
		}
		if v, _ := c.VerdictFor(1); v.Copies != 1 || !reflect.DeepEqual(v.Contributors, []int{10}) {
			t.Errorf("the verdict now reads %+v", v)
		}
	}()
	c.Expect(1, 2)
}

// TestExpectPanicsOutOfRange: task slots hold 32-bit IDs and counts, so a
// value past them panics rather than wrap.
func TestExpectPanicsOutOfRange(t *testing.T) {
	for _, row := range []struct {
		name           string
		taskID, copies int
	}{
		{"negative task ID", -1, 1},
		{"task ID above MaxInt32", math.MaxInt32 + 1, 1},
		{"copies above MaxInt32", 1, math.MaxInt32 + 1},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: Expect(%d, %d) did not panic", row.name, row.taskID, row.copies)
				}
			}()
			NewCollector(nil).Expect(row.taskID, row.copies)
		}()
	}
}

func TestBlacklistAccumulates(t *testing.T) {
	c := NewCollector(nil)
	c.Expect(1, 2)
	c.Expect(2, 3)
	c.Submit(res(1, 0, 10, 5, false))
	c.Submit(res(1, 1, 11, 6, false)) // even split: both suspects
	c.Submit(res(2, 0, 20, 1, false))
	c.Submit(res(2, 1, 21, 1, false))
	c.Submit(res(2, 2, 22, 2, false)) // minority suspect 22
	want := []int{10, 11, 22}
	if got := c.Blacklist(); !reflect.DeepEqual(got, want) {
		t.Errorf("blacklist = %v, want %v", got, want)
	}
	if !c.Blacklisted(22) || c.Blacklisted(21) {
		t.Error("Blacklisted lookup wrong")
	}
}

func TestStatsAndCallback(t *testing.T) {
	truth := func(int) uint64 { return 0 }
	c := NewCollector(truth)
	var seen []Verdict
	submit := func(r Result) {
		if v, done, err := c.Submit(r); err != nil {
			t.Fatal(err)
		} else if done {
			seen = append(seen, v)
		}
	}

	c.Expect(1, 2)
	c.Expect(2, 2)
	c.Expect(3, 1)
	submit(res(1, 0, 1, 5, false))
	submit(res(1, 1, 2, 5, false)) // accepted
	submit(res(2, 0, 3, 5, false))
	submit(res(2, 1, 4, 6, false)) // mismatch
	submit(res(3, 0, 5, 9, true))  // ringer caught

	s := c.Stats()
	if s.Tasks != 3 || s.Accepted != 1 || s.MismatchDetected != 2 || s.RingersCaught != 1 {
		t.Errorf("stats = %+v", s)
	}
	if len(seen) != 3 || c.NumVerdicts() != 3 {
		t.Errorf("verdict stream: returned %d, stored %d", len(seen), c.NumVerdicts())
	}
	for i := range seen {
		if v := c.VerdictAt(i); !reflect.DeepEqual(v, seen[i]) {
			t.Errorf("verdict %d reads %+v, Submit returned %+v", i, v, seen[i])
		}
	}
	if c.PendingTasks() != 0 {
		t.Errorf("pending = %d", c.PendingTasks())
	}
}

func TestTieBreakIsDeterministic(t *testing.T) {
	// Two values with equal counts: the smaller value is chosen as the
	// "majority" reference, and with no strict majority all are suspects.
	c := NewCollector(nil)
	c.Expect(1, 4)
	c.Submit(res(1, 0, 1, 9, false))
	c.Submit(res(1, 1, 2, 9, false))
	c.Submit(res(1, 2, 3, 4, false))
	v, done, _ := c.Submit(res(1, 3, 4, 4, false))
	if !done || !v.MismatchDetected {
		t.Fatalf("verdict = %+v", v)
	}
	if !reflect.DeepEqual(v.Suspects, []int{1, 2, 3, 4}) {
		t.Errorf("suspects = %v, want all four", v.Suspects)
	}
}

func TestConvictionRequiresRingerEvidence(t *testing.T) {
	truth := func(int) uint64 { return 11 }
	c := NewCollector(truth)
	// Regular 2-way mismatch: both suspected, neither convicted.
	c.Expect(1, 2)
	c.Submit(res(1, 0, 1, 5, false))
	c.Submit(res(1, 1, 2, 6, false))
	if c.Convicted(1) || c.Convicted(2) {
		t.Error("circumstantial mismatch must not convict")
	}
	if !c.Blacklisted(1) || !c.Blacklisted(2) {
		t.Error("mismatch suspects should be blacklisted")
	}
	// Ringer mismatch: conclusive.
	c.Expect(2, 1)
	c.Submit(res(2, 0, 3, 999, true))
	if !c.Convicted(3) {
		t.Error("ringer cheat must convict")
	}
	if got := c.ConvictedList(); len(got) != 1 || got[0] != 3 {
		t.Errorf("ConvictedList = %v", got)
	}
}

func TestDuplicateCopyRejected(t *testing.T) {
	c := NewCollector(nil)
	c.Expect(5, 2)
	if _, _, err := c.Submit(res(5, 0, 1, 42, false)); err != nil {
		t.Fatal(err)
	}
	// A speculative duplicate of copy 0 from a different participant must not
	// count toward the quorum, even with a matching value.
	if _, done, err := c.Submit(res(5, 0, 2, 42, false)); err == nil || done {
		t.Fatalf("duplicate copy accepted: done=%v err=%v", done, err)
	}
	// The legitimate second copy still adjudicates normally.
	v, done, err := c.Submit(res(5, 1, 3, 42, false))
	if err != nil || !done || !v.Accepted {
		t.Fatalf("legitimate copy after duplicate: %+v done=%v err=%v", v, done, err)
	}
	if len(v.Contributors) != 2 {
		t.Errorf("contributors = %v, want the two distinct copies", v.Contributors)
	}
}

// TestCopyOutOfRangeRejected: a copy index outside the task's registered
// multiplicity is refused, and neither it nor a negative index counts
// toward the quorum.
func TestCopyOutOfRangeRejected(t *testing.T) {
	c := NewCollector(nil)
	c.Expect(0, 2)
	for _, cp := range []int{5, -3, 2} {
		if _, done, err := c.Submit(res(0, cp, 7, 42, false)); err == nil || done {
			t.Fatalf("copy %d of a 2-copy task accepted: done=%v err=%v", cp, done, err)
		}
	}
	if _, done, err := c.Submit(res(0, 0, 1, 42, false)); err != nil || done {
		t.Fatalf("copy 0: done=%v err=%v", done, err)
	}
	v, done, err := c.Submit(res(0, 1, 2, 42, false))
	if err != nil || !done || !v.Accepted || len(v.Contributors) != 2 || v.Contributors[0] != 1 || v.Contributors[1] != 2 {
		t.Fatalf("in-range copies: %+v done=%v err=%v", v, done, err)
	}
}
