package platform

import (
	"bytes"
	"math"
	"reflect"
	"testing"

	"redundancy/internal/dist"
	"redundancy/internal/plan"
	"redundancy/internal/sched"
)

func TestCreditLedgerBasics(t *testing.T) {
	l := NewCreditLedger()
	l.Award([]int{1, 2})
	l.Award([]int{1})
	if l.Credit(1) != 2 || l.Credit(2) != 1 || l.Credit(3) != 0 {
		t.Errorf("credits: %d %d %d", l.Credit(1), l.Credit(2), l.Credit(3))
	}
	if l.Total() != 3 {
		t.Errorf("total = %d", l.Total())
	}
	l.Revoke(1)
	if l.Credit(1) != 0 {
		t.Error("revocation did not zero the standing")
	}
	if l.Total() != 1 {
		t.Errorf("total after revoke = %d", l.Total())
	}
	// Credit awarded after revocation stays zeroed.
	l.Award([]int{1})
	if l.Credit(1) != 0 {
		t.Error("revoked participant regained credit")
	}
	lb := l.Leaderboard()
	want := []CreditEntry{{Participant: 2, Credit: 1}, {Participant: 1, Credit: 0, Revoked: true}}
	if !reflect.DeepEqual(lb, want) {
		t.Errorf("leaderboard = %+v, want %+v", lb, want)
	}
}

func TestCreditOnlyForCertifiedWork(t *testing.T) {
	// One honest worker completes everything: its credit equals the number
	// of certified tasks, not the number of assignments — credit counts
	// verified contributions.
	p, err := plan.Balanced(200, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	sup, addr := startSupervisor(t, p, sched.Free)
	if _, err := RunWorker(WorkerConfig{Addr: addr, Name: "solo"}); err != nil {
		t.Fatal(err)
	}
	sup.Wait()
	sum := sup.Summary()
	if len(sum.Credits) != 1 {
		t.Fatalf("leaderboard size %d", len(sum.Credits))
	}
	// The solo worker contributed every copy of every certified task, so
	// its credit equals total accepted-task contributions = assignments.
	if sum.Credits[0].Credit != p.TotalAssignments() {
		t.Errorf("credit %d, want %d contributions", sum.Credits[0].Credit, p.TotalAssignments())
	}
}

func TestConvictionRevokesCredit(t *testing.T) {
	// A lone cheater earns credit on single-copy tasks until a ringer
	// convicts it — at which point its standing is zeroed.
	p := &plan.Plan{
		Epsilon:            0.5,
		N:                  20,
		Counts:             []int{20},
		TailMultiplicity:   2,
		Ringers:            4,
		RingerMultiplicity: 2,
	}
	sup, addr := startSupervisor(t, p, sched.Free)
	coal := NewCoalition(1, 3)
	_, _ = RunWorker(WorkerConfig{Addr: addr, Name: "cheater", Cheat: coal.CheatFunc()})
	if _, err := RunWorker(WorkerConfig{Addr: addr, Name: "honest"}); err != nil {
		t.Fatal(err)
	}
	sup.Wait()
	sum := sup.Summary()
	for _, e := range sum.Credits {
		if e.Participant == 0 { // the cheater registered first
			if !e.Revoked || e.Credit != 0 {
				t.Errorf("cheater standing = %+v, want revoked zero", e)
			}
		}
	}
}

func TestResolveMismatchesSalvagesResults(t *testing.T) {
	// Simple redundancy + one cheater out of two participants, driven in a
	// fixed order so each provably holds copies of shared tasks: mismatches
	// abound. With ResolveMismatches on, every disputed task ends with the
	// supervisor's own correct value, and so does a supervisor restored
	// from the run's journal or from its snapshot alone: replay applies
	// each verdict as the live path did, recomputation included.
	for _, v := range bothVerbs {
		t.Run(string(v), func(t *testing.T) {
			newSup := func(journal *syncBuffer, restore []byte) *Supervisor {
				t.Helper()
				p, err := plan.FromDistribution(dist.Simple(40), 0.5)
				if err != nil {
					t.Fatal(err)
				}
				cfg := SupervisorConfig{
					Plan:              p,
					WorkKind:          "hashchain",
					Iters:             10,
					ResolveMismatches: true,
				}
				if journal != nil {
					cfg.Journal = journal
				}
				if restore != nil {
					cfg.Restore = bytes.NewReader(restore)
				}
				sup, err := NewSupervisor(cfg)
				if err != nil {
					t.Fatal(err)
				}
				return sup
			}
			journal := &syncBuffer{}
			sup := newSup(journal, nil)
			addr, err := sup.Start("127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { sup.Close() })

			coal := NewCoalition(0.5, 11) // cheat on about half the tasks
			driveRoundRobin(t, v, dialTCP, addr, 3, coal.CheatFunc(), nil)
			sup.Wait()

			sum := sup.Summary()
			if sum.Verify.MismatchDetected == 0 {
				t.Fatal("expected mismatches with a half-cheating participant")
			}
			if sum.Resolved == 0 {
				t.Fatal("no disputes resolved despite ResolveMismatches")
			}
			// Every task must end with a certified value. Wrong values can
			// survive only as unanimous lies — tasks whose two copies both
			// landed on the cheater (the paper's core vulnerability;
			// resolution cannot see them because there is no mismatch).
			// Everything disputed must have been recomputed to the true
			// value.
			work, _ := Work("hashchain")
			wrong := 0
			for task := 0; task < 40; task++ {
				v, ok := sup.CertifiedValue(task)
				if !ok {
					t.Errorf("task %d has no certified value", task)
					continue
				}
				if v != work(TaskSeed(task), 10) {
					wrong++
				}
			}
			if wrong != sum.WrongResults {
				t.Errorf("found %d wrong certified values, summary says %d", wrong, sum.WrongResults)
			}
			// The resolution count must cover every non-ringer mismatch.
			if sum.Resolved != sum.Verify.MismatchDetected-sum.Verify.RingersCaught {
				t.Errorf("resolved %d of %d disputed tasks",
					sum.Resolved, sum.Verify.MismatchDetected-sum.Verify.RingersCaught)
			}

			snap, err := sup.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			for _, restore := range []struct {
				name string
				data []byte
			}{{"journal", journal.Bytes()}, {"snapshot", snap}} {
				restored := newSup(nil, restore.data)
				if got := restored.Summary().Resolved; got != sum.Resolved {
					t.Errorf("restored from the %s: resolved %d, live %d", restore.name, got, sum.Resolved)
				}
				differ := 0
				for task := 0; task < 40; task++ {
					want, wantOK := sup.CertifiedValue(task)
					if got, ok := restored.CertifiedValue(task); got != want || ok != wantOK {
						differ++
					}
				}
				if differ > 0 {
					t.Errorf("restored from the %s: %d of 40 certified values differ from live", restore.name, differ)
				}
			}
		})
	}
}

// TestQuantizedMatchingOnPlatform runs the float workload with a
// participant that perturbs results below the quantization threshold:
// exact matching flags false mismatches, quantized matching certifies
// everything.
func TestQuantizedMatchingOnPlatform(t *testing.T) {
	// Perturb the float64 result in its last few mantissa bits: well below
	// 6 significant decimal digits.
	noise := func(taskID int, honest uint64) uint64 {
		f := math.Float64frombits(honest)
		return math.Float64bits(f * (1 + 1e-12))
	}
	run := func(t *testing.T, v verbs, digits int) Summary {
		p, err := plan.FromDistribution(dist.Simple(40), 0.5)
		if err != nil {
			t.Fatal(err)
		}
		sup, err := NewSupervisor(SupervisorConfig{
			Plan: p, WorkKind: "logistic", Iters: 40, ResultDigits: digits,
		})
		if err != nil {
			t.Fatal(err)
		}
		addr, err := sup.Start("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { sup.Close() }) // after the raw connections close
		// The second participant is a "noisy FPU" host, not a cheater.
		driveRoundRobin(t, v, dialTCP, addr, 3, nil, noise)
		sup.Wait()
		return sup.Summary()
	}
	for _, v := range bothVerbs {
		t.Run(string(v), func(t *testing.T) {
			exact := run(t, v, 0)
			if exact.Verify.MismatchDetected == 0 {
				t.Error("exact matching should flag the noisy host's results")
			}
			quant := run(t, v, 6)
			if quant.Verify.MismatchDetected != 0 {
				t.Errorf("quantized matching flagged %d false mismatches", quant.Verify.MismatchDetected)
			}
			if quant.Verify.Accepted != 40 {
				t.Errorf("certified %d of 40 tasks", quant.Verify.Accepted)
			}
			if quant.WrongResults != 0 {
				t.Errorf("%d results misreported as wrong despite tolerance", quant.WrongResults)
			}
		})
	}
}
