package redundancy

import (
	"bytes"
	"math"
	"sync"
	"testing"
	"time"
)

// TestPublicAPIFlow walks the README quick-start end to end through the
// public facade: scheme → analysis → plan → simulation.
func TestPublicAPIFlow(t *testing.T) {
	d, err := Balanced(100_000, 0.75)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(d.RedundancyFactor()-BalancedRedundancyFactor(0.75)) > 1e-9 {
		t.Error("factor mismatch through facade")
	}
	if r := Validate(d, 100_000, 0.75); !r.Valid() {
		t.Errorf("violations: %v", r.Violations)
	}
	if pk := Detection(d, 3); math.Abs(pk-0.75) > 1e-6 {
		t.Errorf("P_3 = %v", pk)
	}
	if pkp := DetectionAt(d, 3, 0.1); math.Abs(pkp-BalancedDetection(0.75, 0.1)) > 1e-6 {
		t.Errorf("P_{3,0.1} = %v", pkp)
	}
	minP, _ := MinDetection(d, 0.1)
	if math.Abs(minP-BalancedDetection(0.75, 0.1)) > 1e-4 {
		t.Errorf("min detection %v", minP)
	}
	odds := AdversaryOdds(d, 0.1, 5)
	if len(odds) != 5 {
		t.Fatalf("odds rows = %d", len(odds))
	}

	p, err := PlanFor(d, 0.75)
	if err != nil {
		t.Fatal(err)
	}
	if p.TotalTasks() != 100_000 {
		t.Errorf("plan covers %d", p.TotalTasks())
	}

	rep, err := Simulate(SimConfig{
		Plan:                p,
		Policy:              PolicyFree,
		Participants:        300,
		AdversaryProportion: 0.1,
		Strategy:            StrategyAlways{},
		Seed:                1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Tasks != p.N+p.Ringers {
		t.Errorf("simulated %d tasks", rep.Tasks)
	}
}

func TestFacadeSchemeConstructors(t *testing.T) {
	if _, err := GolleStubblebine(1000, 0.5); err != nil {
		t.Error(err)
	}
	if _, err := GolleStubblebineForThreshold(1000, 0.5); err != nil {
		t.Error(err)
	}
	if Simple(10).RedundancyFactor() != 2 || Single(10).RedundancyFactor() != 1 {
		t.Error("simple/single wrong")
	}
	if _, err := MinMultiplicity(1000, 0.5, 2); err != nil {
		t.Error(err)
	}
	if _, err := AssignmentMinimizing(1000, 0.5, 8); err != nil {
		t.Error(err)
	}
	if _, err := NewPlan(1000, 0.5); err != nil {
		t.Error(err)
	}
	e := CrossoverEpsilon()
	if e < 0.79 || e > 0.81 {
		t.Errorf("crossover %v", e)
	}
	if LowerBoundRedundancyFactor(0.5) != 4.0/3.0 {
		t.Error("lower bound wrong")
	}
	if math.Abs(MinMultiplicityRedundancyFactor(0.5, 2)-2.2589) > 0.001 {
		t.Error("§7 closed form wrong")
	}
	if GolleStubblebineRedundancyFactor(0.5) != 1/math.Sqrt(0.5) {
		t.Error("GS factor wrong")
	}
}

func TestFacadeStrategies(t *testing.T) {
	d, err := GolleStubblebineForThreshold(10_000, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	r := NewRationalStrategy(d, 0, 0.51)
	if !r.ShouldCheat(1) || r.ShouldCheat(2) {
		t.Error("rational strategy against GS wrong through facade")
	}
	if !(StrategyOnlyK{K: 2}).ShouldCheat(2) || (StrategyNever{}).ShouldCheat(1) {
		t.Error("strategy aliases wrong")
	}
	if !(StrategyAtLeast{MinCopies: 3}).ShouldCheat(4) {
		t.Error("AtLeast alias wrong")
	}
}

func TestFacadeThinningAndTwoPhase(t *testing.T) {
	p, err := NewPlan(20_000, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := SampleThinning(p.Tasks(), 0.1, StrategyAlways{}, 3)
	if err != nil {
		t.Fatal(err)
	}
	if rate, ok := DetectionRate(rep.PerTuple, 1); !ok || math.Abs(rate-BalancedDetection(0.5, 0.1)) > 0.05 {
		t.Errorf("thinning rate %v ok=%v", rate, ok)
	}
	tp, err := TwoPhaseExperiment(10_000, 0.02, 50, 4)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(tp.Observed.Mean()-4) > 2 {
		t.Errorf("two-phase mean %v, want ≈4", tp.Observed.Mean())
	}
}

func TestFacadePlatformEndToEnd(t *testing.T) {
	p, err := NewPlan(150, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	sup, err := NewSupervisor(SupervisorConfig{Plan: p, WorkKind: "hashchain", Iters: 10})
	if err != nil {
		t.Fatal(err)
	}
	addr, err := sup.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer sup.Close()

	coal := NewWorkerCoalition(1, 9)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		var cheat CheatFunc
		if w == 0 {
			cheat = coal.CheatFunc()
		}
		go func() {
			defer wg.Done()
			// A floor on every worker's compute keeps the four sharing the
			// pool, so the cheater cannot be starved out of it before it
			// has leased a single copy.
			_, _ = RunWorker(WorkerConfig{Addr: addr, Name: "w", Cheat: cheat, Speed: &SpeedModel{Base: time.Millisecond}})
		}()
	}
	wg.Wait()
	sup.Wait()
	sum := sup.Summary()
	if sum.Verify.Tasks != p.N+p.Ringers {
		t.Errorf("platform adjudicated %d", sum.Verify.Tasks)
	}
	if sum.Verify.MismatchDetected == 0 {
		t.Error("coalition member went unnoticed across the whole run")
	}
	if len(WorkKinds()) < 3 {
		t.Error("work kinds missing")
	}
}

func TestFacadeCampaignAndLoadPlan(t *testing.T) {
	p, err := NewPlan(1500, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Campaign(CampaignConfig{
		Plan:                p,
		Policy:              PolicyFree,
		Participants:        100,
		AdversaryProportion: 0.2,
		Strategy:            StrategyAlways{},
		Rounds:              6,
		Seed:                2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.RoundsUntilNeutralized == 0 {
		t.Error("blatant coalition never neutralized")
	}

	var buf bytes.Buffer
	if err := p.Save(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := LoadPlan(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.N != p.N || got.TotalAssignments() != p.TotalAssignments() {
		t.Error("LoadPlan round trip mismatch")
	}
	if _, err := LoadPlan(bytes.NewReader([]byte("junk"))); err == nil {
		t.Error("junk plan accepted")
	}
}

func TestFacadeExpectedDamage(t *testing.T) {
	d, err := Balanced(10_000, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	// Dominated by the ~69% single-copy tasks, each fully held w.p. p:
	// a bit over x_1·p = 693.
	got := ExpectedDamage(d, 0.1)
	if got < 690 || got > 760 {
		t.Errorf("damage %v, want ≈718 (x1·p plus higher-order terms)", got)
	}
	if s := ExpectedDamage(Simple(10_000), 0.1); math.Abs(s-100) > 1e-9 {
		t.Errorf("simple damage %v, want p²N", s)
	}
}
