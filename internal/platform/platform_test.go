package platform

import (
	"bytes"
	"io"
	"net"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"redundancy/internal/dist"
	"redundancy/internal/plan"
	"redundancy/internal/sched"
)

func TestCodecRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	c := NewCodec(&buf)
	in := Message{Type: MsgWork, TaskID: 7, Copy: 1, Kind: "hashchain", Seed: 99, Iters: 10}
	if err := c.Send(in); err != nil {
		t.Fatal(err)
	}
	out, err := c.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(out, in) {
		t.Errorf("round trip: got %+v want %+v", out, in)
	}
	if _, err := c.Recv(); err != io.EOF {
		t.Errorf("expected EOF, got %v", err)
	}
}

func TestCodecSkipsBlankLinesAndRejectsGarbage(t *testing.T) {
	r := strings.NewReader("\n\n{\"type\":\"ack\"}\nnot json\n")
	c := NewCodec(struct {
		io.Reader
		io.Writer
	}{r, io.Discard})
	m, err := c.Recv()
	if err != nil || m.Type != MsgAck {
		t.Fatalf("got %+v, %v", m, err)
	}
	if _, err := c.Recv(); err == nil {
		t.Error("garbage frame accepted")
	}
}

func TestWorkFunctions(t *testing.T) {
	for _, kind := range WorkKinds() {
		f, err := Work(kind)
		if err != nil {
			t.Fatal(err)
		}
		a, b := f(12345, 50), f(12345, 50)
		if a != b {
			t.Errorf("%s is not deterministic", kind)
		}
		if f(12345, 50) == f(54321, 50) && kind == "hashchain" {
			t.Errorf("%s ignores its seed", kind)
		}
	}
	if _, err := Work("nope"); err == nil {
		t.Error("unknown kind accepted")
	}
	if PrimeCount(0, 10) != 4 { // primes in [0,10): 2,3,5,7
		t.Errorf("PrimeCount(0,10) = %d, want 4", PrimeCount(0, 10))
	}
	if CollatzMax(0, 1) == 0 { // start=1, trajectory {1}
		t.Error("CollatzMax returned 0")
	}
	if TaskSeed(1) == TaskSeed(2) {
		t.Error("TaskSeed collision")
	}
}

// startSupervisor spins a supervisor on loopback for tests.
func startSupervisor(t *testing.T, p *plan.Plan, policy sched.Policy) (*Supervisor, string) {
	t.Helper()
	sup, err := NewSupervisor(SupervisorConfig{
		Plan:     p,
		Policy:   policy,
		WorkKind: "hashchain",
		Iters:    25,
		Seed:     1,
	})
	if err != nil {
		t.Fatal(err)
	}
	addr, err := sup.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sup.Close() })
	return sup, addr
}

func TestHonestEndToEnd(t *testing.T) {
	p, err := plan.Balanced(300, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	sup, addr := startSupervisor(t, p, sched.Free)

	const workers = 8
	var wg sync.WaitGroup
	var mu sync.Mutex
	completed := 0
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			st, err := RunWorker(WorkerConfig{Addr: addr, Name: "honest"})
			if err != nil {
				t.Errorf("worker %d: %v", w, err)
				return
			}
			mu.Lock()
			completed += st.Completed
			mu.Unlock()
		}(w)
	}
	wg.Wait()
	sup.Wait()

	sum := sup.Summary()
	if sum.Participants != workers {
		t.Errorf("participants = %d", sum.Participants)
	}
	if sum.Verify.Tasks != p.N+p.Ringers {
		t.Errorf("adjudicated %d tasks, want %d", sum.Verify.Tasks, p.N+p.Ringers)
	}
	if sum.Verify.MismatchDetected != 0 || sum.WrongResults != 0 || len(sum.Blacklist) != 0 {
		t.Errorf("honest run: %+v wrong=%d blacklist=%v",
			sum.Verify, sum.WrongResults, sum.Blacklist)
	}
	if completed != p.TotalAssignments() {
		t.Errorf("workers completed %d assignments, plan has %d", completed, p.TotalAssignments())
	}
}

func TestConvictedWorkerRefusedWork(t *testing.T) {
	// A hand-built plan whose first assignments include ringers: a lone
	// always-cheat worker inevitably lies on a ringer, is convicted by the
	// supervisor's precomputed truth, and is refused further work; an
	// honest worker then finishes the computation.
	p := &plan.Plan{
		Epsilon:            0.5,
		N:                  20,
		Counts:             []int{20}, // 20 single-copy tasks
		TailMultiplicity:   2,
		TailTasks:          0,
		Ringers:            4,
		RingerMultiplicity: 2,
	}
	sup, addr := startSupervisor(t, p, sched.Free)
	coal := NewCoalition(1, 3)
	st, err := RunWorker(WorkerConfig{Addr: addr, Name: "cheater", Cheat: coal.CheatFunc()})
	if err == nil {
		t.Fatalf("always-cheating lone worker finished unconvicted (completed %d)", st.Completed)
	}
	if !strings.Contains(err.Error(), "blacklisted") {
		t.Fatalf("unexpected error: %v", err)
	}
	// An honest worker can still finish the computation.
	if _, err := RunWorker(WorkerConfig{Addr: addr, Name: "honest"}); err != nil {
		t.Fatal(err)
	}
	sup.Wait()
	sum := sup.Summary()
	if len(sum.Blacklist) == 0 {
		t.Error("cheater not in blacklist")
	}
	if sum.Verify.RingersCaught == 0 {
		t.Error("no ringer catches recorded")
	}
}

// TestSummaryCountsWrongResults pins a nonzero WrongResults: a plan of
// two-copy tasks and no ringers, served only to two members of one
// always-cheat coalition, certifies every task with the coalition's
// unanimous wrong value, and Summary counts each of them (600 verdicts,
// so its chunked walk of the verdict list crosses chunk boundaries).
// Summary is also called throughout the run, concurrently with the
// submissions it releases stateMu to between chunks.
func TestSummaryCountsWrongResults(t *testing.T) {
	p := &plan.Plan{Epsilon: 0.5, N: 600, Counts: []int{0, 600}, TailMultiplicity: 2, RingerMultiplicity: 2}
	sup, addr := startSupervisor(t, p, sched.Free)
	coal := NewCoalition(1, 5)
	stop := make(chan struct{})
	polled := make(chan struct{})
	go func() {
		defer close(polled)
		for {
			select {
			case <-stop:
				return
			default:
			}
			if sum := sup.Summary(); sum.WrongResults > sum.Verify.Accepted {
				t.Errorf("live Summary: %d wrong of %d accepted", sum.WrongResults, sum.Verify.Accepted)
			}
		}
	}()
	var wg sync.WaitGroup
	for _, name := range []string{"mallory", "mordred"} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := RunWorker(WorkerConfig{Addr: addr, Name: name, Cheat: coal.CheatFunc()}); err != nil {
				t.Errorf("%s: %v", name, err)
			}
		}()
	}
	wg.Wait()
	sup.Wait()
	close(stop)
	<-polled
	sum := sup.Summary()
	if sum.Verify.Tasks != p.N || sum.Verify.MismatchDetected != 0 {
		t.Fatalf("adjudicated %d of %d tasks, %d mismatches", sum.Verify.Tasks, p.N, sum.Verify.MismatchDetected)
	}
	if sum.WrongResults != p.N {
		t.Errorf("WrongResults = %d, want every one of the %d unanimous lies", sum.WrongResults, p.N)
	}
}

func TestOneOutstandingOverTCP(t *testing.T) {
	p, err := plan.FromDistribution(dist.Simple(40), 0.5)
	if err != nil {
		t.Fatal(err)
	}
	sup, addr := startSupervisor(t, p, sched.OneOutstanding)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, err := RunWorker(WorkerConfig{Addr: addr, Name: "w"})
			if err != nil {
				t.Error(err)
			}
		}()
	}
	done := make(chan struct{})
	go func() { sup.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("one-outstanding run did not finish")
	}
	wg.Wait()
	if sum := sup.Summary(); sum.Verify.Tasks != 40 {
		t.Errorf("adjudicated %d", sum.Verify.Tasks)
	}
}

func TestWorkerMaxAssignments(t *testing.T) {
	p, err := plan.FromDistribution(dist.Simple(50), 0.5)
	if err != nil {
		t.Fatal(err)
	}
	sup, addr := startSupervisor(t, p, sched.Free)
	st, err := RunWorker(WorkerConfig{Addr: addr, Name: "limited", MaxAssignments: 5})
	if err != nil {
		t.Fatal(err)
	}
	if st.Completed != 5 {
		t.Errorf("completed %d, want 5", st.Completed)
	}
	// Finish the computation with an unlimited worker.
	if _, err := RunWorker(WorkerConfig{Addr: addr, Name: "finisher"}); err != nil {
		t.Fatal(err)
	}
	sup.Wait()
}

func TestSupervisorConfigValidation(t *testing.T) {
	if _, err := NewSupervisor(SupervisorConfig{}); err == nil {
		t.Error("nil plan accepted")
	}
	p, err := plan.FromDistribution(dist.Simple(10), 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewSupervisor(SupervisorConfig{Plan: p, WorkKind: "bogus"}); err == nil {
		t.Error("bogus work kind accepted")
	}
	if _, err := NewSupervisor(SupervisorConfig{Plan: p, Policy: sched.Policy(9)}); err == nil {
		t.Error("bogus policy accepted")
	}
}

func TestCoalitionDecisionsShared(t *testing.T) {
	// Two members' cheat functions, and a coalition built apart from the
	// same seed, agree on every task: the coin is a function of (seed,
	// task) alone.
	c := NewCoalition(0.5, 42)
	f1, f2, f3 := c.CheatFunc(), c.CheatFunc(), NewCoalition(0.5, 42).CheatFunc()
	cheat := 0
	for task := 0; task < 200; task++ {
		v := f1(task, 1)
		if f2(task, 1) != v || f3(task, 1) != v {
			t.Fatalf("coalition members disagreed on task %d", task)
		}
		if v != 1 {
			cheat++
		}
	}
	if cheat < 60 || cheat > 140 {
		t.Errorf("cheat rate %d/200 far from 0.5", cheat)
	}
	// Degenerate probabilities.
	all := NewCoalition(1, 1).CheatFunc()
	if all(1, 7) == 7 {
		t.Error("p=1 coalition did not cheat")
	}
	none := NewCoalition(0, 1).CheatFunc()
	if none(1, 7) != 7 {
		t.Error("p=0 coalition cheated")
	}
}

func TestDroppedConnectionWorkIsReclaimed(t *testing.T) {
	p, err := plan.FromDistribution(dist.Simple(30), 0.5)
	if err != nil {
		t.Fatal(err)
	}
	sup, addr := startSupervisor(t, p, sched.Free)

	// A flaky participant: registers, takes one assignment, and vanishes
	// without returning the result.
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	codec := NewCodec(conn)
	if err := codec.Send(Message{Type: MsgRegister, Name: "flaky"}); err != nil {
		t.Fatal(err)
	}
	reg, err := codec.Recv()
	if err != nil || reg.Type != MsgRegistered {
		t.Fatalf("register: %+v %v", reg, err)
	}
	if err := codec.Send(Message{Type: MsgRequestWork, ParticipantID: reg.ParticipantID}); err != nil {
		t.Fatal(err)
	}
	work, err := codec.Recv()
	if err != nil || work.Type != MsgWork {
		t.Fatalf("work: %+v %v", work, err)
	}
	conn.Close() // vanish with the assignment in hand

	// A reliable worker must still be able to finish everything,
	// including the reclaimed copy.
	if _, err := RunWorker(WorkerConfig{Addr: addr, Name: "reliable"}); err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() { sup.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("computation stalled after participant drop-out")
	}
	sum := sup.Summary()
	if sum.Verify.Tasks != 30 {
		t.Errorf("adjudicated %d tasks, want all 30", sum.Verify.Tasks)
	}
	if sum.Verify.MismatchDetected != 0 || sum.WrongResults != 0 {
		t.Errorf("drop-out corrupted results: %+v wrong=%d", sum.Verify, sum.WrongResults)
	}
}

func TestImpersonationRejected(t *testing.T) {
	p, err := plan.FromDistribution(dist.Simple(10), 0.5)
	if err != nil {
		t.Fatal(err)
	}
	_, addr := startSupervisor(t, p, sched.Free)

	// A legitimate worker registers first and becomes participant 0.
	legit, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer legit.Close()
	lc := NewCodec(legit)
	lc.Send(Message{Type: MsgRegister, Name: "legit"})
	reg, err := lc.Recv()
	if err != nil || reg.ParticipantID != 0 {
		t.Fatalf("register: %+v %v", reg, err)
	}

	// An attacker on a fresh connection tries to act as participant 0
	// without registering there.
	attacker, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer attacker.Close()
	ac := NewCodec(attacker)
	ac.Send(Message{Type: MsgRequestWork, ParticipantID: 0})
	m, err := ac.Recv()
	if err != nil || m.Type != MsgError {
		t.Fatalf("impersonated work request got %+v %v, want error", m, err)
	}
	ac.Send(Message{Type: MsgResult, ParticipantID: 0, TaskID: 0, Copy: 0, Value: 1})
	m, err = ac.Recv()
	if err != nil || m.Type != MsgError {
		t.Fatalf("impersonated result got %+v %v, want error", m, err)
	}
}
