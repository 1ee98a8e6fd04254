package platform

import (
	"bytes"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"redundancy/internal/obs"
	"redundancy/internal/plan"
	"redundancy/internal/sched"
)

// syncBuffer lets the test read the event stream after the run without
// racing the deadline sweeper's last write.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// TestMetricsAndEventsEndToEnd drives a deterministic one-task scenario and
// checks every counter it must move: a colluding participant submits a wrong
// value for copy 0, a second participant takes copy 1 and stalls past the
// deadline (deadline reclaim), and an honest worker finishes the re-issued
// copy, exposing the mismatch.
func TestMetricsAndEventsEndToEnd(t *testing.T) {
	reg := obs.NewRegistry()
	events := &syncBuffer{}
	sink := obs.NewSink(events)

	// One real task, two copies, no ringers.
	p := &plan.Plan{
		Epsilon:            0.5,
		N:                  1,
		Counts:             []int{0, 1},
		TailMultiplicity:   2,
		RingerMultiplicity: 2,
	}
	sup, err := NewSupervisor(SupervisorConfig{
		Plan:     p,
		Policy:   sched.Free,
		WorkKind: "hashchain",
		Iters:    25,
		Deadline: 250 * time.Millisecond,
		Metrics:  reg,
		Events:   sink,
	})
	if err != nil {
		t.Fatal(err)
	}
	addr, err := sup.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sup.Close() })

	// dial registers a hand-driven participant and requests one assignment.
	dial := func(name string) (*Codec, net.Conn, int, Message) {
		t.Helper()
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		c := NewCodec(conn)
		if err := c.Send(Message{Type: MsgRegister, Name: name}); err != nil {
			t.Fatal(err)
		}
		welcome, err := c.Recv()
		if err != nil || welcome.Type != MsgRegistered {
			t.Fatalf("%s register: %+v %v", name, welcome, err)
		}
		if err := c.Send(Message{Type: MsgRequestWork, ParticipantID: welcome.ParticipantID}); err != nil {
			t.Fatal(err)
		}
		work, err := c.Recv()
		if err != nil || work.Type != MsgWork {
			t.Fatalf("%s work: %+v %v", name, work, err)
		}
		return c, conn, welcome.ParticipantID, work
	}

	// Colluder: takes copy 0 and returns a deliberately wrong value.
	cc, cconn, cid, cwork := dial("colluder")
	defer cconn.Close()
	honest := HashChain(cwork.Seed, cwork.Iters)
	if err := cc.Send(Message{
		Type: MsgResult, ParticipantID: cid,
		TaskID: cwork.TaskID, Copy: cwork.Copy, Value: honest ^ 0xDEADBEEF,
	}); err != nil {
		t.Fatal(err)
	}
	if ack, err := cc.Recv(); err != nil || ack.Type != MsgAck {
		t.Fatalf("wrong result not accepted into verification: %+v %v", ack, err)
	}

	// Staller: takes copy 1 and goes silent, holding the connection open so
	// the only way the copy comes back is the deadline sweeper.
	_, sconn, _, swork := dial("staller")
	defer sconn.Close()
	if swork.TaskID != cwork.TaskID {
		t.Fatalf("staller got task %d, want %d", swork.TaskID, cwork.TaskID)
	}

	// Wait for the deadline reclaim before letting the honest worker in, so
	// the assignment flow is deterministic.
	deadline := time.Now().Add(10 * time.Second)
	for {
		if v, _ := reg.Snapshot().Value("redundancy_assignments_reclaimed_total", "deadline"); v > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("deadline sweeper never reclaimed the stalled assignment")
		}
		time.Sleep(10 * time.Millisecond)
	}

	// Honest worker finishes the re-issued copy with its own metrics registry.
	wreg := obs.NewRegistry()
	if _, err := RunWorker(WorkerConfig{Addr: addr, Name: "honest", Metrics: wreg}); err != nil {
		t.Fatal(err)
	}
	sup.Wait()
	// Close the hand-driven connections before Close: it joins the
	// connection handlers, which block on reads until these hang up.
	cconn.Close()
	sconn.Close()
	sup.Close()

	snap := sup.Metrics().Snapshot()
	for _, tc := range []struct {
		name   string
		labels []string
		want   float64
	}{
		{"redundancy_workers_registered_total", nil, 3},
		{"redundancy_assignments_issued_total", nil, 3},
		{"redundancy_assignments_reclaimed_total", []string{"deadline"}, 1},
		{"redundancy_results_accepted_total", nil, 2},
		{"redundancy_mismatch_detected_total", nil, 1},
		{"redundancy_tasks_certified_total", nil, 0},
		{"redundancy_ringer_failures_total", nil, 0},
	} {
		got, ok := snap.Value(tc.name, tc.labels...)
		if tc.want != 0 && !ok {
			t.Errorf("%s%v: series missing", tc.name, tc.labels)
			continue
		}
		if got != tc.want {
			t.Errorf("%s%v = %v, want %v", tc.name, tc.labels, got, tc.want)
		}
	}
	// The supervisor observed per-worker turnaround for the accepting workers.
	if got, ok := snap.Value("redundancy_assignment_turnaround_seconds", "honest"); !ok || got != 1 {
		t.Errorf("turnaround{honest} count = %v (ok=%v), want 1", got, ok)
	}

	// The honest worker's RTT histogram saw its exchanges.
	if got, ok := wreg.Snapshot().Value("redundancy_worker_rtt_seconds"); !ok || got == 0 {
		t.Error("worker RTT histogram recorded no observations")
	}

	// The event stream names every lifecycle step of the scenario.
	stream := events.String()
	for _, ev := range []string{
		`"event":"worker_joined"`,
		`"event":"assignment_issued"`,
		`"event":"result_accepted"`,
		`"event":"assignment_reclaimed"`,
		`"reason":"deadline"`,
		`"event":"mismatch_detected"`,
	} {
		if !strings.Contains(stream, ev) {
			t.Errorf("event stream missing %s:\n%s", ev, stream)
		}
	}

	// The rendered exposition includes the headline series by name.
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	for _, series := range []string{
		"redundancy_assignments_issued_total 3",
		"redundancy_results_accepted_total 2",
		"redundancy_mismatch_detected_total 1",
	} {
		if !strings.Contains(buf.String(), series) {
			t.Errorf("exposition missing %q", series)
		}
	}
}

// TestSupervisorPrivateRegistry checks that counters are collected even when
// the caller supplies no registry.
func TestSupervisorPrivateRegistry(t *testing.T) {
	p := &plan.Plan{Epsilon: 0.5, N: 1, Counts: []int{1}, TailMultiplicity: 2, RingerMultiplicity: 2}
	sup, addr := startSupervisor(t, p, sched.Free)
	if _, err := RunWorker(WorkerConfig{Addr: addr, Name: "solo"}); err != nil {
		t.Fatal(err)
	}
	sup.Wait()
	snap := sup.Metrics().Snapshot()
	if got, ok := snap.Value("redundancy_results_accepted_total"); !ok || got != 1 {
		t.Errorf("private registry accepted = %v (ok=%v), want 1", got, ok)
	}
	if got, ok := snap.Value("redundancy_tasks_certified_total"); !ok || got != 1 {
		t.Errorf("private registry certified = %v (ok=%v), want 1", got, ok)
	}
}

// TestGuardedLogfSurvivesFaultyHook locks in satellite 4: a panicking or
// racy Logf hook must never take the supervisor down.
func TestGuardedLogfSurvivesFaultyHook(t *testing.T) {
	p := &plan.Plan{Epsilon: 0.5, N: 2, Counts: []int{2}, TailMultiplicity: 2, RingerMultiplicity: 2}
	calls := 0
	sup, err := NewSupervisor(SupervisorConfig{
		Plan:     p,
		WorkKind: "hashchain",
		Iters:    25,
		Logf: func(format string, args ...any) {
			calls++ // unsynchronized on purpose: logf must serialize for us
			panic("faulty log hook")
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	addr, err := sup.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sup.Close() })
	var wg sync.WaitGroup
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := RunWorker(WorkerConfig{Addr: addr, Name: "w"}); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	sup.Wait()
	sup.Close() // joins the connection handlers so reading calls is race-free
	if calls == 0 {
		t.Error("faulty hook was never invoked")
	}
	if sum := sup.Summary(); sum.Verify.Accepted != 2 {
		t.Errorf("certified %d tasks despite panicking logger, want 2", sum.Verify.Accepted)
	}
}

// TestLatencyHistogramsResolveALease: a 24 µs observation — a loopback
// lease — must land in the 32 µs bucket of every platform latency
// histogram, not under a millisecond floor.
func TestLatencyHistogramsResolveALease(t *testing.T) {
	reg := obs.NewRegistry()
	sm, wm, cm := newSupMetrics(reg), newWorkerMetrics(reg), newClusterMetrics(reg)
	sm.turnaround.With("w").Observe(24e-6)
	sm.leaseWait.Observe(24e-6)
	cm.aggregateMerge.Observe(24e-6)
	wm.rtt.Observe(24e-6)
	for _, name := range []string{
		"redundancy_assignment_turnaround_seconds", "redundancy_lease_wait_seconds",
		"redundancy_aggregator_merge_seconds", "redundancy_worker_rtt_seconds",
	} {
		var found bool
		for _, f := range reg.Snapshot().Families {
			if f.Name != name {
				continue
			}
			m := f.Metrics[0]
			for i, ub := range m.UpperBounds {
				if m.Buckets[i] == 1 {
					found = true
					if ub != 32e-6 {
						t.Errorf("%s: 24µs landed under the %gs bound, want 32µs", name, ub)
					}
				}
			}
		}
		if !found {
			t.Errorf("%s: the 24µs observation landed in no finite bucket", name)
		}
	}
}
