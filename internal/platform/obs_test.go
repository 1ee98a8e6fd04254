package platform

import (
	"bytes"
	"sync"
	"testing"

	"redundancy/internal/obs"
	"redundancy/internal/plan"
	"redundancy/internal/sched"
)

// syncBuffer lets a test read an event stream or a journal after the run
// without racing the last write of the sweeper or the committer.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) Bytes() []byte {
	b.mu.Lock()
	defer b.mu.Unlock()
	return bytes.Clone(b.buf.Bytes())
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
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
