package platform

import (
	"bytes"
	"fmt"
	"sync"
	"testing"
	"time"

	"redundancy/internal/health"
	"redundancy/internal/obs"
	"redundancy/internal/plan"
)

// BenchmarkEncodeJournalRecords measures the committer's encode path: a
// whole result batch serialized into one reused buffer. Run with
// -benchmem; the reused buffer keeps the per-batch allocations down to
// encoding/json's own scratch.
func BenchmarkEncodeJournalRecords(b *testing.B) {
	recs := make([]journalRecord, 16)
	for i := range recs {
		recs[i] = journalRecord{TaskID: i, Copy: i % 3, Participant: 7, Value: uint64(i) * 0x9e3779b9}
	}
	var buf bytes.Buffer
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf.Reset()
		if err := encodeJournalRecords(&buf, recs); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBatchPipeline drives the supervisor's full request path
// in-process — lease a 16-assignment batch, compute it, submit the
// result batch — with no network in the way, so -benchmem shows exactly
// what the lease/verify/credit pipeline allocates per round trip. The
// connState scratch reuse and the conn-local name cache are what keep
// this flat as batches repeat.
func BenchmarkBatchPipeline(b *testing.B) {
	const batch = 16
	var (
		sup     *Supervisor
		cs      *connState
		id      int
		iters   int
		remain  int
		fn      WorkFunc
		kindErr error
	)
	reset := func() {
		if sup != nil {
			sup.Close()
		}
		p, err := plan.Balanced(4096, 0.5)
		if err != nil {
			b.Fatal(err)
		}
		sup, err = NewSupervisor(SupervisorConfig{
			Plan: p, WorkKind: "hashchain", Iters: 4, Seed: 1, MaxBatch: batch,
		})
		if err != nil {
			b.Fatal(err)
		}
		cs = newConnState(nil) // nothing is ever queued, so the nil conn is never written
		welcome := sup.register(Message{Type: MsgRegister, Name: "bench"}, cs)
		if welcome.Type != MsgRegistered {
			b.Fatalf("register: %+v", welcome)
		}
		id = welcome.ParticipantID
		iters = 4
		remain = p.TotalAssignments()
		if fn == nil {
			fn, kindErr = Work("hashchain")
			if kindErr != nil {
				b.Fatal(kindErr)
			}
		}
	}
	reset()
	defer func() { sup.Close() }()
	results := make([]ResultItem, 0, batch)

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if remain < batch {
			b.StopTimer()
			reset()
			b.StartTimer()
		}
		lease := sup.leaseBatch(id, batch, false, cs, time.Now())
		if lease.Type != MsgWorkBatch || len(lease.Work) == 0 {
			b.Fatalf("lease: %+v", lease)
		}
		remain -= len(lease.Work)
		results = results[:0]
		for _, w := range lease.Work {
			results = append(results, ResultItem{TaskID: w.TaskID, Copy: w.Copy, Value: fn(w.Seed, iters)})
		}
		if acks, _ := sup.resultBatch(id, results, false, cs, time.Now()); len(acks) != len(results) {
			b.Fatalf("acks: %+v", acks)
		}
	}
}

// BenchmarkContendedWorkers serves a Balanced(100 000, 0.5) plan per op to
// 2 or 32 closed-loop binary workers at batch 16 over loopback TCP, with one
// hashchain step of work per assignment, so the supervisor and its state
// mutex set the pace. It reports assignments/s over the serve phase,
// connecting the workers included; building and closing the supervisor are
// not timed. It measures contention and gates nothing.
func BenchmarkContendedWorkers(b *testing.B) {
	const tasks, batch = 100_000, 16
	for _, workers := range []int{2, 32} {
		b.Run(fmt.Sprintf("workers-%d", workers), func(b *testing.B) {
			served, serving := 0, time.Duration(0)
			errs := make([]error, workers)
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				p, err := plan.Balanced(tasks, 0.5)
				if err != nil {
					b.Fatal(err)
				}
				sup, err := NewSupervisor(SupervisorConfig{Plan: p, Iters: 1, Seed: 1, MaxBatch: batch})
				if err != nil {
					b.Fatal(err)
				}
				addr, err := sup.Start("127.0.0.1:0")
				if err != nil {
					b.Fatal(err)
				}
				var wg sync.WaitGroup
				b.StartTimer()
				start := time.Now()
				for w := range workers {
					wg.Add(1)
					go func() {
						defer wg.Done()
						_, errs[w] = RunWorker(WorkerConfig{
							Addr: addr, Name: fmt.Sprintf("w%d", w), BatchSize: batch, Proto: ProtoBinary,
						})
					}()
				}
				sup.Wait()
				serving += time.Since(start)
				b.StopTimer()
				wg.Wait()
				sup.Close()
				for w, err := range errs {
					if err != nil {
						b.Fatalf("worker %d: %v", w, err)
					}
				}
				served += p.TotalAssignments()
				b.StartTimer()
			}
			b.ReportMetric(float64(served)/serving.Seconds(), "assignments/s")
		})
	}
}

// BenchmarkSweepExpired times one deadline sweep with speculation and
// health on, over a roster of 10 or 1,000 participants whose completions
// fill the default latency window: the speculation quantile, the roster's
// Tick and Snapshot and one health gauge per participant. Nothing is
// leased, so no copy is flagged or reclaimed.
func BenchmarkSweepExpired(b *testing.B) {
	for _, parts := range []int{10, 1000} {
		b.Run(fmt.Sprintf("participants-%d", parts), func(b *testing.B) {
			p, err := plan.Balanced(64, 0.5)
			if err != nil {
				b.Fatal(err)
			}
			sup, err := NewSupervisor(SupervisorConfig{
				Plan: p, Iters: 1, Deadline: time.Hour, SpeculatePct: 0.9,
				Health: &health.Config{}, Metrics: obs.NewRegistry(),
			})
			if err != nil {
				b.Fatal(err)
			}
			defer sup.Close()
			for i := range 2048 {
				sup.roster.ObserveCompletion(i%parts, time.Duration(1+i)*time.Microsecond)
			}
			now := time.Now().Add(time.Minute)
			sup.sweepExpired(now) // creates the gauges
			b.ReportAllocs()
			b.ResetTimer()
			for range b.N {
				sup.sweepExpired(now)
			}
		})
	}
}
