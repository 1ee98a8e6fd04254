package platform

import (
	"bytes"
	"testing"
	"time"

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
