package platform

import (
	"bytes"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"redundancy/internal/faults"
	"redundancy/internal/obs"
	"redundancy/internal/plan"
)

// TestChaosSoak is the platform's crash-tolerance acceptance test: a full
// plan runs to certification with every fault mode enabled on both sides
// of the wire — dropped dials, mid-read and mid-write connection kills,
// torn frames, corrupted bytes, latency — and with the supervisor killed
// abruptly partway through and restored from its fsync'd journal (plus a
// hand-torn tail, as a real crash would leave). The invariants at the end
// are absolute, not statistical: every task certified, no certified work
// lost, no credit granted twice, nothing recomputed that the journal
// already held.
func TestChaosSoak(t *testing.T) {
	p, err := plan.Balanced(120, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	inj, err := faults.New(faults.Config{
		Seed:     7,
		DialDrop: 0.05, ReadDrop: 0.02, WriteDrop: 0.02,
		Corrupt: 0.01, ShortWrite: 0.01,
		Latency: 200 * time.Microsecond, Jitter: 300 * time.Microsecond,
	})
	if err != nil {
		t.Fatal(err)
	}

	jpath := filepath.Join(t.TempDir(), "journal.jsonl")
	jf1, err := os.OpenFile(jpath, os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	reg1 := obs.NewRegistry()
	sup1, err := NewSupervisor(SupervisorConfig{
		Plan: p, WorkKind: "hashchain", Iters: 10, Seed: 9,
		Journal: jf1, JournalSync: true,
		IOTimeout: 2 * time.Second, Deadline: 2 * time.Second,
		WrapListener: inj.Listener, Metrics: reg1,
	})
	if err != nil {
		t.Fatal(err)
	}
	addr, err := sup1.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}

	// A small workforce that never gives up: each goroutine re-enters
	// RunWorker (fresh identity) whenever a run ends, until told to stop.
	// Within a run, Reconnect-mode sessions resume the same identity.
	// Three workers lease in batches of 16 and one speaks the single-item
	// verbs, so the soak also proves both verb pairs share the one lease
	// path under fire.
	var stop atomic.Bool
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			batch := 16
			if i == 3 {
				batch = 1
			}
			for !stop.Load() {
				RunWorker(WorkerConfig{
					Addr: addr, Name: fmt.Sprintf("chaos-%d", i),
					Reconnect: true, MaxReconnects: 25, BatchSize: batch,
					BackoffBase: 2 * time.Millisecond, BackoffMax: 50 * time.Millisecond,
					Seed: uint64(i + 1),
					Dial: func(a string) (net.Conn, error) { return inj.Dial("tcp", a) },
				})
				time.Sleep(5 * time.Millisecond)
			}
		}(i)
	}
	fail := func(format string, args ...any) {
		t.Helper()
		stop.Store(true)
		wg.Wait()
		t.Fatalf(format, args...)
	}

	// Phase 1: let real progress accumulate, then kill the supervisor
	// abruptly — no drain, connections die mid-exchange.
	deadline := time.Now().Add(60 * time.Second)
	for {
		if v, _ := reg1.Snapshot().Value("redundancy_journal_records_total"); v >= 30 {
			break
		}
		if time.Now().After(deadline) {
			fail("phase 1: fewer than 30 results journaled within a minute")
		}
		time.Sleep(2 * time.Millisecond)
	}
	sup1.Close()
	jf1.Close()

	// A crash mid-append leaves a torn final record; replay must shrug it
	// off and the restart must truncate it away before appending.
	tear, err := os.OpenFile(jpath, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	tear.WriteString(`{"task":0,"cop`)
	tear.Close()

	// Phase 2: restore at the same address from the journal.
	data, err := os.ReadFile(jpath)
	if err != nil {
		t.Fatal(err)
	}
	jf2, err := os.OpenFile(jpath, os.O_RDWR|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	defer jf2.Close()
	reg2 := obs.NewRegistry()
	sup2, err := NewSupervisor(SupervisorConfig{
		Plan: p, WorkKind: "hashchain", Iters: 10, Seed: 9,
		Restore: bytes.NewReader(data), Journal: jf2, JournalSync: true,
		IOTimeout: 2 * time.Second, Deadline: 2 * time.Second,
		WrapListener: inj.Listener, Metrics: reg2,
	})
	if err != nil {
		fail("restore from chaos journal: %v", err)
	}
	valid := sup2.RestoredJournalBytes()
	if valid <= 0 || valid > int64(len(data))-int64(len(`{"task":0,"cop`)) {
		fail("valid journal prefix %d of %d bytes does not exclude the torn tail", valid, len(data))
	}
	if fi, err := os.Stat(jpath); err != nil || fi.Size() != valid {
		fail("restore left the journal at %v bytes (err %v), want its %d-byte replayed prefix", fi.Size(), err, valid)
	}
	for try := 0; ; try++ {
		if _, err = sup2.Start(addr); err == nil {
			break
		}
		if try >= 100 {
			fail("could not rebind %s: %v", addr, err)
		}
		time.Sleep(10 * time.Millisecond)
	}

	waitDone := make(chan struct{})
	go func() { sup2.Wait(); close(waitDone) }()
	select {
	case <-waitDone:
	case <-time.After(120 * time.Second):
		fail("chaos run never reached certification (journal records: %v restored, %v live)",
			func() float64 { v, _ := reg2.Snapshot().Value("redundancy_journal_restored_total"); return v }(),
			func() float64 { v, _ := reg2.Snapshot().Value("redundancy_journal_records_total"); return v }())
	}
	stop.Store(true)
	wg.Wait()
	sup2.Close()

	sum := sup2.Summary()
	tasks := p.N + p.Ringers
	if sum.Verify.Tasks != tasks || sum.Verify.Accepted != tasks {
		t.Errorf("certified %d/%d tasks, want all %d", sum.Verify.Accepted, sum.Verify.Tasks, tasks)
	}
	if sum.Verify.MismatchDetected != 0 || sum.WrongResults != 0 {
		t.Errorf("honest workers under faults produced mismatches: %+v wrong=%d",
			sum.Verify, sum.WrongResults)
	}
	// Exactly-once accounting: every assignment contributes exactly one
	// credit across both supervisor lives — a lost certified task would
	// leave the total short, a double grant would push it over.
	total := 0
	for _, e := range sum.Credits {
		total += e.Credit
	}
	if total != p.TotalAssignments() {
		t.Errorf("total credit %d, want %d (lost or double-granted work)", total, p.TotalAssignments())
	}
	if sum.Restored < 30 {
		t.Errorf("restored %d results, want the >=30 journaled before the kill", sum.Restored)
	}
	snap := reg2.Snapshot()
	if v, _ := snap.Value("redundancy_journal_records_total"); sum.Restored+int(v) != p.TotalAssignments() {
		t.Errorf("journal holds %d restored + %v live records, want %d total (re-ran completed work?)",
			sum.Restored, v, p.TotalAssignments())
	}
	if inj.Injected() == 0 {
		t.Error("fault injector never fired; the soak proved nothing")
	}
	t.Logf("soak: %d faults injected, %d restored, %d participants, %d reconnect-era credits entries",
		inj.Injected(), sum.Restored, sum.Participants, len(sum.Credits))
}
