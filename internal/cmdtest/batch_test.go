package cmdtest

import (
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// startSupervisorCmd launches the supervisor daemon with args, parses the
// bound address from its banner, and returns the address plus a function
// that waits for exit and returns the full output.
func startSupervisorCmd(t *testing.T, args ...string) (addr string, wait func() (string, error)) {
	t.Helper()
	cmd := exec.Command(filepath.Join(binaries(t), "supervisor"), args...)
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	cmd.Stderr = cmd.Stdout
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cmd.Process.Kill() })

	buf := make([]byte, 4096)
	n, err := stdout.Read(buf)
	if err != nil {
		t.Fatal(err)
	}
	first := string(buf[:n])
	idx := strings.Index(first, "on 127.0.0.1:")
	if idx < 0 {
		t.Fatalf("no address in supervisor banner: %q", first)
	}
	addr = strings.Fields(first[idx+3:])[0]
	wait = func() (string, error) {
		out := first
		b := make([]byte, 4096)
		for {
			n, err := stdout.Read(b)
			out += string(b[:n])
			if err != nil {
				break
			}
		}
		return out, cmd.Wait()
	}
	return addr, wait
}

// supervisorEvents decodes the lines of a supervisor -events file written
// so far (a line still being written is skipped).
func supervisorEvents(t *testing.T, path string) []map[string]any {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil && !os.IsNotExist(err) {
		t.Fatal(err)
	}
	var events []map[string]any
	for _, line := range strings.Split(string(data), "\n") {
		var ev map[string]any
		if json.Unmarshal([]byte(line), &ev) == nil {
			events = append(events, ev)
		}
	}
	return events
}

// TestBatchFlagEndToEnd drives both daemons through a complete batched
// run: a batch-16 supervisor serving one -batch 1 worker (which speaks the
// single-item verbs against the same supervisor) and one batch-8 worker.
// Left to race, either process can finish all 60 tasks before the other
// has dialled, which then finds nobody listening. So the order is fixed by
// what the supervisor reports: the -batch 1 worker goes first and may take
// 10 assignments (-max), and the batch-8 worker, which finishes the run,
// starts once the supervisor's events show the first one registered.
func TestBatchFlagEndToEnd(t *testing.T) {
	events := filepath.Join(t.TempDir(), "events.jsonl")
	addr, wait := startSupervisorCmd(t,
		"-addr", "127.0.0.1:0", "-n", "60", "-eps", "0.5",
		"-iters", "10", "-batch", "16", "-quiet", "-events", events)

	worker := func(name string, args ...string) <-chan error {
		done := make(chan error, 1)
		cmd := exec.Command(filepath.Join(binaries(t), "worker"),
			append([]string{"-addr", addr, "-name", name}, args...)...)
		go func() {
			if out, err := cmd.CombinedOutput(); err != nil {
				done <- fmt.Errorf("worker %s %v: %v\n%s", name, args, err, out)
			}
			close(done)
		}()
		return done
	}
	joined := func(name string) (participant float64, ok bool) {
		for _, ev := range supervisorEvents(t, events) {
			if ev["event"] == "worker_joined" && ev["name"] == name {
				return ev["participant"].(float64), true
			}
		}
		return 0, false
	}

	b1 := worker("b1", "-batch", "1", "-max", "10")
	poll := time.NewTicker(2 * time.Millisecond)
	defer poll.Stop()
	timeout := time.After(60 * time.Second)
waiting:
	for {
		if _, ok := joined("b1"); ok {
			break
		}
		select {
		case err := <-b1:
			if err != nil {
				t.Fatal(err)
			}
			break waiting // exited cleanly, which it can only have done registered
		case <-poll.C:
		case <-timeout:
			t.Fatal("the supervisor never reported the -batch 1 worker registered")
		}
	}
	b8 := worker("b8", "-batch", "8")
	for _, done := range []<-chan error{b1, b8} {
		if err := <-done; err != nil { // a closed channel reads nil: exited cleanly
			t.Fatal(err)
		}
	}

	out, err := wait()
	if err != nil {
		t.Fatalf("supervisor exited with error: %v\n%s", err, out)
	}
	for _, want := range []string{"computation complete", "wrong results:      0"} {
		if !strings.Contains(out, want) {
			t.Errorf("supervisor output missing %q:\n%s", want, out)
		}
	}
	// Both verb families served work: each worker was issued assignments.
	issued := map[float64]int{}
	for _, ev := range supervisorEvents(t, events) {
		if ev["event"] == "assignment_issued" {
			issued[ev["participant"].(float64)]++
		}
	}
	for _, name := range []string{"b1", "b8"} {
		if id, ok := joined(name); !ok || issued[id] == 0 {
			t.Errorf("worker %s: registered=%v, %d assignments issued to it (%v)", name, ok, issued[id], issued)
		}
	}
}

// TestBatchFlagRejectsNonPositive: both daemons refuse -batch 0 and
// negative values up front instead of limping into a nonsense protocol.
func TestBatchFlagRejectsNonPositive(t *testing.T) {
	for _, bin := range []string{"supervisor", "worker"} {
		for _, bad := range []string{"0", "-3"} {
			cmd := exec.Command(filepath.Join(binaries(t), bin),
				"-addr", "127.0.0.1:1", "-batch", bad)
			done := make(chan struct{})
			var out []byte
			var err error
			go func() {
				out, err = cmd.CombinedOutput()
				close(done)
			}()
			select {
			case <-done:
			case <-time.After(30 * time.Second):
				cmd.Process.Kill()
				<-done
				t.Fatalf("%s -batch %s did not exit", bin, bad)
			}
			if err == nil {
				t.Errorf("%s -batch %s exited zero:\n%s", bin, bad, out)
			}
			if !strings.Contains(string(out), "-batch") {
				t.Errorf("%s -batch %s error does not name the flag:\n%s", bin, bad, out)
			}
		}
	}
}
