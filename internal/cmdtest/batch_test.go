package cmdtest

import (
	"fmt"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
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

// TestBatchFlagEndToEnd drives both daemons through a complete batched
// run: a batch-16 supervisor serving one batch-8 worker and one -batch 1
// worker (which speaks the single-item verbs against the same supervisor).
func TestBatchFlagEndToEnd(t *testing.T) {
	addr, wait := startSupervisorCmd(t,
		"-addr", "127.0.0.1:0", "-n", "60", "-eps", "0.5",
		"-iters", "10", "-batch", "16", "-quiet")

	var wg sync.WaitGroup
	workerErr := make(chan error, 2)
	for i, batch := range []string{"8", "1"} {
		wg.Add(1)
		go func(i int, batch string) {
			defer wg.Done()
			cmd := exec.Command(filepath.Join(binaries(t), "worker"),
				"-addr", addr, "-name", fmt.Sprintf("b%s", batch), "-batch", batch)
			if out, err := cmd.CombinedOutput(); err != nil {
				workerErr <- fmt.Errorf("worker -batch %s: %v\n%s", batch, err, out)
			}
		}(i, batch)
	}
	wg.Wait()
	close(workerErr)
	for err := range workerErr {
		t.Fatal(err)
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
