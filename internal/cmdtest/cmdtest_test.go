// Package cmdtest builds the repository's executables and drives them end
// to end: the CLI surface a downstream user touches first deserves the
// same integration coverage as the library.
package cmdtest

import (
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

var (
	buildOnce sync.Once
	binDir    string
	buildErr  error
)

// binaries builds every command under cmd/ once per test process and
// returns the directory holding them. The list is read from the tree, so a
// new command is built (and must compile) without being named here.
func binaries(t *testing.T) string {
	t.Helper()
	buildOnce.Do(func() {
		binDir, buildErr = os.MkdirTemp("", "redundancy-bins")
		if buildErr != nil {
			return
		}
		entries, err := os.ReadDir(filepath.Join(repoRoot(), "cmd"))
		if err != nil {
			buildErr = err
			return
		}
		args := []string{"build", "-o", binDir}
		for _, e := range entries {
			if e.IsDir() {
				args = append(args, "./cmd/"+e.Name())
			}
		}
		cmd := exec.Command("go", args...)
		cmd.Dir = repoRoot()
		if out, err := cmd.CombinedOutput(); err != nil {
			buildErr = fmt.Errorf("go %s: %v\n%s", strings.Join(args, " "), err, out)
		}
	})
	if buildErr != nil {
		t.Fatal(buildErr)
	}
	return binDir
}

func repoRoot() string {
	// This package lives at <root>/internal/cmdtest.
	wd, err := os.Getwd()
	if err != nil {
		return "."
	}
	return filepath.Dir(filepath.Dir(wd))
}

func run(t *testing.T, timeout time.Duration, bin string, args ...string) string {
	t.Helper()
	cmd := exec.Command(filepath.Join(binaries(t), bin), args...)
	done := make(chan struct{})
	var out []byte
	var err error
	go func() {
		out, err = cmd.CombinedOutput()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(timeout):
		_ = cmd.Process.Kill()
		<-done
		t.Fatalf("%s %v timed out\noutput so far:\n%s", bin, args, out)
	}
	if err != nil {
		t.Fatalf("%s %v: %v\n%s", bin, args, err, out)
	}
	return string(out)
}

func TestFiguresCLI(t *testing.T) {
	out := run(t, 2*time.Minute, "figures", "-fig", "3,7", "-chart")
	for _, want := range []string{
		"Figure 3", "0.7968", "Section 7", "2.2589", "+25889",
		"Figure 3 (chart)", "Golle-Stubblebine",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("figures output missing %q", want)
		}
	}
	// CSV mode.
	csv := run(t, 2*time.Minute, "figures", "-fig", "7", "-csv")
	if !strings.Contains(csv, "Min multiplicity,Redundancy factor") {
		t.Errorf("CSV header missing:\n%s", csv)
	}
}

func TestRedcalcDesignAndSave(t *testing.T) {
	planPath := filepath.Join(t.TempDir(), "plan.json")
	out := run(t, time.Minute, "redcalc",
		"-scheme", "balanced", "-n", "5000", "-target", "0.5", "-p", "0.15",
		"-save", planPath)
	for _, want := range []string{"design:", "ε = 0.557", "plan audit: ok", "plan written"} {
		if !strings.Contains(out, want) {
			t.Errorf("redcalc output missing %q:\n%s", want, out)
		}
	}
	if _, err := os.Stat(planPath); err != nil {
		t.Fatalf("plan file not written: %v", err)
	}

	// The saved plan drives the whole platform pipeline: supervisor with a
	// journal, then two workers (one colluding), then summary.
	journal := filepath.Join(t.TempDir(), "journal.jsonl")
	supCmd := exec.Command(filepath.Join(binaries(t), "supervisor"),
		"-addr", "127.0.0.1:0", "-planfile", planPath, "-journal", journal,
		"-iters", "10", "-quiet", "-resolve")
	stdout, err := supCmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	supCmd.Stderr = supCmd.Stdout
	if err := supCmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer supCmd.Process.Kill()

	// Parse the bound address from the first stdout line.
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
	addr := strings.Fields(first[idx+3:])[0]

	// One honest worker and one colluder. The colluder may be convicted by
	// ringer evidence mid-run and exit non-zero — that is the platform
	// working; only the honest worker must finish cleanly.
	honestErr := make(chan error, 1)
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		args := []string{"-addr", addr, "-name", fmt.Sprintf("w%d", w)}
		if w == 1 {
			args = append(args, "-cheat", "0.5", "-cheatseed", "3")
		}
		go func(w int, args []string) {
			defer wg.Done()
			cmd := exec.Command(filepath.Join(binaries(t), "worker"), args...)
			out, err := cmd.CombinedOutput()
			if w == 0 {
				if err != nil {
					honestErr <- fmt.Errorf("honest worker: %v\n%s", err, out)
					return
				}
				honestErr <- nil
			}
		}(w, args)
	}
	wg.Wait()
	if err := <-honestErr; err != nil {
		t.Fatal(err)
	}

	rest := make(chan string, 1)
	go func() {
		out := first
		b := make([]byte, 4096)
		for {
			n, err := stdout.Read(b)
			out += string(b[:n])
			if err != nil {
				break
			}
		}
		rest <- out
	}()
	// Drain the pipe fully before Wait: Wait closes the pipe and would
	// discard any output not yet read.
	full := <-rest
	if err := supCmd.Wait(); err != nil {
		t.Fatalf("supervisor exited with error: %v\n%s", err, full)
	}
	for _, want := range []string{"computation complete", "tasks certified"} {
		if !strings.Contains(full, want) {
			t.Errorf("supervisor output missing %q:\n%s", want, full)
		}
	}
	// The journal must exist and be non-trivial.
	if fi, err := os.Stat(journal); err != nil || fi.Size() < 100 {
		t.Errorf("journal missing or empty: %v", err)
	}

	// Restart from the journal: the run is already complete, so the
	// supervisor prints its summary and exits immediately.
	out2 := run(t, time.Minute, "supervisor",
		"-addr", "127.0.0.1:0", "-planfile", planPath, "-journal", journal,
		"-iters", "10", "-quiet")
	if !strings.Contains(out2, "computation complete") {
		t.Errorf("restarted supervisor did not complete from journal:\n%s", out2)
	}
}

func TestRedsimCLI(t *testing.T) {
	out := run(t, 2*time.Minute, "redsim",
		"-scheme", "balanced", "-n", "3000", "-participants", "200",
		"-p", "0.1", "-strategy", "always", "-seed", "4")
	for _, want := range []string{"Per-tuple ground truth", "tasks adjudicated", "closed-form"} {
		if !strings.Contains(out, want) {
			t.Errorf("redsim output missing %q:\n%s", want, out)
		}
	}
}
