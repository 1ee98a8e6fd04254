//go:build !goexperiment.synctest

package platform

// The tests in vtime_test.go and soak_test.go run in testing/synctest
// bubbles, which need GOEXPERIMENT=synctest. Under a plain build each keeps
// its name here and reports what it did in one child `go test` of those
// files with the experiment set, so `go test ./...` runs them, and a
// failure carries the child's output. TestVirtualTestsNamed keeps the lists
// equal.

import (
	"encoding/json"
	"flag"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"os/exec"
	"reflect"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestBufConnWriteDeadline(t *testing.T)                      { virtual(t) }
func TestBufConnCloseUnblocks(t *testing.T)                      { virtual(t) }
func TestVirtualTimeIsDeterministic(t *testing.T)                { virtual(t) }
func TestSpeculativeFirstResultWins(t *testing.T)                { virtual(t) }
func TestDisconnectDeadlineReclaimOverlap(t *testing.T)          { virtual(t) }
func TestQuarantineLifecycle(t *testing.T)                       { virtual(t) }
func TestQuarantineFeedsEstimator(t *testing.T)                  { virtual(t) }
func TestProbationExpiresWhenRingerStarved(t *testing.T)         { virtual(t) }
func TestSlowLorisDisconnectedByIOTimeout(t *testing.T)          { virtual(t) }
func TestShutdownDrains(t *testing.T)                            { virtual(t) }
func TestShutdownTimeoutForceCloses(t *testing.T)                { virtual(t) }
func TestPipelinedThenStallDisconnectedByIOTimeout(t *testing.T) { virtual(t) }
func TestFloodWithoutReadingIsBounded(t *testing.T)              { virtual(t) }
func TestSlowCommitDoesNotTripIOTimeout(t *testing.T)            { virtual(t) }
func TestMetricsAndEventsEndToEnd(t *testing.T)                  { virtual(t) }
func TestDeadlineReclaimKeepsComputationLive(t *testing.T)       { virtual(t) }
func TestCheatersDetectedEndToEnd(t *testing.T)                  { virtual(t) }
func TestShardedWorkerWaitsOutRestores(t *testing.T)             { virtual(t) }
func TestShardedWorkerReleasedByClose(t *testing.T)              { virtual(t) }
func TestClusterWaitSkipsKilledShard(t *testing.T)               { virtual(t) }
func TestChaosSoak(t *testing.T)                                 { virtual(t) }
func TestStallChaosSoak(t *testing.T)                            { virtual(t) }
func TestGroupCommitManyWorkerSoak(t *testing.T)                 { virtual(t) }
func TestLeaseInvariantsUnderChaos(t *testing.T)                 { virtual(t) }
func TestShardChaosSoak(t *testing.T)                            { virtual(t) }

// gatedFiles hold the tests that run in the child.
var gatedFiles = []string{"vtime_test.go", "soak_test.go"}

// TestVirtualTestsNamed: every test in gatedFiles has its name here, so
// none runs in the child without being reported.
func TestVirtualTestsNamed(t *testing.T) {
	gated, here := testFuncs(t, gatedFiles...), testFuncs(t, "vtime_plain_test.go")
	here = slices.DeleteFunc(here, func(n string) bool { return n == "TestVirtualTestsNamed" })
	if !reflect.DeepEqual(gated, here) {
		t.Errorf("tests in %v %v, named in vtime_plain_test.go %v", gatedFiles, gated, here)
	}
}

// childTest is one run of one test in the child, from its -json events.
type childTest struct {
	name   string
	action string       // pass or fail; empty if it never ended
	output []string     // its output lines, subtests' excluded
	subs   []*childTest // its subtests' runs, in the order they ran
}

var (
	childOnce    sync.Once
	childMu      sync.Mutex
	childRuns    map[string][]*childTest // each test's runs in the child, in order
	childShown   map[string]int          // how many of them have been reported
	childShuffle string                  // the child's -test.shuffle line, if it shuffled
	childLog     []byte                  // the child's whole output, for a run it never made
	childErr     error
)

// virtual reports t's next run in the child, and each of that run's
// subtests as a subtest of t. The child repeats and shuffles as this binary
// was asked to, so `-count=N` here reports N child runs of each test.
func virtual(t *testing.T) {
	childOnce.Do(func() { runChild(t) })
	childMu.Lock()
	k := childShown[t.Name()]
	childShown[t.Name()]++
	runs := childRuns[t.Name()]
	childMu.Unlock()
	if k >= len(runs) {
		t.Fatalf("run %d of %s did not happen in the GOEXPERIMENT=synctest child (%v):\n%s", k+1, t.Name(), childErr, childLog)
	}
	report(t, runs[k])
}

func report(t *testing.T, ct *childTest) {
	for _, sub := range ct.subs {
		t.Run(strings.TrimPrefix(sub.name, ct.name+"/"), func(t *testing.T) { report(t, sub) })
	}
	if ct.action != "pass" {
		t.Fatalf("failed under GOEXPERIMENT=synctest %s:\n%s", childShuffle, strings.Join(ct.output, ""))
	}
}

// runChild runs gatedFiles' tests as `GOEXPERIMENT=synctest go test -json`
// with this binary's -count and -shuffle, under the race detector when this
// binary has it.
func runChild(t *testing.T) {
	names := testFuncs(t, gatedFiles...)
	args := []string{"test", "-json",
		"-count=" + flag.Lookup("test.count").Value.String(),
		"-shuffle=" + flag.Lookup("test.shuffle").Value.String(),
		"-run", "^(" + strings.Join(names, "|") + ")$"}
	if raceEnabled {
		args = append(args, "-race")
	}
	if deadline, ok := t.Deadline(); ok { // time out, and say where, before this binary does
		args = append(args, "-timeout", (time.Until(deadline) * 9 / 10).Round(time.Second).String())
	}
	cmd := exec.Command("go", append(args, ".")...)
	cmd.Env = append(os.Environ(), "GOEXPERIMENT=synctest")
	childLog, childErr = cmd.CombinedOutput()
	childRuns, childShown = make(map[string][]*childTest), make(map[string]int)
	for _, line := range strings.Split(string(childLog), "\n") {
		var ev struct{ Action, Test, Output string }
		if json.Unmarshal([]byte(line), &ev) != nil {
			continue
		}
		if ev.Test == "" {
			if strings.HasPrefix(ev.Output, "-test.shuffle ") {
				childShuffle = "(" + strings.TrimSpace(ev.Output) + ")"
			}
			continue
		}
		runs := childRuns[ev.Test]
		if ev.Action == "run" {
			ct := &childTest{name: ev.Test}
			childRuns[ev.Test] = append(runs, ct)
			if i := strings.LastIndexByte(ev.Test, '/'); i >= 0 {
				if parents := childRuns[ev.Test[:i]]; len(parents) > 0 {
					parent := parents[len(parents)-1]
					parent.subs = append(parent.subs, ct)
				}
			}
			continue
		}
		if len(runs) == 0 {
			continue
		}
		ct := runs[len(runs)-1]
		switch ev.Action {
		case "output":
			ct.output = append(ct.output, ev.Output)
		case "pass", "fail":
			ct.action = ev.Action
		}
	}
}

// testFuncs lists the Test functions declared in files, sorted.
func testFuncs(t *testing.T, files ...string) []string {
	var names []string
	for _, file := range files {
		f, err := parser.ParseFile(token.NewFileSet(), file, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range f.Decls {
			if fn, ok := d.(*ast.FuncDecl); ok && fn.Recv == nil && strings.HasPrefix(fn.Name.Name, "Test") {
				names = append(names, fn.Name.Name)
			}
		}
	}
	sort.Strings(names)
	return names
}
