// Command bench is the repository's one pinned benchmark suite: six
// workloads, nine end-to-end metrics and a per-layer cost budget taken from
// outside the code under test. bench/README.md says what each workload
// stresses and how to read the output; BENCHMARK.json at the repo root,
// generated from catalog.json, is the contract an automated driver runs it by.
//
// Usage (from the repo root, via the wrapper that builds this module):
//
//	bash bench/run.sh                                  # every workload, untraced
//	bash bench/run.sh --trace 1                        # every workload, wrappers on, per-layer table and budget
//	bash bench/run.sh --workload bulk-bin --seed 7     # one workload; last stdout line is the driver's JSON
//	bash bench/run.sh --out A.json ; ... --out B.json  # keep two sets
//	bash bench/run.sh --compare A.json B.json          # ok / regressed / unresolved per (metric, workload)
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"time"
)

type options struct {
	workload string
	seed     uint64
	seconds  int
	trace    bool
	outDir   string // bench/out under the repo root
}

func (o options) tmpDir() string { return filepath.Join(o.outDir, "tmp") }

// workloadRunner measures one workload into rec and fills res.Params,
// res.Rounds and res.Budget.
type workloadRunner func(opt options, rec *recorder, res *result, tr *tracer) error

func workloadRunners() map[string]workloadRunner {
	m := map[string]workloadRunner{
		"tail-sim":     runTailSim,
		"scenario-lab": runScenarioLab,
	}
	for _, w := range platformWorkloads {
		w := w
		m[w.name] = func(opt options, rec *recorder, res *result, tr *tracer) error {
			return runPlatform(w, opt, rec, res, tr)
		}
	}
	return m
}

func main() {
	os.Exit(realMain())
}

func realMain() int {
	var (
		opt        options
		trace      int
		out        string
		compare    bool
		resultPath string
	)
	cat := loadCatalog()
	flag.StringVar(&opt.workload, "workload", "all", "workload to run, or all (each in its own process)")
	flag.Uint64Var(&opt.seed, "seed", 1, "seed for the plan shuffle, worker streams and simulators (>= 1)")
	// The driver contract passes --seconds <run_seconds> on every run and
	// wants the run to measure for that long; the default is the catalog's
	// run_seconds, the same number BENCHMARK.json is generated with.
	flag.IntVar(&opt.seconds, "seconds", cat.RunSeconds, "how long one workload measures: it runs fixed-size rounds until this is used up, never fewer than three")
	flag.IntVar(&trace, "trace", 0, "1 turns the wrappers on and reports the per-layer metrics and the budget row")
	flag.StringVar(&out, "out", "", "with -workload all: write every workload's full result to this JSON file")
	flag.BoolVar(&compare, "compare", false, "compare two -out files given as arguments: A.json B.json")
	flag.StringVar(&resultPath, "result", "", "write this workload's full result JSON here (used by the all-workloads parent)")
	flag.Parse()
	opt.trace = trace != 0

	if compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "bench: -compare needs two result files")
			return 2
		}
		return compareFiles(os.Stdout, cat, flag.Arg(0), flag.Arg(1))
	}
	if flag.NArg() != 0 {
		fmt.Fprintf(os.Stderr, "bench: unexpected arguments %q\n", flag.Args())
		return 2
	}
	if opt.seed < 1 || opt.seconds < 1 {
		fmt.Fprintln(os.Stderr, "bench: -seed and -seconds must be at least 1")
		return 2
	}
	opt.outDir = filepath.Join(repoRoot(), "bench", "out")
	if err := os.MkdirAll(opt.tmpDir(), 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 1
	}

	if opt.workload == "all" {
		return runAll(opt, cat, out)
	}
	run, ok := workloadRunners()[opt.workload]
	if !ok {
		fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", opt.workload)
		return 2
	}
	res := runWorkload(opt, cat, run)
	printResult(os.Stdout, cat, res)
	if resultPath != "" {
		data, err := json.Marshal(res)
		if err == nil {
			err = os.WriteFile(resultPath, data, 0o644)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %v\n", err)
			return 1
		}
	}
	line, err := driverLine(cat, res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 1
	}
	fmt.Printf("%s\n", line)
	return exitCode(res)
}

// exitCode is non-zero for a workload with any failed operation or check.
func exitCode(res *result) int {
	if !res.Correct {
		return 1
	}
	return 0
}

// runWorkload measures one workload in this process.
func runWorkload(opt options, cat catalogDoc, run workloadRunner) *result {
	res := &result{Workload: opt.workload, Seed: opt.seed, Traced: opt.trace, Seconds: opt.seconds, Env: currentEnv()}
	rec := newRecorder()
	var tr *tracer
	if opt.trace {
		tr = newTracer()
	}
	start := time.Now()
	if err := run(opt, rec, res, tr); err != nil {
		rec.check(false, "%v", err)
	}
	rec.observe("peak_rss_mb", peakRSSMB())
	if tr != nil {
		path := filepath.Join(opt.outDir, "trace-"+opt.workload+".json")
		if err := tr.writeFile(path, opt.workload, opt.seed); err != nil {
			rec.check(false, "writing %s: %v", path, err)
		}
	}
	res.WallSeconds = time.Since(start).Seconds()
	rec.finish(cat, res)
	return res
}

// runAll re-executes this binary once per workload, so peak RSS and GC
// state cannot leak from one workload into the next.
func runAll(opt options, cat catalogDoc, out string) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 1
	}
	start := time.Now()
	code := 0
	var results []*result
	for _, w := range cat.Workloads {
		resultPath := filepath.Join(opt.tmpDir(), fmt.Sprintf("result-%s-%d.json", w.Name, os.Getpid()))
		traceArg := "0"
		if opt.trace {
			traceArg = "1"
		}
		cmd := exec.Command(self, "-workload", w.Name, "-seed", fmt.Sprint(opt.seed),
			"-seconds", fmt.Sprint(opt.seconds), "-trace", traceArg, "-result", resultPath)
		cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
		if err := cmd.Run(); err != nil {
			fmt.Fprintf(os.Stderr, "bench: workload %s: %v\n", w.Name, err)
			code = 1
		}
		data, err := os.ReadFile(resultPath)
		os.Remove(resultPath)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: workload %s left no result: %v\n", w.Name, err)
			code = 1
			continue
		}
		var res result
		if err := json.Unmarshal(data, &res); err != nil {
			fmt.Fprintf(os.Stderr, "bench: workload %s: %v\n", w.Name, err)
			code = 1
			continue
		}
		results = append(results, &res)
	}
	fmt.Printf("== all %d workloads in %.1fs\n", len(results), time.Since(start).Seconds())
	if out != "" {
		data, err := json.MarshalIndent(results, "", "  ")
		if err == nil {
			err = os.WriteFile(out, append(data, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %v\n", err)
			return 1
		}
		fmt.Printf("wrote %s\n", out)
	}
	return code
}

// repoRoot is the nearest directory at or above the working directory that
// holds BENCHMARK.json; the working directory itself if there is none.
func repoRoot() string {
	wd, err := os.Getwd()
	if err != nil {
		return "."
	}
	for dir := wd; ; dir = filepath.Dir(dir) {
		if _, err := os.Stat(filepath.Join(dir, "BENCHMARK.json")); err == nil {
			return dir
		}
		if dir == filepath.Dir(dir) {
			return wd
		}
	}
}
