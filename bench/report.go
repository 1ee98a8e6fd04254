package main

import (
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"sort"
	"strings"
)

// envInfo states honestly what the numbers were taken on.
type envInfo struct {
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Transport  string `json:"transport"`
	Fsync      string `json:"fsync"`
	LoadGen    string `json:"load_generator"`
}

func currentEnv() envInfo {
	return envInfo{
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Transport:  "loopback TCP (127.0.0.1), server and load generator in one process",
		Fsync:      "real fsync on the disk under bench/out/tmp (durable only)",
		LoadGen:    "closed loop, 2 workers/connections",
	}
}

// budgetRow is one platform workload's CPU budget: nanoseconds of process
// CPU per assignment by layer, summing to Total, with the wall-clock cost
// of an assignment beside it.
type budgetRow struct {
	Codec    float64 `json:"codec_ns"`
	Sched    float64 `json:"sched_ns"`
	Verify   float64 `json:"verify_ns"`
	Journal  float64 `json:"journal_ns"`
	Work     float64 `json:"work_ns"`
	Residual float64 `json:"residual_ns"`
	Total    float64 `json:"proc_cpu_ns"`
	WallNs   float64 `json:"wall_ns"`
}

// result is everything one workload process measured.
type result struct {
	Workload    string          `json:"workload"`
	Seed        uint64          `json:"seed"`
	Traced      bool            `json:"traced"`
	Seconds     int             `json:"seconds"`
	Env         envInfo         `json:"env"`
	Params      map[string]any  `json:"params"`
	Rounds      int             `json:"rounds"`
	WallSeconds float64         `json:"wall_seconds"`
	Correct     bool            `json:"correct"`
	Attempted   int64           `json:"attempted"`
	Failed      int64           `json:"failed"`
	Failures    []string        `json:"failures,omitempty"`
	Metrics     map[string]stat `json:"metrics"`
	Budget      *budgetRow      `json:"budget,omitempty"`
}

// recorder collects per-round observations and the operations attempted
// and failed while a workload runs.
type recorder struct {
	vals      map[string][]float64
	notes     map[string]string
	attempted int64
	failed    int64
	failures  []string
}

func newRecorder() *recorder {
	return &recorder{vals: map[string][]float64{}, notes: map[string]string{}}
}

func (r *recorder) observe(name string, v float64) { r.vals[name] = append(r.vals[name], v) }

func (r *recorder) note(name, s string) { r.notes[name] = s }

func (r *recorder) attempt(n int) { r.attempted += int64(n) }

// fail counts n failed operations and keeps the first few messages.
func (r *recorder) fail(n int, format string, args ...any) {
	if n <= 0 {
		return
	}
	r.failed += int64(n)
	if len(r.failures) < 20 {
		r.failures = append(r.failures, fmt.Sprintf(format, args...))
	}
}

// check counts one correctness check and fails it when ok is false.
func (r *recorder) check(ok bool, format string, args ...any) {
	r.attempt(1)
	if !ok {
		r.fail(1, format, args...)
	}
}

// finish turns the observations into the workload's result. Every catalog
// metric that applies to the workload must have been observed (per-layer
// ones only on a traced run); a missing one is itself a failure, so the
// binary and the catalog cannot drift apart silently.
func (r *recorder) finish(cat catalogDoc, res *result) {
	res.Metrics = map[string]stat{}
	want := append([]metricDoc(nil), cat.EndToEnd...)
	if res.Traced {
		want = append(want, cat.PerLayer...)
	}
	known := map[string]bool{}
	for _, m := range cat.PerLayer {
		known[m.Name] = true
	}
	for _, m := range want {
		known[m.Name] = true
		if !m.appliesTo(res.Workload) || m.Name == "failure_ratio" {
			continue
		}
		vals, ok := r.vals[m.Name]
		if !ok {
			r.fail(1, "metric %s was not produced", m.Name)
			continue
		}
		st := summarize(vals, m.Unit)
		st.Note = r.notes[m.Name]
		res.Metrics[m.Name] = st
	}
	for name := range r.vals {
		if !known[name] {
			r.fail(1, "metric %s is not in the catalog", name)
		}
	}
	if r.attempted < 1 {
		r.attempted = 1
	}
	res.Attempted, res.Failed = r.attempted, r.failed
	res.Failures = r.failures
	res.Correct = r.failed == 0
	ratio := float64(r.failed) / float64(r.attempted)
	res.Metrics["failure_ratio"] = summarize([]float64{ratio}, "ratio")
}

// driverLine is the last line of standard output the benchmark contract
// asks for: the driver's end-to-end metrics on an untraced run, every
// per-layer metric on a traced one. A metric that does not exist on this
// workload reads 0.
func driverLine(cat catalogDoc, res *result) ([]byte, error) {
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	names := cat.driverEndToEnd()
	if res.Traced {
		names = cat.driverPerLayer()
	}
	metrics := make(map[string]mv, len(names))
	for _, m := range names {
		metrics[m.Name] = mv{Value: res.Metrics[m.Name].Value, Unit: m.Unit}
	}
	return json.Marshal(struct {
		Correct   bool          `json:"correct"`
		Attempted int64         `json:"attempted"`
		Failed    int64         `json:"failed"`
		Metrics   map[string]mv `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, metrics})
}

// printResult writes the human-readable table: every metric by name with
// its unit, the rounds' min, max and count, and the budget row.
func printResult(w io.Writer, cat catalogDoc, res *result) {
	fmt.Fprintf(w, "== %s  seed=%d traced=%v rounds=%d wall=%.1fs  %s/%s %s nproc=%d GOMAXPROCS=%d\n",
		res.Workload, res.Seed, res.Traced, res.Rounds, res.WallSeconds,
		res.Env.GOOS, res.Env.GOARCH, res.Env.GoVersion, res.Env.NumCPU, res.Env.GOMAXPROCS)
	fmt.Fprintf(w, "   %s; %s; %s\n", res.Env.Transport, res.Env.LoadGen, res.Env.Fsync)
	keys := make([]string, 0, len(res.Params))
	for k := range res.Params {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var ps []string
	for _, k := range keys {
		ps = append(ps, fmt.Sprintf("%s=%v", k, res.Params[k]))
	}
	fmt.Fprintf(w, "   %s\n", strings.Join(ps, " "))
	fmt.Fprintf(w, "   %-44s %14s %-6s %12s %12s %12s %12s %4s  %s\n", "metric", "median", "unit", "min", "q1", "q3", "max", "n", "note")
	row := func(m metricDoc) {
		st, ok := res.Metrics[m.Name]
		if !ok {
			return
		}
		fmt.Fprintf(w, "   %-44s %14.6g %-6s %12.5g %12.5g %12.5g %12.5g %4d  %s\n", m.Name, st.Value, st.Unit, st.Min, st.Q1, st.Q3, st.Max, st.N, st.Note)
	}
	for _, m := range cat.EndToEnd {
		row(m)
	}
	for _, m := range cat.PerLayer {
		row(m)
	}
	if b := res.Budget; b != nil {
		fmt.Fprintf(w, "   budget (CPU ns/assignment): codec %.0f + sched %.0f + verify %.0f + journal %.0f + work %.0f + residual %.0f = proc.cpu %.0f   | wall %.0f ns/assignment\n",
			b.Codec, b.Sched, b.Verify, b.Journal, b.Work, b.Residual, b.Total, b.WallNs)
	}
	fmt.Fprintf(w, "   attempted=%d failed=%d correct=%v\n", res.Attempted, res.Failed, res.Correct)
	for _, f := range res.Failures {
		fmt.Fprintf(w, "   FAIL: %s\n", f)
	}
}
