package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"regexp"
	"testing"

	"redundancy"
	"redundancy/internal/plan"
)

// The smoke tests are sized for `go test -short`: no TCP, no sleeps, a
// 10^3-task tail sweep and a few thousand replayed assignments.

var update = flag.Bool("update", false, "rewrite ../BENCHMARK.json from catalog.json")

// TestBenchmarkFile holds BENCHMARK.json to the catalog it is generated
// from, the catalog to the limits of the driver contract, and the names the
// binary prints on its last line to BENCHMARK.json, in both directions.
func TestBenchmarkFile(t *testing.T) {
	cat := loadCatalog()
	want := cat.benchmarkFile()
	if *update {
		if err := os.WriteFile("../BENCHMARK.json", want, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	got, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("BENCHMARK.json is not what catalog.json generates; run go test -run TestBenchmarkFile -update in bench/")
	}
	var bf struct {
		RunSeconds int `json:"run_seconds"`
		Workloads  []workloadDoc
		EndToEnd   []metricDoc `json:"end_to_end"`
		PerLayer   []metricDoc `json:"per_layer"`
	}
	if err := json.Unmarshal(got, &bf); err != nil {
		t.Fatal(err)
	}

	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	checkName := func(n string) {
		t.Helper()
		if !nameRE.MatchString(n) || seen[n] {
			t.Errorf("name %q is malformed or used twice", n)
		}
		seen[n] = true
	}
	if len(got) > 64<<10 || bf.RunSeconds < 1 || bf.RunSeconds > 60 {
		t.Errorf("%d bytes, run_seconds %d", len(got), bf.RunSeconds)
	}
	runners := workloadRunners()
	if len(bf.Workloads) < 2 || len(bf.Workloads) > 8 || len(runners) != len(bf.Workloads) {
		t.Errorf("%d workloads, %d runners", len(bf.Workloads), len(runners))
	}
	for _, w := range bf.Workloads {
		checkName(w.Name)
		if len(w.Why) > 200 || runners[w.Name] == nil {
			t.Errorf("workload %s: why is %d characters, runner %v", w.Name, len(w.Why), runners[w.Name] != nil)
		}
	}
	hasSetup := false
	for _, m := range bf.EndToEnd {
		checkName(m.Name)
		if !unitRE.MatchString(m.Unit) || m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end_to_end %s: unit %q or bound %g outside the contract", m.Name, m.Unit, m.Bound)
		}
		hasSetup = hasSetup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !hasSetup || len(bf.EndToEnd) > 16 || len(bf.PerLayer) > 128 {
		t.Errorf("setup_s present: %v; %d end_to_end, %d per_layer", hasSetup, len(bf.EndToEnd), len(bf.PerLayer))
	}
	for _, m := range bf.PerLayer {
		checkName(m.Name)
		if !unitRE.MatchString(m.Unit) {
			t.Errorf("per_layer %s: unit %q", m.Name, m.Unit)
		}
	}

	for traced, listed := range map[bool][]metricDoc{false: bf.EndToEnd, true: bf.PerLayer} {
		line, err := driverLine(cat, &result{Workload: "bulk-bin", Traced: traced, Correct: true, Attempted: 1, Metrics: map[string]stat{}})
		if err != nil {
			t.Fatal(err)
		}
		var printed struct {
			Metrics map[string]struct{ Unit string }
		}
		if err := json.Unmarshal(line, &printed); err != nil {
			t.Fatal(err)
		}
		for _, m := range listed {
			if p, ok := printed.Metrics[m.Name]; !ok || p.Unit != m.Unit {
				t.Errorf("traced=%v: BENCHMARK.json names %s [%s], the binary prints %q (present=%v)", traced, m.Name, m.Unit, p.Unit, ok)
			}
			delete(printed.Metrics, m.Name)
		}
		for n := range printed.Metrics {
			t.Errorf("traced=%v: the binary prints %s, BENCHMARK.json does not name it", traced, n)
		}
	}
}

// TestTailSimSmoke runs the tail-sim workload end to end at 10^3 tasks,
// traced, and requires every catalog metric of the workload, no other, a
// stable digest across rounds, and the pinned seed-1 digest.
func TestTailSimSmoke(t *testing.T) {
	cat := loadCatalog()
	opt := options{workload: "tail-sim", seed: 1, seconds: 1, trace: true, outDir: t.TempDir()}
	res := runWorkload(opt, cat, func(opt options, rec *recorder, res *result, tr *tracer) error {
		return runTailSimAt(1000, "tail-sim-1000", opt, rec, res, tr)
	})
	if !res.Correct {
		t.Fatalf("smoke run failed: %v", res.Failures)
	}
	for _, m := range append(cat.EndToEnd, cat.PerLayer...) {
		_, got := res.Metrics[m.Name]
		if want := m.appliesTo("tail-sim"); got != want {
			t.Errorf("metric %s: reported=%v, catalog says applies=%v", m.Name, got, want)
		}
	}
	if v := res.Metrics["sim_completions_per_s"].Value; v <= 0 {
		t.Errorf("sim_completions_per_s = %v", v)
	}
	if _, err := os.Stat(opt.outDir + "/trace-tail-sim.json"); err != nil {
		t.Errorf("trace file: %v", err)
	}
}

func TestLayerReplays(t *testing.T) {
	for _, tc := range []struct {
		proto string
		batch int
	}{{redundancy.ProtoJSON, 1}, {redundancy.ProtoBinary, 64}} {
		c, err := replayCodec(tc.proto, tc.batch, 4096, 10_000)
		if err != nil {
			t.Fatal(err)
		}
		if c.encodeNs <= 0 || c.decodeNs <= 0 || c.wireBytes <= 0 {
			t.Errorf("%s/%d: %+v", tc.proto, tc.batch, c)
		}
	}
	json1, _ := replayCodec(redundancy.ProtoJSON, 1, 4096, 10_000)
	bin64, _ := replayCodec(redundancy.ProtoBinary, 64, 4096, 10_000)
	if bin64.wireBytes >= json1.wireBytes {
		t.Errorf("binary batch-64 puts %.1f B/assignment on the wire, JSON batch-1 %.1f", bin64.wireBytes, json1.wireBytes)
	}

	p, err := plan.Balanced(2000, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	for _, reserve := range []bool{false, true} {
		sv, err := replaySchedVerify(p.Tasks(), 1, 16, reserve)
		if err != nil {
			t.Fatal(err)
		}
		if sv.nextBatchNs <= 0 || sv.submitNs <= 0 {
			t.Errorf("reserve=%v: %+v", reserve, sv)
		}
	}
	rec := newRecorder()
	if _, _, err := replayPlan(func() (*plan.Plan, error) { return plan.Balanced(2000, 0.5) }, 2000, 0.5, rec); err != nil {
		t.Fatal(err)
	}
	if rec.failed != 0 || rec.attempted != 4 {
		t.Errorf("plan assertions: %d of %d failed: %v", rec.failed, rec.attempted, rec.failures)
	}

	path := filepath.Join(t.TempDir(), "replay.journal")
	if _, err := replayJournal(path, []int{96, 1024, journalSyncOp, 0, 64, journalSyncOp}); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Errorf("replayJournal left %s behind: %v", path, err)
	}
}

// TestCorruptionFailsTheRun: a corrupted certified value or report digest
// must make the workload incorrect and the command exit non-zero.
func TestCorruptionFailsTheRun(t *testing.T) {
	cat := loadCatalog()
	finish := func(rec *recorder) *result {
		for _, m := range cat.EndToEnd {
			if m.appliesTo("bulk-bin") {
				rec.observe(m.Name, 1)
			}
		}
		res := &result{Workload: "bulk-bin"}
		rec.finish(cat, res)
		return res
	}
	honest := func(id int) (uint64, bool) {
		return truthValue(id), true
	}

	rec := newRecorder()
	checkCertified(rec, "test", []int{0, 7, 99}, honest)
	if res := finish(rec); !res.Correct || exitCode(res) != 0 {
		t.Fatalf("honest values rejected: %v", res.Failures)
	}

	rec = newRecorder()
	checkCertified(rec, "test", []int{0, 7, 99}, func(id int) (uint64, bool) {
		v, _ := honest(id)
		if id == 7 {
			v ^= 1
		}
		return v, true
	})
	if res := finish(rec); res.Correct || res.Failed != 1 || exitCode(res) == 0 || res.Metrics["failure_ratio"].Value <= 0 {
		t.Fatalf("corrupted certified value passed: %+v", res)
	}

	rec = newRecorder()
	dc := &digestChecker{}
	dc.check(rec, 0, map[string]int{"completions": 10})
	dc.check(rec, 1, map[string]int{"completions": 10})
	if rec.failed != 0 {
		t.Fatalf("equal reports rejected: %v", rec.failures)
	}
	dc.check(rec, 2, map[string]int{"completions": 11})
	if res := finish(rec); res.Correct || exitCode(res) == 0 {
		t.Fatal("a report that changed between rounds passed")
	}

	rec = newRecorder()
	(&digestChecker{key: "tail-sim"}).check(rec, 0, map[string]int{"completions": 10})
	if res := finish(rec); res.Correct || exitCode(res) == 0 {
		t.Fatal("a report differing from the pinned digest passed")
	}
}

func TestCompareVerdicts(t *testing.T) {
	cat := loadCatalog()
	mk := func(aps, lo, hi, fail float64) map[string]*result {
		return map[string]*result{"bulk-bin": {Workload: "bulk-bin", Metrics: map[string]stat{
			"assignments_per_s": {Value: aps, Q1: lo, Q3: hi, N: 5},
			"failure_ratio":     {Value: fail, N: 1},
		}}}
	}
	verdicts := func(a, b map[string]*result) map[string]string {
		out := map[string]string{}
		for _, r := range compareResults(cat, a, b) {
			out[r.Metric] = r.Verdict
		}
		return out
	}
	base := mk(500_000, 495_000, 505_000, 0)
	if v := verdicts(base, mk(490_000, 485_000, 495_000, 0)); v["assignments_per_s"] != verdictOK || v["failure_ratio"] != verdictOK {
		t.Errorf("2%% slower: %v", v)
	}
	if v := verdicts(base, mk(300_000, 295_000, 305_000, 0)); v["assignments_per_s"] != verdictRegressed {
		t.Errorf("40%% slower: %v", v)
	}
	if v := verdicts(base, mk(600_000, 595_000, 605_000, 0)); v["assignments_per_s"] != verdictOK {
		t.Errorf("20%% faster: %v", v)
	}
	if v := verdicts(base, mk(300_000, 200_000, 420_000, 0)); v["assignments_per_s"] != verdictUnresolved {
		t.Errorf("rounds spread wider than the bound: %v", v)
	}
	if v := verdicts(base, mk(500_000, 495_000, 505_000, 1e-6)); v["failure_ratio"] != verdictRegressed {
		t.Errorf("any rise in failure_ratio: %v", v)
	}
}
