package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"time"

	"redundancy"
	"redundancy/internal/experiments"
)

// Simulator sizes, pinned like the platform workloads'.
const (
	tailSimTasks     = 100_000
	scenarioLabTasks = 100_000
	simWorkers       = nWorkers
)

// pinnedDigests holds the sha256 of the seed-1 reports at the pinned
// sizes: a change that alters what the simulators compute, not just how
// fast, fails the run until the pin is deliberately updated.
//
//go:embed testdata/digests.json
var pinnedDigestsJSON []byte

func pinnedDigest(key string) (string, bool) {
	var m map[string]string
	if err := json.Unmarshal(pinnedDigestsJSON, &m); err != nil {
		panic(fmt.Sprintf("bench: testdata/digests.json: %v", err))
	}
	d, ok := m[key]
	return d, ok
}

func digestOf(v any) (string, error) {
	data, err := json.Marshal(v)
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:]), nil
}

// digestChecker asserts a simulator's report is identical on every round
// and, when key names a pin in testdata/digests.json, equal to it.
type digestChecker struct {
	key   string // "" where the seed moved the inputs off the pinned ones
	first string
}

func (d *digestChecker) check(rec *recorder, round int, report any) {
	got, err := digestOf(report)
	if err != nil {
		rec.check(false, "round %d: digest: %v", round, err)
		return
	}
	if d.first == "" {
		d.first = got
		if d.key != "" {
			want, ok := pinnedDigest(d.key)
			rec.check(ok && got == want, "round %d: %s digest %s differs from the pinned %s", round, d.key, got, want)
		}
		return
	}
	rec.check(got == d.first, "round %d: report digest %s differs from round 0's %s", round, got, d.first)
}

func tailSweepConfig(tasks int, seed uint64) experiments.TailSweepConfig {
	cfg := experiments.DefaultTailSweepConfig(tasks)
	cfg.Workers = simWorkers
	cfg.Seed += seed - 1 // seed 1 is the configuration the experiments use
	return cfg
}

// tailSimRound runs one full sweep: simple, balanced and GS, each with
// speculation off and on.
func tailSimRound(cfg experiments.TailSweepConfig, round int, rec *recorder, dc *digestChecker, tr *tracer) (run time.Duration, completions int, err error) {
	tr.setRound(round)
	root := tr.begin("round", -1)
	defer tr.end(root)
	span := tr.begin("serve", root)
	start := time.Now()
	rep, err := experiments.TailSweep(cfg)
	run = time.Since(start)
	tr.end(span)
	if err != nil {
		return
	}
	for _, row := range rep.Rows {
		completions += row.Completions
		// Every base copy completes; clones can only add to that.
		rec.check(row.Completions >= row.Copies*cfg.Trials,
			"round %d: %s spec=%v completed %d copies, fewer than the %d dealt", round, row.Scheme, row.Speculate, row.Completions, row.Copies*cfg.Trials)
	}
	dc.check(rec, round, rep)
	return
}

// scenarioSuite is the five-template registry at the pinned scale, on the
// templates' own seeds whatever --seed says: their expectations are
// statistical bounds calibrated at those seeds (a k=2 detection rate over
// some 200 cheats, within 0.06), and on a shifted seed about one run in ten
// trips one, which would be a failed operation the platform did not cause.
func scenarioSuite(tasks int) []redundancy.Scenario {
	scs := redundancy.Scenarios()
	for i := range scs {
		scs[i] = scs[i].WithScale(tasks, tasks)
	}
	return scs
}

// checkScenarioReports counts one check per template: it ran, and
// Scenario.Check finds no violated expectation.
func checkScenarioReports(rec *recorder, round int, scs []redundancy.Scenario, results []redundancy.SuiteResult) (assignments int, reports []*redundancy.ScenarioReport) {
	for i, r := range results {
		if r.Err != nil {
			rec.check(false, "round %d: %s: %v", round, r.Name, r.Err)
			continue
		}
		violations := scs[i].Check(r.Report)
		rec.check(len(violations) == 0, "round %d: %s: %v", round, r.Name, violations)
		assignments += r.Report.Assignments
		reports = append(reports, r.Report)
	}
	return assignments, reports
}

// scenarioLabRound runs the five templates on two workers.
func scenarioLabRound(scs []redundancy.Scenario, round int, rec *recorder, dc *digestChecker, tr *tracer) (run time.Duration, assignments int) {
	tr.setRound(round)
	root := tr.begin("round", -1)
	defer tr.end(root)
	span := tr.begin("serve", root)
	start := time.Now()
	results := redundancy.RunScenarios(scs, simWorkers)
	run = time.Since(start)
	tr.end(span)
	assignments, reports := checkScenarioReports(rec, round, scs, results)
	dc.check(rec, round, reports)
	return run, assignments
}
