package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// compareFiles prints, per (metric, workload) row that both files have,
// both medians, the ratio B/A with its base, and a verdict, and returns a
// non-zero exit code if any row regressed. The same path serves the A/A
// check: two sets of the same commit must come out without a regressed row.
func compareFiles(w io.Writer, cat catalogDoc, pathA, pathB string) int {
	a, err := readResults(pathA)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 2
	}
	b, err := readResults(pathB)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 2
	}
	rows := compareResults(cat, a, b)
	fmt.Fprintf(w, "%-16s %-24s %14s %14s %-5s %18s %7s  %s\n", "workload", "metric", "A median", "B median", "unit", "B/A (base A)", "bound", "verdict")
	regressed := 0
	for _, r := range rows {
		fmt.Fprintf(w, "%-16s %-24s %14.6g %14.6g %-5s %18s %6.1f%%  %s\n", r.Workload, r.Metric, r.A, r.B, r.Unit, r.ratio(), r.Bound*100, r.Verdict)
		if r.Verdict == verdictRegressed {
			regressed++
		}
	}
	fmt.Fprintf(w, "%d rows, %d regressed\n", len(rows), regressed)
	if regressed > 0 {
		return 1
	}
	return 0
}

func readResults(path string) (map[string]*result, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var list []*result
	if err := json.Unmarshal(data, &list); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	out := make(map[string]*result, len(list))
	for _, r := range list {
		out[r.Workload] = r
	}
	return out, nil
}

const (
	verdictOK         = "ok"
	verdictRegressed  = "regressed"
	verdictUnresolved = "unresolved"
)

type compareRow struct {
	Workload, Metric, Unit string
	A, B, Bound            float64
	Verdict                string
}

func (r compareRow) ratio() string {
	if r.A == 0 {
		return fmt.Sprintf("%+.6g (A is 0)", r.B-r.A)
	}
	return fmt.Sprintf("%.4f of %.6g", r.B/r.A, r.A)
}

// compareResults judges every end-to-end row present in both sets.
func compareResults(cat catalogDoc, a, b map[string]*result) []compareRow {
	var rows []compareRow
	for _, wl := range cat.Workloads {
		ra, rb := a[wl.Name], b[wl.Name]
		if ra == nil || rb == nil {
			continue
		}
		for _, m := range cat.EndToEnd {
			sa, okA := ra.Metrics[m.Name]
			sb, okB := rb.Metrics[m.Name]
			if !okA || !okB {
				continue
			}
			rows = append(rows, compareRow{
				Workload: wl.Name, Metric: m.Name, Unit: m.Unit,
				A: sa.Value, B: sb.Value, Bound: m.Bound,
				Verdict: judge(m, sa, sb),
			})
		}
	}
	return rows
}

// judge calls a row regressed when B's median is worse than A's by more
// than the metric's bound, and unresolved when either side's own rounds
// spread wider than the bound, since then the two medians cannot be told
// apart at that resolution. The spread is the rounds' interquartile range
// over their median: with 15 to 60 rounds a run, max − min is the two worst
// rounds, not the spread. failure_ratio has bound 0: any rise regresses.
func judge(m metricDoc, a, b stat) string {
	worse := b.Value - a.Value
	if m.Better == "higher" {
		worse = -worse
	}
	if m.Bound == 0 {
		if worse > 0 {
			return verdictRegressed
		}
		return verdictOK
	}
	if spread(a) > m.Bound || spread(b) > m.Bound {
		return verdictUnresolved
	}
	if a.Value != 0 && worse/a.Value > m.Bound {
		return verdictRegressed
	}
	return verdictOK
}

func spread(s stat) float64 {
	if s.Value == 0 || s.N < 2 {
		return 0
	}
	return (s.Q3 - s.Q1) / s.Value
}
