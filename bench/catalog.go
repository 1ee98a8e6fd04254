package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
)

// catalog.json is the one hand-maintained description of the suite: how the
// driver runs it, every workload, and every metric with its unit,
// direction, bound, owning layer and the prediction of which end-to-end
// metric a layer metric should move. BENCHMARK.json at the repo root is
// generated from it (benchmarkFile); `go test -run TestBenchmarkFile -update`
// rewrites it and the same test fails when the two differ.
//
//go:embed catalog.json
var catalogJSON []byte

// workloadDoc and metricDoc decode the fields the binary acts on; the
// catalog's prose (stresses, bypasses, what, layer, moves) is for readers.
type workloadDoc struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type metricDoc struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
	// Bound is the share of the base median by which an end-to-end metric
	// may worsen before -compare calls the row regressed; 0 means any rise.
	Bound     float64  `json:"bound,omitempty"`
	Workloads []string `json:"workloads"`
}

func (m metricDoc) appliesTo(workload string) bool {
	for _, w := range m.Workloads {
		if w == "all" || w == workload {
			return true
		}
	}
	return false
}

type catalogDoc struct {
	Command    []string      `json:"command"`
	Paths      []string      `json:"paths"`
	RunSeconds int           `json:"run_seconds"`
	Workloads  []workloadDoc `json:"workloads"`
	EndToEnd   []metricDoc   `json:"end_to_end"`
	PerLayer   []metricDoc   `json:"per_layer"`
}

func loadCatalog() catalogDoc {
	var c catalogDoc
	if err := json.Unmarshal(catalogJSON, &c); err != nil {
		panic(fmt.Sprintf("bench: embedded catalog.json: %v", err))
	}
	return c
}

// The driver contract holds every BENCHMARK.json end_to_end metric to its
// bound on every workload and wants it never 0. So only the end-to-end
// metrics that every workload reports go there; the ones that exist on some
// workloads only, and failure_ratio (0 when healthy; the contract's
// attempted/failed carry it), ride in its per_layer list, where a workload
// without one prints 0. -compare still judges all nine by their bounds.
func (m metricDoc) everywhere() bool {
	return len(m.Workloads) == 1 && m.Workloads[0] == "all" && m.Bound > 0
}

// driverEndToEnd lists the metrics a --trace 0 run prints on its last line.
func (c catalogDoc) driverEndToEnd() []metricDoc {
	var out []metricDoc
	for _, m := range c.EndToEnd {
		if m.everywhere() {
			out = append(out, m)
		}
	}
	return out
}

// driverPerLayer lists the metrics a --trace 1 run prints on its last line.
func (c catalogDoc) driverPerLayer() []metricDoc {
	var out []metricDoc
	for _, m := range c.EndToEnd {
		if !m.everywhere() {
			out = append(out, m)
		}
	}
	return append(out, c.PerLayer...)
}

// benchmarkFile renders BENCHMARK.json: the catalog cut down to exactly the
// keys the driver contract allows.
func (c catalogDoc) benchmarkFile() []byte {
	type bounded struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type unbounded struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	doc := struct {
		Command    []string      `json:"command"`
		Paths      []string      `json:"paths"`
		RunSeconds int           `json:"run_seconds"`
		Workloads  []workloadDoc `json:"workloads"`
		EndToEnd   []bounded     `json:"end_to_end"`
		PerLayer   []unbounded   `json:"per_layer"`
	}{Command: c.Command, Paths: c.Paths, RunSeconds: c.RunSeconds, Workloads: c.Workloads}
	for _, m := range c.driverEndToEnd() {
		doc.EndToEnd = append(doc.EndToEnd, bounded{m.Name, m.Unit, m.Better, m.Bound})
	}
	for _, m := range c.driverPerLayer() {
		doc.PerLayer = append(doc.PerLayer, unbounded{m.Name, m.Unit, m.Better})
	}
	data, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		panic(fmt.Sprintf("bench: rendering BENCHMARK.json: %v", err)) // strings and numbers only
	}
	return append(data, '\n')
}
