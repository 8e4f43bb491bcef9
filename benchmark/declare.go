package main

import (
	"encoding/json"
	"io"
)

// runSeconds is how long one run measures under the driver.
const runSeconds = 14

// declaration is the schema of BENCHMARK.json at the repository root. The
// file is generated from the harness's own tables: go run ./benchmark
// -declare > BENCHMARK.json, and the smoke test fails when the two differ.
type declaration struct {
	Command    []string           `json:"command"`
	Paths      []string           `json:"paths"`
	RunSeconds int                `json:"run_seconds"`
	Workloads  []declaredWorkload `json:"workloads"`
	EndToEnd   []declaredMetric   `json:"end_to_end"`
	PerLayer   []declaredMetric   `json:"per_layer"`
}

type declaredWorkload struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type declaredMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

func writeDeclaration(w io.Writer) error {
	d := declaration{
		Command:    []string{"go", "run", "./benchmark"},
		Paths:      []string{"benchmark"},
		RunSeconds: runSeconds,
	}
	for _, wl := range workloads {
		d.Workloads = append(d.Workloads, declaredWorkload{Name: wl.name, Why: wl.why})
	}
	for _, m := range gateMetrics() {
		bound := m.Bound
		d.EndToEnd = append(d.EndToEnd, declaredMetric{Name: m.Name, Unit: m.Unit, Better: m.Better, Bound: &bound})
	}
	for _, m := range driverLayers() {
		d.PerLayer = append(d.PerLayer, declaredMetric{Name: m.Name, Unit: m.Unit, Better: m.Better})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.SetEscapeHTML(false)
	return enc.Encode(d)
}
