package main

import (
	"bytes"
	"encoding/json"
)

// runSeconds is the length of the timed phase the driver asks for: five
// 4 s windows. A run then takes 21-25 s with set-up, so the driver's 114
// runs and two cold builds (about 40 s each) end well inside its 3420 s.
const runSeconds = 20

// manifest renders BENCHMARK.json from the catalogue, so that names,
// units, directions and bounds are written down once. `bench manifest`
// prints it; the test suite checks the committed file against it.
func manifest() ([]byte, error) {
	// metricDef marshals to exactly the keys the contract asks for: bound
	// is omitted when zero, which is every per-layer metric and no
	// end-to-end one.
	m := struct {
		Command    []string       `json:"command"`
		Paths      []string       `json:"paths"`
		RunSeconds int            `json:"run_seconds"`
		Workloads  []workloadInfo `json:"workloads"`
		EndToEnd   []metricDef    `json:"end_to_end"`
		PerLayer   []metricDef    `json:"per_layer"`
	}{
		Command:    []string{"bash", "bench/run.sh"},
		Paths:      []string{"bench"},
		RunSeconds: runSeconds,
		EndToEnd:   endToEnd,
		PerLayer:   perLayer,
	}
	for _, w := range workloads {
		m.Workloads = append(m.Workloads, w.workloadInfo)
	}
	var b bytes.Buffer
	enc := json.NewEncoder(&b)
	enc.SetEscapeHTML(false)
	enc.SetIndent("", "  ")
	if err := enc.Encode(m); err != nil {
		return nil, err
	}
	return b.Bytes(), nil
}
