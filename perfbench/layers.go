package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
)

// layersJSON maps every per-layer metric to the layer it measures, the
// end-to-end metrics it should move and the workloads it moves on, so a
// proposed change can cite a metric by name. BENCHMARK.json allows no
// extra keys, so the map lives here.
//
//go:embed layers.json
var layersJSON []byte

type layerInfo struct {
	Layer      string   `json:"layer"`
	MeasuredAs string   `json:"measured_as"`
	Moves      []string `json:"moves"`
	On         []string `json:"on"`
	// Exact marks a count of simulated work or of failures: it must repeat
	// exactly across runs of one workload and seed.
	Exact bool `json:"exact,omitempty"`
}

func loadLayers() (map[string]layerInfo, error) {
	var m map[string]layerInfo
	if err := json.Unmarshal(layersJSON, &m); err != nil {
		return nil, fmt.Errorf("layers.json: %w", err)
	}
	return m, nil
}
