package main

import (
	"encoding/json"
	"fmt"
	"os"
)

// metricSpec names one reported metric and its unit. BENCHMARK.json lists
// the same names with their bounds; TestMetricsMatchSpec keeps the two in
// step.
type metricSpec struct {
	name string
	unit string
}

// endToEndMetrics are what a user of mcdla sees, from untraced runs. On the
// batch workloads the serve_* metrics describe the pass as the operation a
// user waits for (see README.md).
var endToEndMetrics = []metricSpec{
	{"setup_s", "s"},
	{"pass_s", "s"},
	{"peak_rss_mb", "MB"},
	{"serve_p50_ms", "ms"},
	{"serve_p99_ms", "ms"},
	{"serve_max_rps", "1/s"},
	{"ok_ratio", "ratio"},
}

// perLayerMetrics come from a traced run. A layer a workload does not
// exercise reports 0.
var perLayerMetrics = []metricSpec{
	{"core.busy_s", "s"}, {"core.calls", "count"}, {"core.us_per_call", "us"},
	{"vmem.busy_s", "s"}, {"vmem.calls", "count"}, {"vmem.traffic_gb", "GB"},
	{"dnn.busy_s", "s"}, {"dnn.calls", "count"},
	{"train.busy_s", "s"}, {"train.calls", "count"},
	{"runner.jobs", "count"}, {"runner.simulated", "count"}, {"runner.memo_hit_ratio", "ratio"},
	{"experiments.busy_s", "s"}, {"report.busy_s", "s"},
	{"scaleout.busy_s", "s"}, {"scaleout.calls", "count"}, {"scaleout.ms_per_call", "ms"},
	{"fleet.self_s", "s"}, {"fleet.sim_wait_s", "s"}, {"fleet.jobs", "count"}, {"fleet.admitted", "count"}, {"fleet.refused", "count"},
	{"server.run_ms", "ms"}, {"server.report_ms", "ms"}, {"server.wait_ms", "ms"},
	{"store.hit_ratio", "ratio"}, {"store.load_ms", "ms"}, {"store.save_ms", "ms"},
	{"report.json_ms", "ms"}, {"report.csv_ms", "ms"}, {"report.text_ms", "ms"},
	{"loadgen.late_ms", "ms"},
	{"trace.coverage", "ratio"}, {"trace.overhead_s", "s"},
}

// zeroLayers starts a per-layer metric set with every metric at 0, so a
// layer the workload does not exercise is reported as idle.
func zeroLayers() map[string]float64 {
	m := make(map[string]float64, len(perLayerMetrics))
	for _, s := range perLayerMetrics {
		m[s.name] = 0
	}
	return m
}

// spec is the part of BENCHMARK.json the harness reads.
type spec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func loadSpec(path string) (*spec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s spec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("%s: %v", path, err)
	}
	return &s, nil
}
