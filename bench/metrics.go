package main

import (
	"encoding/json"
	"fmt"
	"os"
)

// benchmarkJSON is the repository's BENCHMARK.json: the one list of the
// benchmark's workloads (with why each exists), the end-to-end metrics a
// contract run prints and the per-layer metrics, each with unit and
// direction. The harness reads it instead of keeping a copy; what it
// measures is checked against it on every run (contract, mergeLayers).
type benchmarkJSON struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metric `json:"end_to_end"`
	PerLayer []metric `json:"per_layer"`
}

// metric is one entry of BENCHMARK.json. Bound is the share of the parent's
// median by which an end-to-end metric may worsen between two commits; it
// has to cover the spread across seeds, and per-layer metrics have none.
type metric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// loadBenchmarkJSON reads the file from the repository root, one level
// above the directory the harness runs in (go run -C bench, go test).
func loadBenchmarkJSON() (*benchmarkJSON, error) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		return nil, fmt.Errorf("%w (the harness runs from bench/ inside the repository)", err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(data, &b); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	if len(b.Workloads) != len(workloads) {
		return nil, fmt.Errorf("BENCHMARK.json lists %d workloads, the harness has %d", len(b.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if b.Workloads[i].Name != w.name {
			return nil, fmt.Errorf("BENCHMARK.json workload %d is %q, the harness has %q", i, b.Workloads[i].Name, w.name)
		}
	}
	return &b, nil
}

// e2eMetric is one end-to-end metric as the suite and -selfcheck report it,
// under the issue's name. rel and abs are its same-seed tolerance: between
// two sets of runs of one commit at one seed, the second median may be
// worse than the first by rel of it or by abs, whichever is more. The
// simulated metrics repeat exactly there, so their tolerances only ever
// absorb a change of behaviour; BENCHMARK.json's bounds are wider because
// they are judged across seeds.
type e2eMetric struct {
	name, unit, better string
	rel, abs           float64
}

// endToEnd is what a user of the simulator sees, reported for every
// workload from the untraced repeats. The first five are host
// measurements; the rest are simulated statistics, exact for a seed.
var endToEnd = []e2eMetric{
	{"wall_s", "s", "lower", 0.10, 0},
	{"peer_units_per_s", "peer.unit/s", "higher", 0.10, 0},
	{"setup_s", "s", "lower", 0.25, 0.05},
	{"peak_rss_mb", "MB", "lower", 0.10, 0},
	{"allocs_per_peer_unit", "count", "lower", 0.02, 0},
	{"ratio_err_pct", "%", "lower", 0, 0.5},
	{"age_sep_x", "x", "higher", 0.02, 0},
	{"cap_sep_x", "x", "higher", 0.02, 0},
	{"pao_over_nlco_pct", "%", "lower", 0, 0.5},
	{"msgs_per_peer_unit", "count", "lower", 0.01, 0},
	{"ops_failed_pct", "%", "lower", 0, 0},
}

// neverZero maps the three end-to-end metrics that read 0 on a healthy run
// (no failure anywhere, no demotion-caused connection on churn50k, a ratio
// on target) to the forms BENCHMARK.json carries: its bounds are shares of
// the parent's value, so it takes no metric that can be 0.
var neverZero = map[string]struct {
	from string
	f    func(float64) float64
}{
	"ratio_fit_pct":  {"ratio_err_pct", func(x float64) float64 { return 100 / (1 + x/100) }},
	"nlco_share_pct": {"pao_over_nlco_pct", func(x float64) float64 { return 100 / (1 + x/100) }},
	"ops_ok_pct":     {"ops_failed_pct", func(x float64) float64 { return 100 - x }},
}

// selfTimes are the per-layer metrics that partition a traced run: every
// span kind's self time, each under the name of the layer it belongs to.
// They must add up to run.traced_busy_s.
var selfTimes = []string{
	"run.residual_s",
	"experiments.build_s",
	"experiments.collect_s",
	"overlay.join_self_s",
	"overlay.tick_self_s",
	"overlay.snapshot_s",
	"core.tick_self_s",
	"core.handle_self_s",
	"core.on_connect_self_s",
	"core.on_disconnect_self_s",
	"core.on_layer_change_self_s",
	"core.initial_layer_self_s",
	"query.issue_s",
	"query.assign_objects_s",
	"workload.new_peer_s",
}
