// Package dlm is the public API of this reproduction of "Dynamic Layer
// Management in Super-peer Architectures" (Zhuang, Liu, Xiao — ICPP 2004).
//
// It re-exports the pieces a downstream user composes:
//
//   - Scenario construction (the paper's Table 2 and scaled variants),
//   - the DLM algorithm parameters,
//   - the scenario runner and the per-figure/table experiment drivers,
//   - ASCII rendering of the resulting figures.
//
// Quick start:
//
//	sc := dlm.Scaled(2000)
//	res, err := dlm.Run(dlm.RunConfig{Scenario: sc, Manager: dlm.ManagerDLM})
//	fmt.Println(res.Final.Ratio)
//
// The building blocks (discrete-event engine, overlay, query flooding,
// workload generators) live in internal/ packages; this facade is the
// supported surface.
package dlm

import (
	"io"

	"dlm/internal/config"
	"dlm/internal/core"
	"dlm/internal/experiments"
	"dlm/internal/plot"
	"dlm/internal/scenario"
	"dlm/internal/stats"
)

// Scenario bundles the structural and workload parameters of a run; see
// internal/config for field documentation.
type Scenario = config.Scenario

// Table2 returns the paper's full-scale simulation parameters
// (n≈50,020, η=40, m=2, k_l=80, k_s=3).
func Table2() Scenario { return config.Table2() }

// Scaled returns a Table 2-shaped scenario resized to n peers.
func Scaled(n int) Scenario { return config.Scaled(n) }

// Params are the DLM algorithm tunables.
type Params = core.Params

// DefaultParams returns the evaluation's DLM tuning.
func DefaultParams() Params { return core.DefaultParams() }

// ManagerKind selects a layer-management policy.
type ManagerKind = experiments.ManagerKind

// The available layer-management policies.
const (
	ManagerDLM           = experiments.ManagerDLM
	ManagerPreconfigured = experiments.ManagerPreconfigured
	ManagerStatic        = experiments.ManagerStatic
	ManagerOracle        = experiments.ManagerOracle
	ManagerNone          = experiments.ManagerNone
)

// RunConfig assembles one simulation run.
type RunConfig = experiments.RunConfig

// RunResult carries a run's series, final snapshot, counters and traffic.
type RunResult = experiments.RunResult

// Run executes one configured simulation.
func Run(rc RunConfig) (*RunResult, error) { return experiments.Run(rc) }

// FigureResult is a rendered figure with labelled series and notes.
type FigureResult = experiments.FigureResult

// Figure4 reproduces the paper's Figure 4 (average age per layer).
func Figure4(sc Scenario) (*FigureResult, error) { return experiments.Figure4(sc) }

// Figure5 reproduces Figure 5 (average capacity per layer).
func Figure5(sc Scenario) (*FigureResult, error) { return experiments.Figure5(sc) }

// Figure6 reproduces Figure 6 (layer sizes, log scale).
func Figure6(sc Scenario) (*FigureResult, error) { return experiments.Figure6(sc) }

// Figure7 reproduces Figure 7 (ratio: DLM vs preconfigured).
func Figure7(sc Scenario) (*FigureResult, error) { return experiments.Figure7(sc) }

// Figure8 reproduces Figure 8 (ages: DLM vs preconfigured).
func Figure8(sc Scenario) (*FigureResult, error) { return experiments.Figure8(sc) }

// Table3Row is one row of the paper's Table 3 (PAO analysis).
type Table3Row = experiments.Table3Row

// Table3 reproduces the PAO/NLCO analysis at the given network sizes.
func Table3(sizes []int, baseSeed int64) ([]Table3Row, error) {
	return experiments.Table3(sizes, baseSeed)
}

// FormatTable3 renders Table 3 rows in the paper's layout.
func FormatTable3(rows []Table3Row) string { return experiments.FormatTable3(rows) }

// OverheadResult quantifies DLM traffic versus search traffic (§6).
type OverheadResult = experiments.OverheadResult

// Overhead runs the §6 traffic study.
func Overhead(sc Scenario) (*OverheadResult, error) { return experiments.Overhead(sc) }

// PolicyAblationRow compares information-exchange policies.
type PolicyAblationRow = experiments.PolicyAblationRow

// PolicyAblation compares event-driven and periodic exchange.
func PolicyAblation(sc Scenario, intervals []float64) ([]PolicyAblationRow, error) {
	return experiments.PolicyAblation(sc, intervals)
}

// FormatPolicyAblation renders policy-ablation rows.
func FormatPolicyAblation(rows []PolicyAblationRow) string {
	return experiments.FormatPolicyAblation(rows)
}

// GainAblationRow sweeps one reconstructed controller gain.
type GainAblationRow = experiments.GainAblationRow

// GainAblation sweeps a named DLM knob across values.
func GainAblation(sc Scenario, knob string, values []float64) ([]GainAblationRow, error) {
	return experiments.GainAblation(sc, knob, values)
}

// FormatGainAblation renders gain-ablation rows.
func FormatGainAblation(rows []GainAblationRow) string {
	return experiments.FormatGainAblation(rows)
}

// SearchRow compares pure-P2P and super-peer search at one TTL.
type SearchRow = experiments.SearchRow

// SearchEfficiency reproduces the motivating pure-vs-super-peer search
// comparison (§1/§3).
func SearchEfficiency(sc Scenario, ttls []int, queriesPerTTL int) ([]SearchRow, error) {
	return experiments.SearchEfficiency(sc, ttls, queriesPerTTL)
}

// FormatSearchRows renders search-efficiency rows.
func FormatSearchRows(rows []SearchRow) string { return experiments.FormatSearchRows(rows) }

// LatencyRow reports DLM behavior under one message-delay setting.
type LatencyRow = experiments.LatencyRow

// LatencyAblation sweeps the one-hop message latency.
func LatencyAblation(sc Scenario, latencies []float64) ([]LatencyRow, error) {
	return experiments.LatencyAblation(sc, latencies)
}

// FormatLatency renders latency-ablation rows.
func FormatLatency(rows []LatencyRow) string { return experiments.FormatLatency(rows) }

// RobustnessRow reports DLM behavior at one message-loss level.
type RobustnessRow = experiments.RobustnessRow

// Robustness sweeps per-message loss against ratio convergence, layer
// separation, and Phase 1 overhead under an adverse network (loss,
// jitter, duplication, reordering).
func Robustness(sc Scenario, lossPct []float64) ([]RobustnessRow, error) {
	return experiments.Robustness(sc, lossPct)
}

// FormatRobustness renders robustness-sweep rows.
func FormatRobustness(rows []RobustnessRow) string { return experiments.FormatRobustness(rows) }

// The settled measurement window shared by the long-horizon experiments
// (figure goldens, robustness sweep): run to SettledWindowEnd, measure
// the tail from SettledWindowStart.
const (
	SettledWindowStart = experiments.SettledWindowStart
	SettledWindowEnd   = experiments.SettledWindowEnd
)

// AdversarialRow reports one adversarial scenario at one population size:
// the scenario run's full result (ratio error before, during and after
// the disturbance, re-convergence time, liar capture, overheads, oracle
// violations).
type AdversarialRow = scenario.Result

// Adversarial runs the adversarial scenario pack (flash crowds, diurnal
// waves, healing partitions, misreporting peers, mass super-peer exits —
// see internal/scenario) at each population size.
func Adversarial(sizes []int, seed int64) ([]*AdversarialRow, error) {
	return scenario.Adversarial(sizes, seed)
}

// FormatAdversarial renders adversarial-pack rows.
func FormatAdversarial(rows []*AdversarialRow) string { return scenario.FormatAdversarial(rows) }

// CapRow reports the effect of a per-super leaf-degree cap on DLM.
type CapRow = experiments.CapRow

// CapAblation sweeps a Gnutella-style cap on super-peer leaf degree.
func CapAblation(sc Scenario, capsOverKL []float64) ([]CapRow, error) {
	return experiments.CapAblation(sc, capsOverKL)
}

// FormatCap renders cap-ablation rows.
func FormatCap(rows []CapRow) string { return experiments.FormatCap(rows) }

// FailureResult quantifies recovery from a correlated super-layer crash.
type FailureResult = experiments.FailureResult

// Failure kills a fraction of the super-layer at once and measures
// recovery.
func Failure(sc Scenario, killFraction float64) (*FailureResult, error) {
	return experiments.Failure(sc, killFraction)
}

// FailureSweep runs the failure experiment across kill fractions.
func FailureSweep(sc Scenario, fractions []float64) ([]*FailureResult, error) {
	return experiments.FailureSweep(sc, fractions)
}

// FormatFailure renders failure-sweep rows.
func FormatFailure(rows []*FailureResult) string { return experiments.FormatFailure(rows) }

// RedundancyRow reports reliability metrics for one leaf-redundancy m.
type RedundancyRow = experiments.RedundancyRow

// RedundancySweep varies the leaf redundancy m and measures what it buys.
func RedundancySweep(sc Scenario, ms []int) ([]RedundancyRow, error) {
	return experiments.RedundancySweep(sc, ms)
}

// FormatRedundancy renders redundancy-sweep rows.
func FormatRedundancy(rows []RedundancyRow) string { return experiments.FormatRedundancy(rows) }

// BaselineRow compares layer-management policies.
type BaselineRow = experiments.BaselineRow

// BaselineSweep compares DLM with the preconfigured, static, and oracle
// policies.
func BaselineSweep(sc Scenario) ([]BaselineRow, error) {
	return experiments.BaselineSweep(sc)
}

// FormatBaselineSweep renders baseline-sweep rows.
func FormatBaselineSweep(rows []BaselineRow) string {
	return experiments.FormatBaselineSweep(rows)
}

// ScaleRow is one (population size, shard count) point of the throughput
// scaling sweep.
type ScaleRow = experiments.ScaleRow

// Scale measures end-to-end simulation throughput across population
// sizes (up to millions of peers) and intra-run shard counts; a nil or
// empty shards slice runs serially.
func Scale(sizes []int, shards []int, seed int64) ([]ScaleRow, error) {
	return experiments.Scale(sizes, shards, seed)
}

// FormatScale renders scale-sweep rows.
func FormatScale(rows []ScaleRow) string { return experiments.FormatScale(rows) }

// SetWorkers caps the worker pool every sweep in this package fans trials
// across (0 restores the default, GOMAXPROCS). The sweep outputs are
// byte-identical for any setting — see internal/experiments' scheduler
// notes — so this only trades wall time for memory.
func SetWorkers(n int) { experiments.DefaultWorkers = n }

// Series is an append-only named time series.
type Series = stats.Series

// RenderFigure draws a figure's series as an ASCII chart.
func RenderFigure(f *FigureResult, width, height int) string {
	return plot.Render(plot.Options{
		Title:  f.Title,
		Width:  width,
		Height: height,
		LogY:   f.LogY,
		XLabel: "simulation time (minutes)",
	}, f.Series...)
}

// WriteFigureCSV writes a figure's series as CSV with a shared time axis.
func WriteFigureCSV(f *FigureResult, w io.Writer) error {
	var set stats.SeriesSet
	for _, s := range f.Series {
		set.Add(s)
	}
	return set.WriteCSV(w)
}
