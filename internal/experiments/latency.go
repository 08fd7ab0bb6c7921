package experiments

import (
	"fmt"
	"strings"

	"dlm/internal/config"
	"dlm/internal/parexp"
	"dlm/internal/sim"
)

// LatencyRow reports DLM behavior under one message-delay setting.
type LatencyRow struct {
	// Latency is the one-hop message delay in time units.
	Latency float64
	// RatioMean and RatioRMSE measure ratio maintenance over the
	// steady-state window.
	RatioMean float64
	RatioRMSE float64
	// CapSeparation is super/leaf mean capacity.
	CapSeparation float64
	// QuerySuccess is the asynchronous flood success rate (0 when the
	// scenario has no query workload).
	QuerySuccess float64
}

// LatencyAblation sweeps the one-hop message latency. DLM's information
// collection, and the query floods, then run through the event queue
// instead of inline — the test of whether the algorithm's decisions
// tolerate stale-by-transit information. Expected shape: the ratio and
// separations are essentially unchanged for delays well below the
// refresh interval, degrading gracefully beyond.
func LatencyAblation(sc config.Scenario, latencies []float64) ([]LatencyRow, error) {
	rows, err := pooled(len(latencies), parexp.Options{BaseSeed: sc.Seed},
		func(eng *sim.Engine, seed int64) (LatencyRow, error) {
			lat := latencies[seed-sc.Seed]
			scc := sc
			scc.Seed = sc.Seed + 500
			res, err := RunOn(eng, RunConfig{
				Scenario: scc,
				Manager:  ManagerDLM,
				Queries:  scc.QueryRate > 0,
				Latency:  sim.Duration(lat),
			})
			if err != nil {
				return LatencyRow{}, err
			}
			w := res.Window(scc)
			return LatencyRow{
				Latency:       lat,
				RatioMean:     w.RatioMean,
				RatioRMSE:     w.RatioRMSE,
				CapSeparation: w.CapSeparation,
				QuerySuccess:  res.QuerySuccess,
			}, nil
		})
	return rows, err
}

// FormatLatency renders the sweep.
func FormatLatency(rows []LatencyRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-10s %-12s %-12s %-10s %s\n",
		"latency", "ratio mean", "ratio RMSE", "cap sep", "query success")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-10.3g %-12.1f %-12.1f %-10.2f %.2f\n",
			r.Latency, r.RatioMean, r.RatioRMSE, r.CapSeparation, r.QuerySuccess)
	}
	return b.String()
}
