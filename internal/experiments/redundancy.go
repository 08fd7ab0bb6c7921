package experiments

import (
	"fmt"
	"strings"

	"dlm/internal/config"
	"dlm/internal/overlay"
	"dlm/internal/parexp"
	"dlm/internal/sim"
	"dlm/internal/stats"
)

// RedundancyRow reports reliability metrics for one leaf-redundancy level
// m (the number of super connections each leaf maintains, "kept for the
// purpose of reliability" per the paper's §3).
type RedundancyRow struct {
	M int
	// StrandedFrac is the mean fraction of leaves with zero super
	// connections across tick samples (search blackout periods).
	StrandedFrac float64
	// UnderFrac is the mean fraction of leaves below their redundancy
	// target.
	UnderFrac float64
	// QuerySuccess at the scenario TTL under churn.
	QuerySuccess float64
	// BackboneWholeFrac is the fraction of samples where the super-layer
	// formed a single connected component.
	BackboneWholeFrac float64
	// NewLeafConnections is the join connection cost per unit time — the
	// price of redundancy.
	ConnectionsPerUnit float64
}

// RedundancySweep varies m and measures what the redundancy buys: fewer
// stranded leaves and steadier query success, at a linear connection
// cost. Expected shape: m=1 leaves a visible stranded fraction; m>=2
// (the paper's setting) nearly eliminates it with diminishing returns
// beyond.
func RedundancySweep(sc config.Scenario, ms []int) ([]RedundancyRow, error) {
	rows, err := pooled(len(ms), parexp.Options{BaseSeed: sc.Seed},
		func(eng *sim.Engine, seed int64) (RedundancyRow, error) {
			m := ms[seed-sc.Seed]
			return runRedundancy(eng, sc, m)
		})
	return rows, err
}

func runRedundancy(eng *sim.Engine, sc config.Scenario, m int) (RedundancyRow, error) {
	row := RedundancyRow{M: m}
	scc := sc
	scc.M = m
	if scc.QueryRate <= 0 {
		scc.QueryRate = 5
	}
	scc.Seed *= 31
	rc := RunConfig{Scenario: scc, Manager: ManagerDLM, Queries: true}
	// Orphans wait for the next repair round: the blackout window that m
	// redundant connections exist to cover.
	s, err := open(eng, rc, func(c *overlay.Config) { c.DeferredReconnect = true }, nil)
	if err != nil {
		return row, err
	}
	eng, net, qe := s.Eng, s.Net, s.Query

	var stranded, under, whole stats.Welford
	warmed := false
	eng.Ticker(1, func(e *sim.Engine) bool {
		// Sample the graph BEFORE repair: this is the exposure window a
		// leaf actually experiences after its super dies.
		if e.Now() >= sim.Time(scc.Warmup) {
			if !warmed {
				warmed = true
				net.ResetCounters()
				qe.ResetStats()
			}
			topo := net.Topology()
			nl := float64(net.NumLeaves())
			if nl > 0 {
				stranded.Add(float64(topo.StrandedLeaves) / nl)
				under.Add(float64(topo.UnderConnectedLeaves) / nl)
			}
			if topo.SuperComponents == 1 {
				whole.Add(1)
			} else {
				whole.Add(0)
			}
		}
		net.Tick()
		return e.Now() < sim.Time(scc.Duration)
	})
	if err := eng.RunUntil(sim.Time(scc.Duration)); err != nil {
		return row, err
	}

	row.StrandedFrac = stranded.Mean()
	row.UnderFrac = under.Mean()
	row.QuerySuccess = qe.SuccessRate()
	row.BackboneWholeFrac = whole.Mean()
	window := scc.Duration - scc.Warmup
	c := net.Counters()
	row.ConnectionsPerUnit = float64(c.NewLeafConnections+c.RepairConnections+c.ChurnReconnects) / window
	return row, nil
}

// FormatRedundancy renders the sweep.
func FormatRedundancy(rows []RedundancyRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-4s %-14s %-14s %-14s %-16s %s\n",
		"m", "stranded frac", "under-m frac", "query success", "backbone whole", "conns/unit")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-4d %-14.4f %-14.4f %-14.2f %-16.2f %.1f\n",
			r.M, r.StrandedFrac, r.UnderFrac, r.QuerySuccess, r.BackboneWholeFrac, r.ConnectionsPerUnit)
	}
	return b.String()
}
