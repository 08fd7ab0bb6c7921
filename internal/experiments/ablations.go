package experiments

import (
	"fmt"
	"strings"

	"dlm/internal/config"
	"dlm/internal/core"
	"dlm/internal/parexp"
	"dlm/internal/protocol"
	"dlm/internal/sim"
)

// PolicyAblationRow compares information-exchange policies (§4 Phase 1):
// the paper reports that event-driven exchange achieves the same accuracy
// as periodic exchange at lower overhead.
type PolicyAblationRow struct {
	Policy string
	// RatioRMSE measures ratio-maintenance accuracy against η.
	RatioRMSE float64
	// DLMMessages is the information-exchange traffic of the run.
	DLMMessages uint64
	DLMBytes    uint64
}

// PolicyAblation runs the event-driven policy and periodic policies at
// the given intervals on the same scenario.
func PolicyAblation(sc config.Scenario, intervals []float64) ([]PolicyAblationRow, error) {
	type point struct {
		name     string
		params   core.Params
		interval float64
	}
	points := []point{{name: "event-driven", params: core.DefaultParams()}}
	for _, iv := range intervals {
		p := core.DefaultParams()
		p.Exchange = protocol.Periodic
		p.PeriodicInterval = protocol.Duration(iv)
		p.RefreshInterval = 0
		points = append(points, point{name: fmt.Sprintf("periodic-%g", iv), params: p, interval: iv})
	}
	out, err := pooled(len(points), parexp.Options{BaseSeed: sc.Seed},
		func(eng *sim.Engine, seed int64) (PolicyAblationRow, error) {
			pt := points[seed-sc.Seed]
			scc := sc
			scc.Seed = sc.Seed + 1000
			params := pt.params
			res, err := RunOn(eng, RunConfig{Scenario: scc, Manager: ManagerDLM, DLMParams: &params})
			if err != nil {
				return PolicyAblationRow{}, err
			}
			return PolicyAblationRow{
				Policy:      pt.name,
				RatioRMSE:   res.Window(scc).RatioRMSE,
				DLMMessages: res.Traffic.DLMMessages(),
				DLMBytes:    res.Traffic.DLMBytes(),
			}, nil
		})
	return out, err
}

// FormatPolicyAblation renders the rows.
func FormatPolicyAblation(rows []PolicyAblationRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-16s %-12s %-14s %s\n", "policy", "ratio RMSE", "DLM msgs", "DLM bytes")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-16s %-12.2f %-14d %d\n", r.Policy, r.RatioRMSE, r.DLMMessages, r.DLMBytes)
	}
	return b.String()
}

// GainAblationRow sweeps the reconstructed controller gains.
type GainAblationRow struct {
	Label      string
	RatioRMSE  float64
	RatioMean  float64
	Promotions uint64
	Demotions  uint64
}

// GainAblation sweeps one named knob of the DLM params across values,
// reporting ratio quality and role-change churn. Supported knobs:
// "beta" (the age-threshold gains), "betacapa" (the capacity-threshold
// gains), "lambda", "rategain", "cooldown" (DecisionCooldown),
// "democooldown" (DemotionCooldown), "ratelimit" (0/1), "window" (T_l,
// the related-set recency window), "refresh" (the l_nn freshness
// interval; 0 disables), and "sharpness" (selection weighting exponent).
func GainAblation(sc config.Scenario, knob string, values []float64) ([]GainAblationRow, error) {
	apply := func(p *core.Params, v float64) error {
		switch knob {
		case "beta":
			p.BetaPromoteAge, p.BetaDemoteAge = v, v
		case "betacapa":
			p.BetaPromoteCapa, p.BetaDemoteCapa = v, v
		case "lambda":
			p.LambdaCapa, p.LambdaAge = v, v
		case "rategain":
			p.RateGain = v
		case "cooldown":
			p.DecisionCooldown = protocol.Duration(v)
		case "democooldown":
			p.DemotionCooldown = protocol.Duration(v)
		case "ratelimit":
			p.RateLimit = v != 0
		case "window":
			p.LeafWindow = protocol.Duration(v)
		case "refresh":
			p.RefreshInterval = protocol.Duration(v)
		case "sharpness":
			p.SelectionSharpness = v
		default:
			return fmt.Errorf("experiments: unknown knob %q", knob)
		}
		return nil
	}
	out, err := pooled(len(values), parexp.Options{BaseSeed: sc.Seed},
		func(eng *sim.Engine, seed int64) (GainAblationRow, error) {
			v := values[seed-sc.Seed]
			p := core.DefaultParams()
			if err := apply(&p, v); err != nil {
				return GainAblationRow{}, err
			}
			scc := sc
			scc.Seed = sc.Seed + 2000
			res, err := RunOn(eng, RunConfig{Scenario: scc, Manager: ManagerDLM, DLMParams: &p})
			if err != nil {
				return GainAblationRow{}, err
			}
			w := res.Window(scc)
			return GainAblationRow{
				Label:      fmt.Sprintf("%s=%g", knob, v),
				RatioRMSE:  w.RatioRMSE,
				RatioMean:  w.RatioMean,
				Promotions: res.WindowCounters.Promotions,
				Demotions:  res.WindowCounters.Demotions,
			}, nil
		})
	return out, err
}

// FormatGainAblation renders the rows.
func FormatGainAblation(rows []GainAblationRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-18s %-12s %-12s %-12s %s\n", "setting", "ratio RMSE", "ratio mean", "promotions", "demotions")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-18s %-12.2f %-12.2f %-12d %d\n", r.Label, r.RatioRMSE, r.RatioMean, r.Promotions, r.Demotions)
	}
	return b.String()
}

// BaselineRow compares layer-management policies on one scenario.
type BaselineRow struct {
	Manager       string
	RatioMean     float64
	RatioRMSE     float64
	CapSeparation float64 // super-layer mean capacity / leaf-layer
	AgeSeparation float64 // super-layer mean age / leaf-layer
	PAOOverNLCO   float64
}

// BaselineSweep runs DLM against the preconfigured, static, and oracle
// policies on the same dynamic scenario. Expected shape: DLM approaches
// the oracle's selection quality (capacity/age separation) while the
// preconfigured policy loses ratio control and static loses selection
// quality.
func BaselineSweep(sc config.Scenario) ([]BaselineRow, error) {
	kinds := []ManagerKind{ManagerDLM, ManagerPreconfigured, ManagerStatic, ManagerOracle}
	out, err := pooled(len(kinds), parexp.Options{BaseSeed: sc.Seed},
		func(eng *sim.Engine, seed int64) (BaselineRow, error) {
			kind := kinds[seed-sc.Seed]
			rc := comparisonScenario(sc, kind)
			rc.Queries = false
			res, err := RunOn(eng, rc)
			if err != nil {
				return BaselineRow{}, err
			}
			w := res.Window(sc)
			return BaselineRow{
				Manager:       res.ManagerName,
				RatioMean:     w.RatioMean,
				RatioRMSE:     w.RatioRMSE,
				CapSeparation: w.CapSeparation,
				AgeSeparation: w.AgeSeparation,
				PAOOverNLCO:   res.WindowCounters.PAOOverNLCO(),
			}, nil
		})
	return out, err
}

// FormatBaselineSweep renders the rows.
func FormatBaselineSweep(rows []BaselineRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-16s %-12s %-12s %-10s %-10s %s\n",
		"manager", "ratio mean", "ratio RMSE", "cap sep", "age sep", "PAO/NLCO")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-16s %-12.2f %-12.2f %-10.2f %-10.2f %.2f%%\n",
			r.Manager, r.RatioMean, r.RatioRMSE, r.CapSeparation, r.AgeSeparation, r.PAOOverNLCO)
	}
	return b.String()
}
