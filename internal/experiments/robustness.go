package experiments

import (
	"fmt"
	"math"
	"strings"

	"dlm/internal/config"
	"dlm/internal/overlay"
	"dlm/internal/parexp"
	"dlm/internal/sim"
)

// The settled measurement window shared by the long-horizon experiments:
// the layer ratio converges slowly from the bootstrap overshoot, so the
// figure scenarios run to SettledWindowEnd and the robustness sweep
// measures only the tail from SettledWindowStart on. The dlmbench
// defaults, and with them the golden results/ files its test checks,
// anchor to these values — one definition, so the window cannot drift
// apart again.
const (
	SettledWindowStart = 600.0
	SettledWindowEnd   = 1600.0
)

// RobustnessRow reports DLM behavior at one message-loss level of the
// adverse-network sweep.
type RobustnessRow struct {
	// LossPct is the per-message loss probability in percent.
	LossPct float64
	// RatioMean is the realized layer ratio over the steady-state window;
	// RatioErrPct is |RatioMean − η|/η in percent — the convergence
	// criterion of the sweep.
	RatioMean   float64
	RatioErrPct float64
	RatioRMSE   float64
	// AgeSeparation and CapSeparation are super/leaf mean age and
	// capacity — the layer-quality signals that must survive the faults.
	AgeSeparation float64
	CapSeparation float64
	// DLMMsgs is the Phase 1 message count for the whole run (the
	// overhead axis: retries buy robustness with extra traffic).
	DLMMsgs uint64
	// LinkDrops/LinkDups count what the fault model did during the
	// measurement window.
	LinkDrops uint64
	LinkDups  uint64
	// Retries/Abandoned are the protocol's timeout reactions: requests
	// re-sent past their deadline and requests dropped after the retry
	// budget. Both are zero at zero loss (the fault-free determinism
	// pin).
	Retries   uint64
	Abandoned uint64
}

// adverseLink builds the sweep's fault model for one loss level: loss is
// the swept variable; a light fixed dose of duplication, triangular
// jitter, and reordering rides along so retries face a realistic mix
// rather than clean Bernoulli erasures. Zero loss means a perfect link —
// the sweep's own control.
func adverseLink(loss float64) overlay.Link {
	if loss <= 0 {
		return overlay.Link{}
	}
	return overlay.Link{
		Loss:          loss,
		Dup:           0.01,
		JitterMin:     0.01,
		JitterMode:    0.05,
		JitterMax:     0.2,
		ReorderWindow: 0.5,
	}
}

// Robustness sweeps per-message loss (in percent) against ratio
// convergence, layer separation, and Phase 1 overhead. The paper assumes
// a reliable transport; this sweep measures how far the event-driven
// exchange, backed by the pending-request retries, carries the algorithm
// when that assumption fails.
func Robustness(sc config.Scenario, lossPct []float64) ([]RobustnessRow, error) {
	rows, err := pooled(len(lossPct), parexp.Options{BaseSeed: sc.Seed},
		func(eng *sim.Engine, seed int64) (RobustnessRow, error) {
			loss := lossPct[seed-sc.Seed]
			res, err := RunOn(eng, RunConfig{
				Scenario: sc,
				Manager:  ManagerDLM,
				Link:     adverseLink(loss / 100),
			})
			if err != nil {
				return RobustnessRow{}, err
			}
			w := res.Window(sc)
			return RobustnessRow{
				LossPct:       loss,
				RatioMean:     w.RatioMean,
				RatioErrPct:   100 * math.Abs(w.RatioMean-sc.Eta) / sc.Eta,
				RatioRMSE:     w.RatioRMSE,
				AgeSeparation: w.AgeSeparation,
				CapSeparation: w.CapSeparation,
				DLMMsgs:       res.Traffic.DLMMessages(),
				LinkDrops:     res.WindowCounters.TotalLinkDrops(),
				LinkDups:      res.WindowCounters.TotalLinkDups(),
				Retries:       res.RequestRetries,
				Abandoned:     res.RequestDrops,
			}, nil
		})
	return rows, err
}

// FormatRobustness renders the sweep.
func FormatRobustness(rows []RobustnessRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-8s %-12s %-10s %-10s %-9s %-9s %-10s %-9s %-9s %-9s %s\n",
		"loss%", "ratio mean", "ratio err%", "ratio RMSE", "age sep", "cap sep",
		"dlm msgs", "drops", "dups", "retries", "abandoned")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-8.3g %-12.1f %-10.1f %-10.1f %-9.2f %-9.2f %-10d %-9d %-9d %-9d %d\n",
			r.LossPct, r.RatioMean, r.RatioErrPct, r.RatioRMSE, r.AgeSeparation,
			r.CapSeparation, r.DLMMsgs, r.LinkDrops, r.LinkDups, r.Retries, r.Abandoned)
	}
	return b.String()
}
