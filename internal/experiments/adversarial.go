package experiments

import (
	"fmt"
	"math"
	"runtime"
	"strings"

	"dlm/internal/scenario"
	"dlm/internal/sim"
)

// The settled measurement window shared by the long-horizon experiments:
// the layer ratio converges slowly from the bootstrap overshoot, so the
// figure scenarios run to SettledWindowEnd and the robustness sweep
// measures only the tail from SettledWindowStart on. The golden figure
// artifacts (golden_test.go) and the dlmbench defaults both anchor to
// these values — one definition, so the window cannot drift apart again.
const (
	SettledWindowStart = 600.0
	SettledWindowEnd   = 1600.0
)

// AdversarialRow reports one adversarial scenario at one population size
// (see internal/scenario for the scenario definitions and oracles).
type AdversarialRow struct {
	Scenario string
	N        int

	// FinalRatio is the leaves-per-super ratio at the end of the run
	// (target η); PreErrPct / PeakErrPct / PostErrPct track the ratio
	// error before, during, and after the disturbance, and BandPct is
	// the re-convergence band (max of 4% and the scenario's own
	// pre-disturbance error).
	FinalRatio float64
	PreErrPct  float64
	PeakErrPct float64
	PostErrPct float64
	BandPct    float64
	// ReconvergeTime is how long after the disturbance cleared the
	// smoothed ratio re-entered the band for good (+Inf = never within
	// the observed window; NaN = scenario has no disturbance edge).
	ReconvergeTime float64

	// LiarSuperPct is the liars' share of the final super layer;
	// LiarPopPct their share of the population (the capture
	// measurement for the misreporting scenarios).
	LiarSuperPct float64
	LiarPopPct   float64

	// ExtraJoins counts scenario-driven joins beyond replacement churn;
	// Killed counts mass-kill removals; PartitionDrops the messages a
	// partition severed.
	ExtraJoins     uint64
	Killed         int
	PartitionDrops uint64

	// Decision and message overhead for the whole run.
	Promotions uint64
	Demotions  uint64
	DLMMsgs    uint64

	// Invariants counts structural-oracle violations (zero in a healthy
	// run).
	Invariants int
}

// Adversarial runs the full scenario pack (internal/scenario.Pack) at
// each population size and reduces every run to one row. Runs execute
// serially on one reused engine — the top sizes own the machine's memory
// bandwidth anyway, and serial execution keeps the peak footprint to a
// single population — so, like Scale, each run's tick fans out over
// GOMAXPROCS shards instead.
func Adversarial(sizes []int, seed int64) ([]AdversarialRow, error) {
	var rows []AdversarialRow
	var eng *sim.Engine
	for _, n := range sizes {
		for _, cfg := range scenario.Pack(n, seed) {
			cfg.Shards = runtime.GOMAXPROCS(0)
			if eng == nil {
				eng = sim.NewEngine(cfg.Base.Seed)
			}
			res, err := scenario.RunOn(eng, cfg)
			if err != nil {
				return nil, fmt.Errorf("adversarial %s n=%d: %w", cfg.Name, n, err)
			}
			rows = append(rows, adversarialRow(res))
		}
	}
	return rows, nil
}

// adversarialRow reduces a scenario result to its artifact row.
func adversarialRow(res *scenario.Result) AdversarialRow {
	return AdversarialRow{
		Scenario:       res.Name,
		N:              res.N,
		FinalRatio:     res.Final.Ratio,
		PreErrPct:      res.PreErrPct,
		PeakErrPct:     res.PeakErrPct,
		PostErrPct:     res.PostErrPct,
		BandPct:        res.BandPct,
		ReconvergeTime: res.ReconvergeTime,
		LiarSuperPct:   res.LiarSuperPct,
		LiarPopPct:     res.LiarPopPct,
		ExtraJoins:     res.ExtraJoins,
		Killed:         res.Killed,
		PartitionDrops: res.PartitionDrops,
		Promotions:     res.Promotions,
		Demotions:      res.Demotions,
		DLMMsgs:        res.DLMMsgs,
		Invariants:     len(res.Invariants),
	}
}

// fmtPct renders an error percentage, with "-" for scenarios where the
// metric does not apply (no disturbance edge).
func fmtPct(v float64) string {
	if math.IsNaN(v) {
		return "-"
	}
	return fmt.Sprintf("%.1f", v)
}

// fmtReconv renders a re-convergence time: "-" where the metric does not
// apply, "never" when the run ended still outside the band.
func fmtReconv(v float64) string {
	switch {
	case math.IsNaN(v):
		return "-"
	case math.IsInf(v, 1):
		return "never"
	}
	return fmt.Sprintf("%.0f", v)
}

// FormatAdversarial renders the battery.
func FormatAdversarial(rows []AdversarialRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-14s %-9s %-7s %-6s %-6s %-6s %-6s %-7s %-7s %-9s %-8s %-9s %-8s %-8s %-10s %s\n",
		"scenario", "n", "ratio", "pre%", "peak%", "post%", "band%", "reconv",
		"liarS%", "extra", "killed", "partdrop", "promo", "demo", "dlmmsgs", "inv")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-14s %-9d %-7.2f %-6s %-6s %-6s %-6s %-7s %-7s %-9d %-8d %-9d %-8d %-8d %-10d %d\n",
			r.Scenario, r.N, r.FinalRatio, fmtPct(r.PreErrPct), fmtPct(r.PeakErrPct),
			fmtPct(r.PostErrPct), fmtPct(r.BandPct), fmtReconv(r.ReconvergeTime),
			fmtPct(r.LiarSuperPct), r.ExtraJoins, r.Killed, r.PartitionDrops,
			r.Promotions, r.Demotions, r.DLMMsgs, r.Invariants)
	}
	return b.String()
}
