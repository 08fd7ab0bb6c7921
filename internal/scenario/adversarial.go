package scenario

import (
	"fmt"
	"math"
	"runtime"
	"strings"

	"dlm/internal/sim"
)

// Adversarial runs the full scenario pack at each population size. Runs
// execute serially on one reused engine — the top sizes own the machine's
// memory bandwidth anyway, and serial execution keeps the peak footprint
// to a single population — so, like experiments.Scale, each run's tick
// fans out over GOMAXPROCS shards instead.
func Adversarial(sizes []int, seed int64) ([]*Result, error) {
	var rows []*Result
	var eng *sim.Engine
	for _, n := range sizes {
		for _, cfg := range Pack(n, seed) {
			cfg.Shards = runtime.GOMAXPROCS(0)
			if eng == nil {
				eng = sim.NewEngine(cfg.Base.Seed)
			}
			res, err := RunOn(eng, cfg)
			if err != nil {
				return nil, fmt.Errorf("adversarial %s n=%d: %w", cfg.Name, n, err)
			}
			rows = append(rows, res)
		}
	}
	return rows, nil
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

// FormatAdversarial renders the battery, one row per run.
func FormatAdversarial(rows []*Result) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-14s %-9s %-7s %-6s %-6s %-6s %-6s %-7s %-7s %-9s %-8s %-9s %-8s %-8s %-10s %s\n",
		"scenario", "n", "ratio", "pre%", "peak%", "post%", "band%", "reconv",
		"liarS%", "extra", "killed", "partdrop", "promo", "demo", "dlmmsgs", "inv")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-14s %-9d %-7.2f %-6s %-6s %-6s %-6s %-7s %-7s %-9d %-8d %-9d %-8d %-8d %-10d %d\n",
			r.Name, r.N, r.Final.Ratio, fmtPct(r.PreErrPct), fmtPct(r.PeakErrPct),
			fmtPct(r.PostErrPct), fmtPct(r.BandPct), fmtReconv(r.ReconvergeTime),
			fmtPct(r.LiarSuperPct), r.ExtraJoins, r.Killed, r.PartitionDrops,
			r.Promotions, r.Demotions, r.DLMMsgs, len(r.Invariants))
	}
	return b.String()
}
