package experiments

import (
	"fmt"
	"strings"

	"dlm/internal/config"
	"dlm/internal/parexp"
	"dlm/internal/sim"
)

// CapRow reports the effect of a per-super leaf-degree cap on DLM.
type CapRow struct {
	// Cap is the leaf-degree cap as a multiple of k_l (0 = uncapped).
	CapOverKL float64
	Cap       int
	RatioMean float64
	RatioRMSE float64
	// StrandedFrac is the final fraction of leaves below their
	// redundancy target — the symptom when every super is full.
	UnderFrac float64
}

// CapAblation sweeps a Gnutella-style cap on super-peer leaf degree.
// DLM's ratio estimator reads l_nn against k_l; a cap below (or at) k_l
// saturates l_nn, so the shortage signal μ can never go positive and the
// controller mis-reads a full network as over-provisioned. Expected
// shape: caps comfortably above k_l are harmless; caps at or below k_l
// break ratio maintenance — a deployment warning for combining DLM with
// degree-capped clients.
func CapAblation(sc config.Scenario, capsOverKL []float64) ([]CapRow, error) {
	rows, err := pooled(len(capsOverKL), parexp.Options{BaseSeed: sc.Seed},
		func(eng *sim.Engine, seed int64) (CapRow, error) {
			mult := capsOverKL[seed-sc.Seed]
			scc := sc
			scc.Seed = sc.Seed + 900
			cap := 0
			if mult > 0 {
				cap = int(mult * scc.KL())
			}
			res, err := RunOn(eng, RunConfig{
				Scenario:      scc,
				Manager:       ManagerDLM,
				MaxLeafDegree: cap,
			})
			if err != nil {
				return CapRow{}, err
			}
			w := res.Window(scc)
			under := 0.0
			if nl := res.Final.NumLeaves; nl > 0 {
				topo := float64(res.Final.NumLeaves)*float64(scc.M) -
					res.Final.AvgSuperDegreeOfLeaves*float64(nl)
				under = topo / (float64(nl) * float64(scc.M))
			}
			return CapRow{
				CapOverKL: mult,
				Cap:       cap,
				RatioMean: w.RatioMean,
				RatioRMSE: w.RatioRMSE,
				UnderFrac: under,
			}, nil
		})
	return rows, err
}

// FormatCap renders the sweep.
func FormatCap(rows []CapRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-12s %-8s %-12s %-12s %s\n",
		"cap (x k_l)", "cap", "ratio mean", "ratio RMSE", "missing leaf links")
	for _, r := range rows {
		label := fmt.Sprintf("%.1f", r.CapOverKL)
		if r.CapOverKL == 0 {
			label = "uncapped"
		}
		fmt.Fprintf(&b, "%-12s %-8d %-12.1f %-12.1f %.1f%%\n",
			label, r.Cap, r.RatioMean, r.RatioRMSE, 100*r.UnderFrac)
	}
	return b.String()
}
