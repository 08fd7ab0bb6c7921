package experiments

import (
	"fmt"
	"math"
	"strings"

	"dlm/internal/config"
	"dlm/internal/msg"
	"dlm/internal/parexp"
	"dlm/internal/sim"
)

// FailureResult quantifies recovery from a correlated super-layer
// failure: at the failure time a fraction of the super-peers vanish at
// once (a crash, a partition, a targeted attack — the "single point of
// failure" spectrum §3 worries about), and DLM must rebuild the backbone
// by promotion.
type FailureResult struct {
	// KillFraction is the fraction of super-peers removed at FailAt.
	KillFraction float64
	FailAt       float64
	// RatioBefore is the ratio just before the failure; RatioPeak the
	// worst (largest) ratio after it.
	RatioBefore float64
	RatioPeak   float64
	// RecoveryTime is how long after the failure the ratio first returns
	// to within 50% of the target η (NaN if never within the observation
	// window). The first tick tested is the one after the failure, so 1
	// means the spike never left the band.
	RecoveryTime float64
	// SuccessBefore/During/After are query success rates in the three
	// phases: before the failure, from the failure until the ratio is back
	// in the RecoveryTime band (the first 30 units after the failure when
	// it never gets back), and the rest of the run.
	SuccessBefore float64
	SuccessDuring float64
	SuccessAfter  float64
	// PromotionsAfter counts the promotions that rebuilt the backbone.
	PromotionsAfter uint64
}

// failureOn runs one failure-recovery scenario on a reusable worker engine
// (nil allocates): steady state, kill killFraction of the super-layer at
// sc.Warmup + 50, observe recovery until sc.Duration.
func failureOn(eng *sim.Engine, sc config.Scenario, killFraction float64) (*FailureResult, error) {
	if killFraction <= 0 || killFraction >= 1 {
		return nil, fmt.Errorf("experiments: kill fraction %v outside (0,1)", killFraction)
	}
	if sc.QueryRate <= 0 {
		sc.QueryRate = 5
	}
	s, err := Open(eng, RunConfig{Scenario: sc, Manager: ManagerDLM, Queries: true, Seed: sc.Seed * 17})
	if err != nil {
		return nil, err
	}
	eng, net, qe := s.Eng, s.Net, s.Query
	failAt := sc.Warmup + 50
	res := &FailureResult{KillFraction: killFraction, FailAt: failAt, RecoveryTime: math.NaN()}

	// Phase bookkeeping.
	var promotionsAtFail uint64
	type phaseStats struct{ issued, succeeded uint64 }
	var before, during, after phaseStats
	snapshotQ := func() (uint64, uint64) { return qe.Issued, qe.Succeeded }
	var prevIssued, prevSucceeded uint64
	accumulate := func(ph *phaseStats) {
		i, s := snapshotQ()
		ph.issued += i - prevIssued
		ph.succeeded += s - prevSucceeded
		prevIssued, prevSucceeded = i, s
	}

	// The failure event.
	eng.Schedule(sim.Time(failAt), sim.EventFunc(func(*sim.Engine) {
		res.RatioBefore = net.Ratio()
		accumulate(&before)
		promotionsAtFail = net.Counters().Promotions
		ids := append([]msg.PeerID(nil), net.SuperIDs()...)
		kill := int(killFraction * float64(len(ids)))
		rng := eng.Rand().Stream("failure")
		rng.Shuffle(len(ids), func(i, j int) { ids[i], ids[j] = ids[j], ids[i] })
		killed := 0
		for _, id := range ids {
			if killed >= kill {
				break
			}
			if p := net.Peer(id); p != nil && p.Alive() {
				// Correlated crash: no graceful handoff; the churn
				// replacement still fires via the overlay counters, so
				// kill via Leave but do NOT wait for lifetime expiry.
				net.Leave(p)
				killed++
			}
		}
	}))

	band := 0.5 * sc.Eta
	eng.Ticker(1, func(e *sim.Engine) bool {
		net.Tick()
		now := float64(e.Now())
		if now > failAt {
			r := net.Ratio()
			if r > res.RatioPeak && !math.IsInf(r, 0) {
				res.RatioPeak = r
			}
			if math.IsNaN(res.RecoveryTime) && !math.IsInf(r, 0) &&
				math.Abs(r-sc.Eta) <= band {
				res.RecoveryTime = now - failAt
				accumulate(&during)
			}
			if now == failAt+30 && math.IsNaN(res.RecoveryTime) {
				accumulate(&during)
			}
		}
		return e.Now() < sim.Time(sc.Duration)
	})
	if err := eng.RunUntil(sim.Time(sc.Duration)); err != nil {
		return nil, err
	}
	accumulate(&after)
	res.PromotionsAfter = net.Counters().Promotions - promotionsAtFail

	rate := func(ph phaseStats) float64 {
		if ph.issued == 0 {
			return 0
		}
		return float64(ph.succeeded) / float64(ph.issued)
	}
	res.SuccessBefore = rate(before)
	res.SuccessDuring = rate(during)
	res.SuccessAfter = rate(after)
	return res, nil
}

// FailureSweep runs the failure experiment across kill fractions.
func FailureSweep(sc config.Scenario, fractions []float64) ([]*FailureResult, error) {
	return pooled(len(fractions), parexp.Options{BaseSeed: sc.Seed},
		func(eng *sim.Engine, seed int64) (*FailureResult, error) {
			return failureOn(eng, sc, fractions[seed-sc.Seed])
		})
}

// FormatFailure renders the sweep.
func FormatFailure(rows []*FailureResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-8s %-12s %-11s %-10s %-22s %s\n",
		"kill", "ratio spike", "recovery", "promos", "success b/d/a", "")
	for _, r := range rows {
		rec := "never"
		if !math.IsNaN(r.RecoveryTime) {
			rec = fmt.Sprintf("%.0f units", r.RecoveryTime)
		}
		fmt.Fprintf(&b, "%-8.0f%% %5.1f->%-5.1f %-11s %-10d %.2f / %.2f / %.2f\n",
			100*r.KillFraction, r.RatioBefore, r.RatioPeak, rec, r.PromotionsAfter,
			r.SuccessBefore, r.SuccessDuring, r.SuccessAfter)
	}
	return b.String()
}
