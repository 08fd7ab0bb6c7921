package experiments

import (
	"fmt"
	"strings"

	"dlm/internal/baseline"
	"dlm/internal/config"
	"dlm/internal/overlay"
	"dlm/internal/parexp"
	"dlm/internal/query"
	"dlm/internal/sim"
)

// SearchRow compares search behavior at one TTL between the pure
// (flat-flooding) system and the DLM-managed super-peer system on the
// same population and content workload.
type SearchRow struct {
	TTL int
	// Pure system.
	PureSuccess   float64
	PureMsgsPer   float64
	PureReachFrac float64 // fraction of the population a flood touches
	// Super-peer system.
	SuperSuccess   float64
	SuperMsgsPer   float64
	SuperReachFrac float64 // fraction of the population (supers reached)
}

// half is one system's outcome at one TTL.
type half struct {
	success, msgs, reach float64
}

// SearchEfficiency reproduces the paper's motivating claim (§1/§3):
// "super-peer systems have higher search efficiency because instead of
// all the peers, only super-peers are involved in search processes." It
// runs both systems with the same catalog and churn, sweeps TTL, and
// reports success rate versus message cost. Expected shape: at matched
// success rates, the super-peer system spends far fewer messages per
// query than the pure system.
func SearchEfficiency(sc config.Scenario, ttls []int, queriesPerTTL int) ([]SearchRow, error) {
	if queriesPerTTL <= 0 {
		queriesPerTTL = 200
	}
	jobs := make([]func(*sim.Engine) (half, error), 0, 2*len(ttls))
	for _, ttl := range ttls {
		ttl := ttl
		jobs = append(jobs, func(eng *sim.Engine) (half, error) {
			// The pure system is the overlay with an empty leaf layer:
			// threshold 0 admits every peer as a super.
			pure := sc
			pure.KS = pureDegree
			return runSearch(eng, pure, &baseline.Preconfigured{}, pureLatency, "pure-search", ttl, queriesPerTTL)
		})
		jobs = append(jobs, func(eng *sim.Engine) (half, error) {
			return runSearch(eng, sc, nil, 0, "super-search", ttl, queriesPerTTL)
		})
	}
	results, err := pooled(len(jobs), parexp.Options{BaseSeed: 0},
		func(eng *sim.Engine, seed int64) (half, error) { return jobs[seed](eng) })
	if err != nil {
		return nil, err
	}
	rows := make([]SearchRow, len(ttls))
	for i, ttl := range ttls {
		pure, super := results[2*i], results[2*i+1]
		rows[i] = SearchRow{
			TTL:            ttl,
			PureSuccess:    pure.success,
			PureMsgsPer:    pure.msgs,
			PureReachFrac:  pure.reach,
			SuperSuccess:   super.success,
			SuperMsgsPer:   super.msgs,
			SuperReachFrac: super.reach,
		}
	}
	return rows, nil
}

// pureDegree is the pure system's per-peer neighbor count (Gnutella 0.4
// clients kept roughly 4-8 connections).
const pureDegree = 5

// pureLatency is the pure half's one-hop delay. It must be positive: at
// zero latency Send delivers inline, the flood's first arrivals are
// depth-first, and duplicate suppression then cuts it short of the
// population a breadth-first flood reaches. It is tiny so that the whole
// query phase spans a negligible stretch of churn.
const pureLatency sim.Duration = 1e-6

// runSearch builds an overlay under the scenario's workload with the
// given layer manager (nil for DLM) and one-hop latency, and issues
// queries at the given TTL after warm-up. stream names the RNG stream the
// query targets are drawn from.
func runSearch(eng *sim.Engine, sc config.Scenario, mgr overlay.Manager, latency sim.Duration, stream string, ttl, queries int) (half, error) {
	sc.QueryRate = 0 // the queries are issued below, not by a driver
	s, err := open(eng, RunConfig{Scenario: sc, Manager: ManagerDLM, Queries: true, Latency: latency}, nil, mgr)
	if err != nil {
		return half{}, err
	}
	eng, net, qe, cat := s.Eng, s.Net, s.Query, s.Catalog
	eng.Ticker(1, func(e *sim.Engine) bool {
		net.Tick()
		return e.Now() < sim.Time(sc.Warmup)
	})
	if err := eng.RunUntil(sim.Time(sc.Warmup)); err != nil {
		return half{}, err
	}
	rng := eng.Rand().Stream(stream)
	succeeded := 0
	var totalMsgs, totalReach uint64
	finished := false
	tally := func(res *query.Result) {
		finished = true
		if res.Found {
			succeeded++
		}
		totalMsgs += res.QueryMsgs + res.HitMsgs
		totalReach += uint64(res.SupersReached)
	}
	for i := 0; i < queries; i++ {
		src := net.RandomPeer()
		if src == nil {
			continue
		}
		// At zero latency the flood completes inside IssueAsync; with
		// latency it travels through the event queue until its deadline.
		finished = false
		qe.IssueAsync(src, cat.QueryTarget(rng), uint8(ttl), tally)
		for !finished && eng.Step() {
		}
	}
	q := float64(queries)
	return half{
		success: float64(succeeded) / q,
		msgs:    float64(totalMsgs) / q,
		reach:   float64(totalReach) / q / float64(sc.N),
	}, nil
}

// FormatSearchRows renders the comparison.
func FormatSearchRows(rows []SearchRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-5s | %-28s | %s\n", "TTL", "pure P2P", "super-peer (DLM)")
	fmt.Fprintf(&b, "%-5s | %-9s %-10s %-7s | %-9s %-10s %s\n",
		"", "success", "msgs/qry", "reach", "success", "msgs/qry", "reach")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-5d | %-9.2f %-10.0f %-7.2f | %-9.2f %-10.0f %.2f\n",
			r.TTL, r.PureSuccess, r.PureMsgsPer, r.PureReachFrac,
			r.SuperSuccess, r.SuperMsgsPer, r.SuperReachFrac)
	}
	return b.String()
}
