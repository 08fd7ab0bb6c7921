package main

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"runtime"
	"sync/atomic"
	"time"

	"dlm/internal/config"
	"dlm/internal/experiments"
	"dlm/internal/msg"
	"dlm/internal/parexp"
	"dlm/internal/sim"
)

// trialOut is what one trial leaves behind: the user-visible result, the
// engine's event counters, and its host time.
type trialOut struct {
	res                         *experiments.RunResult
	events, laneEvents, batches uint64
	wallS                       float64
}

// batch is one timed execution of a workload: every trial, the host time
// of the whole batch and the heap objects it allocated.
type batch struct {
	trials  []trialOut
	wallS   float64
	mallocs uint64
	// recs holds one recorder per engine for a traced batch, nil otherwise.
	recs []*recorder
	cnts []*counts
}

// rig is the state a child process builds during set-up and reuses for the
// timed call: one engine per worker, already grown by a warm-up trial.
type rig struct {
	engines []*sim.Engine
}

// newRig does the set-up a dlmbench user pays before the first run: the
// worker engines, and one untimed Scaled(2000) trial of 50 time units so
// that lazy initialisation and the first heap growth are not in the timing.
func newRig(procs, workers int) (*rig, error) {
	r := &rig{engines: make([]*sim.Engine, workers)}
	for i := range r.engines {
		r.engines[i] = sim.NewEngine(0)
	}
	sc := config.Scaled(2000)
	sc.Duration, sc.Warmup = 50, 10
	_, err := experiments.RunOn(r.engines[0], experiments.RunConfig{
		Scenario: sc, Manager: experiments.ManagerDLM, Shards: procs,
	})
	if err != nil {
		return nil, fmt.Errorf("warm-up trial: %w", err)
	}
	return r, nil
}

// run executes the workload once. shards is the intra-run worker count for
// single-trial workloads (trial batches pin Shards=1 in their config and
// fan trials over the rig's engines instead). With traced set, every trial
// runs through tracedRun on a recorder of its engine's own.
func (r *rig) run(w workloadDef, seed int64, shards int, traced bool) (*batch, error) {
	b := &batch{trials: make([]trialOut, w.trials)}
	if traced {
		for range r.engines {
			b.recs = append(b.recs, newRecorder())
			b.cnts = append(b.cnts, &counts{})
		}
	}
	trial := func(slot int, i int) error {
		rc := w.config(w.n, w.trialSeed(seed, i))
		rc.Manager = experiments.ManagerDLM
		if rc.Shards == 0 {
			rc.Shards = shards
		}
		eng := r.engines[slot]
		start := time.Now()
		var res *experiments.RunResult
		var err error
		if traced {
			res, err = tracedRun(b.recs[slot], b.cnts[slot], eng, rc)
		} else {
			res, err = experiments.RunOn(eng, rc)
		}
		if err != nil {
			return fmt.Errorf("%s trial %d: %w", w.name, i, err)
		}
		b.trials[i] = trialOut{
			res:        res,
			events:     eng.EventsFired(),
			laneEvents: eng.LaneEventsFired(),
			batches:    eng.BatchesFired(),
			wallS:      time.Since(start).Seconds(),
		}
		return nil
	}

	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	before := ms.Mallocs
	start := time.Now()
	var err error
	if w.trials == 1 {
		err = trial(0, 0)
	} else {
		// The path every sweep takes: trials in index order over a fixed
		// pool, one reused engine per worker. Workers claim the rig's
		// pre-built engines in the order they start.
		var next atomic.Int32
		opt := parexp.Options{Workers: len(r.engines)}
		_, err = parexp.RunWith(w.trials, opt,
			func() int { return int(next.Add(1)) - 1 },
			func(slot int, i int64) (struct{}, error) { return struct{}{}, trial(slot, int(i)) })
	}
	b.wallS = time.Since(start).Seconds()
	runtime.ReadMemStats(&ms)
	b.mallocs = ms.Mallocs - before
	return b, err
}

// simStats is everything about a batch that is a pure function of
// (workload, seed): the simulated end-to-end metrics (means over trials),
// the counts the per-layer report reads, the operation tally, and the
// digest that pins all of it.
type simStats struct {
	Digest string `json:"digest"`

	RatioErrPct     float64 `json:"ratio_err_pct"`
	AgeSepX         float64 `json:"age_sep_x"`
	CapSepX         float64 `json:"cap_sep_x"`
	PAOOverNLCOPct  float64 `json:"pao_over_nlco_pct"`
	MsgsPerPeerUnit float64 `json:"msgs_per_peer_unit"`

	Events     uint64 `json:"events"`
	LaneEvents uint64 `json:"lane_events"`
	Batches    uint64 `json:"batches"`

	Promotions        uint64 `json:"promotions"`
	Demotions         uint64 `json:"demotions"`
	RepairConnections uint64 `json:"repair_connections"`
	ChurnReconnects   uint64 `json:"churn_reconnects"`

	Msgs       uint64 `json:"msgs"`
	Bytes      uint64 `json:"bytes"`
	DLMMsgs    uint64 `json:"dlm_msgs"`
	SearchMsgs uint64 `json:"search_msgs"`
	LinkDrops  uint64 `json:"link_drops"`
	LinkDups   uint64 `json:"link_dups"`

	RequestRetries uint64 `json:"request_retries"`
	RequestDrops   uint64 `json:"request_drops"`

	QueriesIssued   uint64   `json:"queries_issued"`
	QueriesFound    uint64   `json:"queries_found"`
	QueryMsgsPer    float64  `json:"query_msgs_per"`
	QueryHopsMean   float64  `json:"query_hops_mean"`
	FailedTrials    int      `json:"failed_trials"`
	Trials          int      `json:"trials"`
	FailureMessages []string `json:"failure_messages,omitempty"`
}

// summarise folds a completed batch into its simStats. A trial fails when
// its invariant check reported anything or its final population is not N
// (a trial whose run returned an error fails the whole child instead).
func summarise(w workloadDef, b *batch) simStats {
	s := simStats{Trials: len(b.trials)}
	h := fnv.New64a()
	put := func(v uint64) {
		var buf [8]byte
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	nt := float64(len(b.trials))
	for i, t := range b.trials {
		res := t.res
		sc := w.config(w.n, w.trialSeed(1, i)).Scenario
		switch got := res.Final.NumSupers + res.Final.NumLeaves; {
		case len(res.Invariants) > 0:
			s.fail("%s trial %d: %d invariant violations, first: %s", w.name, i, len(res.Invariants), res.Invariants[0])
		case got != sc.N:
			s.fail("%s trial %d: final population %d, want %d", w.name, i, got, sc.N)
		}

		from, to := 0.75*sc.Duration, sc.Duration
		mean := func(name string) float64 { return res.Series.Get(name).MeanOver(from, to) }
		s.RatioErrPct += 100 * math.Abs(mean("ratio")-sc.Eta) / sc.Eta / nt
		s.AgeSepX += mean("age_super") / mean("age_leaf") / nt
		s.CapSepX += mean("cap_super") / mean("cap_leaf") / nt
		s.PAOOverNLCOPct += res.WindowCounters.PAOOverNLCO() / nt
		s.MsgsPerPeerUnit += float64(res.Traffic.TotalMessages()) / (float64(sc.N) * sc.Duration) / nt

		s.Events += t.events
		s.LaneEvents += t.laneEvents
		s.Batches += t.batches
		wc := res.WindowCounters
		s.Promotions += wc.Promotions
		s.Demotions += wc.Demotions
		s.RepairConnections += wc.RepairConnections
		s.ChurnReconnects += wc.ChurnReconnects
		s.Msgs += res.Traffic.TotalMessages()
		s.Bytes += res.Traffic.TotalBytes()
		s.DLMMsgs += res.Traffic.DLMMessages()
		s.SearchMsgs += res.Traffic.SearchMessages()
		s.LinkDrops += wc.TotalLinkDrops()
		s.LinkDups += wc.TotalLinkDups()
		s.RequestRetries += res.RequestRetries
		s.RequestDrops += res.RequestDrops
		found := uint64(math.Round(res.QuerySuccess * float64(res.QueriesIssued)))
		s.QueriesIssued += res.QueriesIssued
		s.QueriesFound += found
		s.QueryMsgsPer += res.QueryMsgsPer / nt
		s.QueryHopsMean += res.QueryHops / nt

		put(t.events)
		put(t.laneEvents)
		put(t.batches)
		put(uint64(res.Final.NumSupers))
		put(uint64(res.Final.NumLeaves))
		put(math.Float64bits(res.Final.Ratio))
		for k := msg.Kind(1); int(k) < msg.NumKinds; k++ {
			put(res.Traffic.Count(k))
			put(res.Traffic.Bytes(k))
			put(wc.LinkDrops[k])
			put(wc.LinkDups[k])
		}
		for _, v := range []uint64{
			wc.Joins, wc.Leaves, wc.Promotions, wc.Demotions, wc.DemotionDisconnects,
			wc.NewLeafConnections, wc.ChurnReconnects, wc.RepairConnections, wc.PartitionDrops,
			res.RequestRetries, res.RequestDrops, res.QueriesIssued, found,
		} {
			put(v)
		}
	}
	s.Digest = fmt.Sprintf("%016x", h.Sum64())
	return s
}

func (s *simStats) fail(format string, args ...any) {
	s.FailedTrials++
	s.FailureMessages = append(s.FailureMessages, fmt.Sprintf(format, args...))
}
