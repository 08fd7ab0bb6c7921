package experiments

import (
	"fmt"
	"math"
	"runtime"
	"strings"
	"time"

	"dlm/internal/config"
	"dlm/internal/sim"
)

// ScaleRow is one (population size, shard count) point of the throughput
// scaling sweep.
type ScaleRow struct {
	N int
	// Shards is the intra-run lane-fan-out worker count the point ran
	// with; Procs records GOMAXPROCS at measurement time so a reader can
	// judge how much hardware parallelism the shards had to work with.
	Shards int
	Procs  int
	// Duration is the simulated span (virtual time units); large
	// populations run shorter spans so the sweep's event budget — and its
	// wall time — stays roughly constant per point.
	Duration float64
	// Events is the number of discrete events the engine fired.
	Events uint64
	// LaneEvents is how many of those were tagged with a peer lane
	// (deliveries, churn timers) and Batches how many same-timestamp
	// eval/commit batches the event plane ran. Both are pure
	// functions of the seed: like Events they are identical down a shard
	// column, extending the artifact's determinism check to the event
	// plane.
	LaneEvents uint64
	Batches    uint64
	// WallSeconds is the run's wall-clock cost.
	WallSeconds float64
	// PeerUnitsPerSec is N x Duration / WallSeconds — simulated peer-time
	// per real second, the same unit BenchmarkSimulationThroughput
	// reports, comparable across N.
	PeerUnitsPerSec float64
	// EventsPerSec is the raw event-loop rate.
	EventsPerSec float64
	// Speedup is this point's wall time relative to the first shard count
	// measured at the same N (so with shards starting at 1, the parallel
	// speedup curve). The sharded runs are byte-identical to the serial
	// ones, so the ratio compares the exact same computation.
	Speedup float64
	// FinalSupers/FinalRatio sanity-check that the big runs still manage
	// layers (a throughput number from a degenerate overlay is
	// meaningless).
	FinalSupers int
	FinalRatio  float64
}

// Scale measures end-to-end simulation throughput of the full DLM stack
// across population sizes and intra-run shard counts. Points run
// sequentially — each gets the whole machine, so wall-clock numbers are
// honest — on one engine reused via Reset, exercising the same
// engine-reuse path the parallel scheduler relies on at the largest
// populations. For each N every shard count in shards is run; the
// fixed-lane discipline guarantees the results (events, supers, ratio)
// are identical down the column, which doubles as an end-to-end
// determinism check a reader can eyeball in the artifact.
//
// The virtual span shrinks as N grows (fixed peer-unit budget, clamped),
// keeping every point to comparable wall time; PeerUnitsPerSec stays
// comparable across points regardless. A nil or empty shards slice means
// {1}.
func Scale(sizes []int, shards []int, seed int64) ([]ScaleRow, error) {
	if len(shards) == 0 {
		shards = []int{1}
	}
	rows := make([]ScaleRow, 0, len(sizes)*len(shards))
	eng := sim.NewEngine(0)
	for _, n := range sizes {
		sc := config.Scaled(n)
		if seed != 0 {
			sc.Seed = seed
		}
		sc.Duration = math.Min(400, math.Max(50, 2e8/float64(n)))
		sc.Warmup = math.Floor(sc.Duration / 4)
		sc.SampleEvery = math.Max(1, math.Floor(sc.Duration/50))
		baseWall := 0.0
		for _, k := range shards {
			start := time.Now()
			res, err := RunOn(eng, RunConfig{Scenario: sc, Manager: ManagerDLM, Shards: k})
			if err != nil {
				return rows, fmt.Errorf("scale n=%d shards=%d: %w", n, k, err)
			}
			wall := time.Since(start).Seconds()
			if baseWall == 0 {
				baseWall = wall
			}
			rows = append(rows, ScaleRow{
				N:               n,
				Shards:          k,
				Procs:           runtime.GOMAXPROCS(0),
				Duration:        sc.Duration,
				Events:          eng.EventsFired(),
				LaneEvents:      eng.LaneEventsFired(),
				Batches:         eng.BatchesFired(),
				WallSeconds:     wall,
				PeerUnitsPerSec: float64(n) * sc.Duration / wall,
				EventsPerSec:    float64(eng.EventsFired()) / wall,
				Speedup:         baseWall / wall,
				FinalSupers:     res.Final.NumSupers,
				FinalRatio:      res.Final.Ratio,
			})
		}
	}
	return rows, nil
}

// FormatScale renders the sweep (the results/scale.txt artifact).
func FormatScale(rows []ScaleRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-10s %-7s %-6s %-10s %-14s %-14s %-10s %-10s %-16s %-14s %-8s %-8s %s\n",
		"N", "shards", "procs", "duration", "events", "laneev", "batches", "wall (s)",
		"peer-units/s", "events/s", "speedup", "supers", "ratio")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-10d %-7d %-6d %-10.0f %-14d %-14d %-10d %-10.2f %-16.0f %-14.0f %-8.2f %-8d %.2f\n",
			r.N, r.Shards, r.Procs, r.Duration, r.Events, r.LaneEvents, r.Batches,
			r.WallSeconds, r.PeerUnitsPerSec, r.EventsPerSec, r.Speedup,
			r.FinalSupers, r.FinalRatio)
	}
	return b.String()
}
