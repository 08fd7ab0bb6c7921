package core

import (
	"fmt"
	"testing"

	"dlm/internal/overlay"
	"dlm/internal/protocol"
	"dlm/internal/sim"
	"dlm/internal/workload"
)

// shardTrace runs a churning DLM scenario with the given lane-fan-out
// worker count and returns the complete decision sequence plus the final
// snapshot. Everything observable is captured: which peer, at what time,
// with what μ/Y/l_nn, and what action — if sharding perturbed even one
// RNG draw or one commit order, the traces would diverge.
func shardTrace(t *testing.T, seed int64, shards int) (string, overlay.LayerStats) {
	trace, snap, _, _ := shardTraceLatency(t, seed, shards, 0)
	return trace, snap
}

// shardTraceLatency is shardTrace with a configurable message latency;
// latency > 0 queues every delivery on its target's lane, which is what
// arms the same-timestamp batch path. It also returns the engine's
// lane-event and batch counters.
func shardTraceLatency(t *testing.T, seed int64, shards int, latency sim.Duration) (string, overlay.LayerStats, uint64, uint64) {
	t.Helper()
	eng := sim.NewEngine(seed)
	eng.SetShards(shards)
	mgr := NewManager(DefaultParams())
	n := overlay.New(eng, overlay.Config{M: 2, KS: 3, Eta: 10, Latency: latency}, mgr)
	var trace []byte
	mgr.OnDecision = func(p *overlay.Peer, now sim.Time, res protocol.EvalResult) {
		trace = fmt.Appendf(trace, "%d@%v e=%v a=%v mu=%x y=%x,%x lnn=%x\n",
			p.ID, now, res.Evaluated, res.Action,
			res.Decision.Mu, res.Decision.YCapa, res.Decision.YAge, res.Lnn)
	}
	churn := &overlay.Churn{
		Net: n,
		Profile: &workload.StaticProfile{
			Capacity: workload.SaroiuBandwidthMixture(),
			Lifetime: workload.LognormalWithMedian(60, 1.2),
		},
		TargetSize: 400,
		GrowthRate: 100,
	}
	churn.Start()
	eng.Ticker(1, func(e *sim.Engine) bool {
		n.Tick()
		return e.Now() < 120
	})
	if err := eng.RunUntil(120); err != nil {
		t.Fatal(err)
	}
	if bad := n.CheckInvariants(); len(bad) > 0 {
		t.Fatalf("shards=%d: invariants: %v", shards, bad[:minInt(len(bad), 5)])
	}
	return string(trace), n.Snapshot(), eng.LaneEventsFired(), eng.BatchesFired()
}

// TestShardInvariance is the tentpole's determinism contract: the full
// per-peer decision trace of a churning run — every evaluation's inputs,
// outputs and action, in commit order — must be byte-identical for any
// lane-fan-out worker count, including the degenerate serial one. Worker
// counts cover a single worker (inline loop, no goroutines), even splits,
// and a count (7) that does not divide the 64 lanes. The sharded counts
// also exercise the fan-out under `go test -race` (scripts/ci.sh runs
// this test in a dedicated race lane).
func TestShardInvariance(t *testing.T) {
	for _, seed := range []int64{3, 17} {
		base, baseSnap := shardTrace(t, seed, 1)
		if base == "" {
			t.Fatalf("seed %d: empty decision trace — invariance would be vacuous", seed)
		}
		for _, k := range []int{2, 4, 7} {
			got, snap := shardTrace(t, seed, k)
			if got != base {
				t.Errorf("seed %d: decision trace with shards=%d differs from serial\nserial:  %.200s\nsharded: %.200s",
					seed, k, base, got)
			}
			if snap != baseSnap {
				t.Errorf("seed %d: snapshot with shards=%d differs from serial:\n%+v\n%+v",
					seed, k, snap, baseSnap)
			}
		}
	}
}

// TestShardInvarianceLatency is the event-plane half of the determinism
// contract: with a non-zero message latency every delivery is a queued
// event tagged with its target peer's lane and same-timestamp deliveries
// fire as eval/commit batches — the trace, snapshot, lane-event count and batch
// count must all be invariant across worker counts, and batching must
// actually have happened (otherwise the test is vacuous).
func TestShardInvarianceLatency(t *testing.T) {
	for _, seed := range []int64{3, 17} {
		base, baseSnap, baseLane, baseBatch := shardTraceLatency(t, seed, 1, 0.25)
		if base == "" {
			t.Fatalf("seed %d: empty decision trace — invariance would be vacuous", seed)
		}
		if baseLane == 0 || baseBatch == 0 {
			t.Fatalf("seed %d: lane events %d, batches %d — lane batching never engaged",
				seed, baseLane, baseBatch)
		}
		for _, k := range []int{2, 4, 7} {
			got, snap, lane, batch := shardTraceLatency(t, seed, k, 0.25)
			if got != base {
				t.Errorf("seed %d: decision trace with shards=%d differs from serial\nserial:  %.200s\nsharded: %.200s",
					seed, k, base, got)
			}
			if snap != baseSnap {
				t.Errorf("seed %d: snapshot with shards=%d differs from serial:\n%+v\n%+v",
					seed, k, snap, baseSnap)
			}
			if lane != baseLane || batch != baseBatch {
				t.Errorf("seed %d: shards=%d fired %d lane events in %d batches, serial fired %d in %d",
					seed, k, lane, batch, baseLane, baseBatch)
			}
		}
	}
}
