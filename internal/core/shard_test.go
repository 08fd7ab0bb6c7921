package core

import (
	"fmt"
	"testing"

	"dlm/internal/overlay"
	"dlm/internal/protocol"
	"dlm/internal/sim"
	"dlm/internal/workload"
)

// shardRun is everything a churning run exposes to the shard-invariance
// tests: the complete decision sequence — which peer, at what time, with
// what μ/Y/l_nn, and what action — the final snapshot, the engine's
// lane-event and batch counters and the Phase 1 retry count. If sharding
// perturbed even one RNG draw, one commit order or one frame's fault
// draw, two runs would differ.
type shardRun struct {
	trace                        string
	snap                         overlay.LayerStats
	laneEvents, batches, retries uint64
}

// shardTrace runs a churning DLM scenario with the given lane-fan-out
// worker count over an instant, perfect transport.
func shardTrace(t *testing.T, seed int64, shards int) shardRun {
	return shardTraceLatency(t, seed, shards, 0, overlay.Link{})
}

// shardTraceLatency is shardTrace with a configurable message latency and
// fault model; latency > 0 queues every delivery on its target's lane,
// which is what arms the same-timestamp batch path, and a lossy link
// makes Phase 1 requests time out and retry.
func shardTraceLatency(t *testing.T, seed int64, shards int, latency sim.Duration, link overlay.Link) shardRun {
	t.Helper()
	eng := sim.NewEngine(seed)
	eng.SetShards(shards)
	mgr := NewManager(DefaultParams())
	n := overlay.New(eng, overlay.Config{M: 2, KS: 3, Eta: 10, Latency: latency, Link: link}, mgr)
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
	return shardRun{string(trace), n.Snapshot(), eng.LaneEventsFired(), eng.BatchesFired(), mgr.RequestRetries}
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
		base := shardTrace(t, seed, 1)
		if base.trace == "" {
			t.Fatalf("seed %d: empty decision trace — invariance would be vacuous", seed)
		}
		for _, k := range []int{2, 4, 7} {
			checkShardRun(t, seed, k, base, shardTrace(t, seed, k))
		}
	}
}

// checkShardRun reports every way a K-worker run differs from the serial
// one.
func checkShardRun(t *testing.T, seed int64, k int, base, got shardRun) {
	t.Helper()
	if got.trace != base.trace {
		t.Errorf("seed %d: decision trace with shards=%d differs from serial\nserial:  %.200s\nsharded: %.200s",
			seed, k, base.trace, got.trace)
	}
	if got.snap != base.snap {
		t.Errorf("seed %d: snapshot with shards=%d differs from serial:\n%+v\n%+v",
			seed, k, got.snap, base.snap)
	}
	if got.laneEvents != base.laneEvents || got.batches != base.batches || got.retries != base.retries {
		t.Errorf("seed %d: shards=%d fired %d lane events in %d batches with %d retries, serial fired %d in %d with %d",
			seed, k, got.laneEvents, got.batches, got.retries, base.laneEvents, base.batches, base.retries)
	}
}

// TestShardInvarianceLatency is the event-plane half of the determinism
// contract. With a non-zero message latency every delivery is a queued
// event tagged with its target peer's lane, and same-timestamp deliveries
// fire as eval/commit batches; over the robustness sweep's adverse link
// (here at 5 % loss) requests also time out, so the tick's expiry list
// re-sends frames whose fault draws follow its merge order. The trace,
// snapshot and counters must all be invariant across worker counts, and
// each row must engage the path it exists for (otherwise it is vacuous).
func TestShardInvarianceLatency(t *testing.T) {
	adverse := overlay.Link{
		Loss:          0.05,
		Dup:           0.01,
		JitterMin:     0.01,
		JitterMode:    0.05,
		JitterMax:     0.2,
		ReorderWindow: 0.5,
	}
	for _, row := range []struct {
		name    string
		latency sim.Duration
		link    overlay.Link
		engaged func(shardRun) bool
	}{
		{"batched", 0.25, overlay.Link{}, func(r shardRun) bool { return r.laneEvents > 0 && r.batches > 0 }},
		{"lossy", 0.05, adverse, func(r shardRun) bool { return r.retries > 0 }},
	} {
		t.Run(row.name, func(t *testing.T) {
			for _, seed := range []int64{3, 17} {
				base := shardTraceLatency(t, seed, 1, row.latency, row.link)
				if base.trace == "" || !row.engaged(base) {
					t.Fatalf("seed %d: %d decision bytes, %d lane events, %d batches, %d retries — the row is vacuous",
						seed, len(base.trace), base.laneEvents, base.batches, base.retries)
				}
				for _, k := range []int{2, 4, 7} {
					checkShardRun(t, seed, k, base, shardTraceLatency(t, seed, k, row.latency, row.link))
				}
			}
		})
	}
}
