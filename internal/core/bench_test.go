package core

import (
	"runtime"
	"testing"

	"dlm/internal/overlay"
	"dlm/internal/sim"
	"dlm/internal/workload"
)

// BenchmarkScaleTick is the macro benchmark of the scaling work:
// steady-state DLM maintenance ticks over a 100k-peer churning network —
// the hot loop that dominates the -run scale sweep and the million-peer
// runs. It measures whole net.Tick calls (lane fan-out, per-peer
// evaluation, deferred commits, deficit-set repair, expiry and churn
// events between ticks), so a regression anywhere on the per-tick path
// shows up here; the steady100k workload of bench/ is the end-to-end
// measurement of the same path.
func BenchmarkScaleTick(b *testing.B) {
	const size = 100_000
	eng := sim.NewEngine(1)
	eng.SetShards(runtime.GOMAXPROCS(0))
	mgr := NewManager(DefaultParams())
	n := overlay.New(eng, overlay.Config{M: 2, KS: 3, Eta: 20}, mgr)
	churn := &overlay.Churn{
		Net: n,
		Profile: &workload.StaticProfile{
			Capacity: workload.SaroiuBandwidthMixture(),
			Lifetime: workload.LognormalWithMedian(60, 1.2),
		},
		TargetSize: size,
		GrowthRate: size / 4,
	}
	churn.Start()
	// Drive to steady state: population at target, layer split settled,
	// refresh/expiry wheels loaded — so the timed region measures the
	// equilibrium per-tick cost, not ramp-up.
	next := sim.Time(0)
	for ; next < 60; next++ {
		if err := eng.RunUntil(next); err != nil {
			b.Fatal(err)
		}
		n.Tick()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := eng.RunUntil(next); err != nil {
			b.Fatal(err)
		}
		n.Tick()
		next++
	}
	b.StopTimer()
	b.ReportMetric(float64(n.Size())*float64(b.N)/b.Elapsed().Seconds(), "peer-ticks/s")
	if bad := n.CheckInvariants(); len(bad) > 0 {
		b.Fatalf("invariants: %v", bad[:minInt(len(bad), 5)])
	}
}
