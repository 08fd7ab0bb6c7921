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
// measurement of the same path. A tick from t = 160 allocates 73 objects
// (-benchtime 20x, two CPUs); see scaleNetwork for which.
func BenchmarkScaleTick(b *testing.B) {
	b.ReportAllocs()
	eng, n := scaleNetwork(b, 160)
	next := eng.Now() + 1
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

// scaleNetwork grows the 100k-peer churning network of the scale
// benchmarks and runs it, one maintenance tick per time unit, through
// time warm. The population arrives within four units, and a cold start
// that fast over-promotes: two thirds of the peers are supers at t = 20,
// with three leaves each — every one of those supers' sets sits at its
// inline capacity and spills on its next leaf — and the 100-unit demotion
// cooldown releases them together at t = 100 to 140. allocs/op read
// inside that transient is the transient's; from t = 160 the layer split
// rings within 2x of its target and a tick allocates what equilibrium
// allocates. New supers growing to their leaf degree, and the one leaf in
// fifty that meets a fifth super, take their storage from the spare
// stores; what is left is mostly spills the stores cannot serve, because
// a store keeps no more spares of a size than its sets hold in use, then
// the lane buffers growing to a new peak and the goroutines of the two
// lane fan-outs, collect and evaluate (five objects each at two
// workers).
func scaleNetwork(b *testing.B, warm sim.Time) (*sim.Engine, *overlay.Network) {
	const size = 100_000
	eng := sim.NewEngine(1)
	eng.SetShards(runtime.GOMAXPROCS(0))
	n := overlay.New(eng, overlay.Config{M: 2, KS: 3, Eta: 20}, NewManager(DefaultParams()))
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
	for next := sim.Time(0); next <= warm; next++ {
		if err := eng.RunUntil(next); err != nil {
			b.Fatal(err)
		}
		n.Tick()
	}
	return eng, n
}

// BenchmarkConnectExchange is one leaf session against the 100k-peer
// network: Join picks M supers and links to each, every link fires the
// connect exchange (three request/response pairs, delivered inline), and
// Leave tears both links down — the membership path churn50k is made of.
// With a leaf's protocol and link state inline in its slot the session
// allocates nothing (TestLeafCycleAllocFree is the pin; this is the
// price).
func BenchmarkConnectExchange(b *testing.B) {
	b.ReportAllocs()
	_, n := scaleNetwork(b, 20)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n.Leave(n.Join(10, 100, nil))
	}
}
