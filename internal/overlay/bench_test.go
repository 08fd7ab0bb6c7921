package overlay

import (
	"testing"

	"dlm/internal/sim"
	"dlm/internal/workload"
)

// benchNetwork builds a steady network of the given size for hot-path
// benchmarks.
func benchNetwork(b *testing.B, size int) *Network {
	b.Helper()
	eng := sim.NewEngine(1)
	n := New(eng, Config{M: 2, KS: 3, Eta: 20}, nil)
	c := &Churn{
		Net: n,
		Profile: &workload.StaticProfile{
			Capacity: workload.Uniform{Lo: 1, Hi: 100},
			Lifetime: workload.Constant(1e9),
		},
		TargetSize: size,
		GrowthRate: size,
	}
	c.Start()
	if err := eng.RunUntil(2); err != nil {
		b.Fatal(err)
	}
	// Promote ~size/21 peers for a realistic layer split.
	for i := 0; n.NumSupers() < size/21; i++ {
		n.Promote(n.Peer(n.LeafIDs()[0]))
	}
	return n
}

func BenchmarkJoinLeave(b *testing.B) {
	n := benchNetwork(b, 5000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := n.Join(50, 1e9, nil)
		n.Leave(p)
	}
}

func BenchmarkSnapshot(b *testing.B) {
	n := benchNetwork(b, 5000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = n.Snapshot()
	}
}

func BenchmarkRepair(b *testing.B) {
	n := benchNetwork(b, 5000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n.Repair()
	}
}

func BenchmarkPromoteDemote(b *testing.B) {
	n := benchNetwork(b, 5000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := n.Peer(n.LeafIDs()[0])
		n.Promote(p)
		n.Demote(p)
	}
}

func BenchmarkTopology(b *testing.B) {
	n := benchNetwork(b, 5000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = n.Topology()
	}
}
