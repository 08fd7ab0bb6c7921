package query

import (
	"testing"

	"dlm/internal/msg"
	"dlm/internal/overlay"
	"dlm/internal/sim"
)

// benchTopology builds a fixed mid-size overlay for flood benchmarks:
// 32 super-peers in a connected random graph, 320 leaves carrying
// Zipf-assigned objects, and one designated source leaf. The topology is
// frozen (no churn), so every iteration floods the same structure.
func benchTopology(b testing.TB) (*sim.Engine, *Engine, *overlay.Peer, msg.ObjectID) {
	return floodTopology(b, overlay.Config{M: 2, KS: 4, Eta: 10})
}

// floodTopology builds benchTopology's overlay on a network configured by
// cfg.
func floodTopology(b testing.TB, cfg overlay.Config) (*sim.Engine, *Engine, *overlay.Peer, msg.ObjectID) {
	b.Helper()
	eng := sim.NewEngine(1)
	n := overlay.New(eng, cfg, nil)
	cat := NewCatalog(500, 0.8, 0.8)
	qe := Attach(n, cat)

	objRng := eng.Rand().Stream("bench-objs")
	for i := 0; i < 32; i++ {
		p := n.Join(100, 1e9, cat.AssignObjects(3, objRng))
		if p.Layer != overlay.LayerSuper {
			n.Promote(p)
		}
	}
	var source *overlay.Peer
	for i := 0; i < 320; i++ {
		p := n.Join(1, 1e9, cat.AssignObjects(3, objRng))
		if source == nil {
			source = p
		}
	}
	n.Repair()
	// A target drawn from the popular end of the catalog, so floods do
	// real hit-path work (inverse-path routing) as well as relay work.
	return eng, qe, source, cat.QueryTarget(eng.Rand().Stream("bench-target"))
}

// BenchmarkFloodQuery measures one full flood (query out, hits back) on a
// fixed topology from a fixed source. This is the headline allocation
// benchmark of the query hot path.
func BenchmarkFloodQuery(b *testing.B) {
	_, qe, source, obj := benchTopology(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		qe.IssueAsync(source, obj, qe.DefaultTTL, nil)
	}
}

// BenchmarkFloodQueryRandom floods from a uniformly random peer with a
// Zipf-drawn target each iteration — the workload shape of the paper's
// query-driven scenarios (Figure 7, overhead study).
func BenchmarkFloodQueryRandom(b *testing.B) {
	_, qe, _, _ := benchTopology(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		qe.IssueRandomAsync(nil)
	}
}

// BenchmarkIndexChurn measures the write half of the index: one leaf
// sharing 60 objects connects to and disconnects from each of 600
// super-peers in turn, every one of them already indexing 20 such leaves —
// the per-join and per-departure cost on a search20k-sized super-layer.
func BenchmarkIndexChurn(b *testing.B) {
	const supers, leavesPer, objectsPer = 600, 20, 60
	cat := DefaultCatalog()
	xs := newIndexes(cat.NumObjects)
	rng := sim.NewSource(1)
	ss := make([]*overlay.Peer, supers)
	next := msg.PeerID(supers)
	for i := range ss {
		ss[i] = &overlay.Peer{ID: msg.PeerID(i + 1), Layer: overlay.LayerSuper}
		for j := 0; j < leavesPer; j++ {
			next++
			xs.OnConnect(nil, &overlay.Peer{ID: next, Objects: cat.AssignObjects(objectsPer, rng)}, ss[i])
		}
	}
	leaf := &overlay.Peer{ID: next + 1, Objects: cat.AssignObjects(objectsPer, rng)}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := ss[i%supers]
		xs.OnConnect(nil, leaf, s)
		xs.OnDisconnect(nil, leaf, s)
	}
}

// BenchmarkIndexColdStart measures building BenchmarkIndexChurn's index
// from empty — 600 super-peers each indexing 20 leaves of 60 objects — the
// growth path every table takes as a run's population first joins.
func BenchmarkIndexColdStart(b *testing.B) {
	const supers, leavesPer, objectsPer = 600, 20, 60
	cat := DefaultCatalog()
	rng := sim.NewSource(1)
	ss := make([]*overlay.Peer, supers)
	leaves := make([]*overlay.Peer, supers*leavesPer)
	for i := range ss {
		ss[i] = &overlay.Peer{ID: msg.PeerID(i + 1), Layer: overlay.LayerSuper}
	}
	for i := range leaves {
		leaves[i] = &overlay.Peer{ID: msg.PeerID(supers + 1 + i), Objects: cat.AssignObjects(objectsPer, rng)}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		xs := newIndexes(cat.NumObjects)
		for j, leaf := range leaves {
			xs.OnConnect(nil, leaf, ss[j/leavesPer])
		}
	}
}
