package overlay

import (
	"dlm/internal/msg"
	"dlm/internal/stats"
)

// TopologyStats summarizes the overlay's graph health — the reliability
// dimensions (backbone connectivity, leaf redundancy) that the super-peer
// design literature the paper builds on is concerned with.
type TopologyStats struct {
	// SuperComponents is the number of connected components of the
	// super-layer graph; 1 means the backbone is whole.
	SuperComponents int
	// LargestComponentFrac is the fraction of super-peers in the largest
	// component.
	LargestComponentFrac float64
	// StrandedLeaves counts leaves with zero super connections (they
	// cannot search at all until repair).
	StrandedLeaves int
	// UnderConnectedLeaves counts leaves below the redundancy target M.
	UnderConnectedLeaves int
	// AvgSuperPath is the mean shortest-path length between sampled
	// super-peer pairs within the largest component (query hops scale
	// with it).
	AvgSuperPath float64
	// SuperDegreeHist is the super-layer degree distribution.
	SuperDegreeHist *stats.Histogram
	// LeafDegreeHist is the distribution of l_nn over supers.
	LeafDegreeHist *stats.Histogram
}

// Topology computes graph statistics in O(V+E) plus sampled BFS.
func (n *Network) Topology(pathSamples int) TopologyStats {
	t := TopologyStats{
		SuperDegreeHist: stats.NewHistogram(0, 20, 20),
		LeafDegreeHist:  stats.NewHistogram(0, 4*n.cfg.KL()+1, 32),
	}

	// Components of the super graph via BFS.
	visited := make(map[msg.PeerID]int, n.supers.Len())
	comp := 0
	largest := 0
	for _, start := range n.supers.items {
		if _, seen := visited[start]; seen {
			continue
		}
		comp++
		size := 0
		queue := []msg.PeerID{start}
		visited[start] = comp
		for len(queue) > 0 {
			id := queue[0]
			queue = queue[1:]
			size++
			for _, nb := range n.store.get(id).superLinks.list() {
				if n.store.get(nb).Layer != LayerSuper {
					continue
				}
				if _, seen := visited[nb]; !seen {
					visited[nb] = comp
					queue = append(queue, nb)
				}
			}
		}
		if size > largest {
			largest = size
		}
	}
	t.SuperComponents = comp
	if n.supers.Len() > 0 {
		t.LargestComponentFrac = float64(largest) / float64(n.supers.Len())
	}

	for _, id := range n.supers.items {
		p := n.store.get(id)
		superDeg := 0
		for _, nb := range p.superLinks.list() {
			if n.store.get(nb).Layer == LayerSuper {
				superDeg++
			}
		}
		t.SuperDegreeHist.Add(float64(superDeg))
		t.LeafDegreeHist.Add(float64(p.LeafDegree()))
	}
	for _, id := range n.leaves.items {
		p := n.store.get(id)
		switch {
		case p.SuperDegree() == 0:
			t.StrandedLeaves++
			t.UnderConnectedLeaves++
		case p.SuperDegree() < n.cfg.M:
			t.UnderConnectedLeaves++
		}
	}

	// Sampled BFS for mean super-layer path length.
	if pathSamples > 0 && n.supers.Len() > 1 {
		var acc stats.Welford
		for s := 0; s < pathSamples; s++ {
			src, ok := n.supers.Random(n.rng)
			if !ok {
				break
			}
			dist := map[msg.PeerID]int{src: 0}
			queue := []msg.PeerID{src}
			for len(queue) > 0 {
				id := queue[0]
				queue = queue[1:]
				for _, nb := range n.store.get(id).superLinks.list() {
					if n.store.get(nb).Layer != LayerSuper {
						continue
					}
					if _, seen := dist[nb]; !seen {
						dist[nb] = dist[id] + 1
						queue = append(queue, nb)
					}
				}
			}
			for id, d := range dist {
				if id != src {
					acc.Add(float64(d))
				}
			}
		}
		t.AvgSuperPath = acc.Mean()
	}
	return t
}
