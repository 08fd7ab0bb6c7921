package overlay

import "dlm/internal/msg"

// TopologyStats summarizes the overlay's graph health — the reliability
// dimensions (backbone connectivity, leaf redundancy) that the super-peer
// design literature the paper builds on is concerned with.
type TopologyStats struct {
	// SuperComponents is the number of connected components of the
	// super-layer graph; 1 means the backbone is whole.
	SuperComponents int
	// StrandedLeaves counts leaves with zero super connections (they
	// cannot search at all until repair).
	StrandedLeaves int
	// UnderConnectedLeaves counts leaves below the redundancy target M.
	UnderConnectedLeaves int
}

// Topology computes graph statistics in O(V+E). It draws no randomness,
// so calling it mid-run leaves the simulation unchanged.
func (n *Network) Topology() TopologyStats {
	var t TopologyStats

	// Components of the super graph via BFS. A super's super links all
	// point to supers (CheckInvariants).
	visited := make(map[msg.PeerID]bool, n.supers.Len())
	for _, start := range n.supers.items {
		if visited[start] {
			continue
		}
		t.SuperComponents++
		visited[start] = true
		queue := []msg.PeerID{start}
		for len(queue) > 0 {
			id := queue[0]
			queue = queue[1:]
			for _, nb := range n.store.get(id).superLinks.IDs() {
				if !visited[nb] {
					visited[nb] = true
					queue = append(queue, nb)
				}
			}
		}
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
	return t
}
