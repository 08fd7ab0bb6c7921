package overlay

import (
	"fmt"
	"math"

	"dlm/internal/msg"
)

// LayerStats is a point-in-time summary of both layers — exactly the
// quantities plotted in the paper's Figures 4-8. Both planes build it the
// same way: one Add per live peer, then Finish. Between the two the Avg
// fields hold per-layer sums.
type LayerStats struct {
	Time float64

	NumSupers int
	NumLeaves int
	// Ratio is n_l/n_s; +Inf when the super-layer is empty.
	Ratio float64

	// AvgAgeSuper / AvgAgeLeaf are the layer mean ages (Figure 4).
	AvgAgeSuper float64
	AvgAgeLeaf  float64
	// AvgCapSuper / AvgCapLeaf are the layer mean capacities (Figure 5).
	AvgCapSuper float64
	AvgCapLeaf  float64

	// AvgLeafDegree is the mean l_nn over super-peers, the quantity DLM
	// compares against k_l.
	AvgLeafDegree float64
	// AvgSuperDegreeOfSupers is the mean super-layer degree of supers.
	AvgSuperDegreeOfSupers float64
	// AvgSuperDegreeOfLeaves is the mean number of super connections per
	// leaf (should track M).
	AvgSuperDegreeOfLeaves float64
}

// Add counts one live peer into its layer's sums. A leaf's leafDeg is
// ignored: leaves hold no leaf links.
func (s *LayerStats) Add(super bool, capacity, age float64, superDeg, leafDeg int) {
	if super {
		s.NumSupers++
		s.AvgCapSuper += capacity
		s.AvgAgeSuper += age
		s.AvgLeafDegree += float64(leafDeg)
		s.AvgSuperDegreeOfSupers += float64(superDeg)
	} else {
		s.NumLeaves++
		s.AvgCapLeaf += capacity
		s.AvgAgeLeaf += age
		s.AvgSuperDegreeOfLeaves += float64(superDeg)
	}
}

// Finish turns the sums Add built into layer means and sets Ratio. An
// empty layer's means stay 0.
func (s *LayerStats) Finish() {
	s.Ratio = math.Inf(1)
	if ns := float64(s.NumSupers); ns > 0 {
		s.Ratio = float64(s.NumLeaves) / ns
		s.AvgCapSuper /= ns
		s.AvgAgeSuper /= ns
		s.AvgLeafDegree /= ns
		s.AvgSuperDegreeOfSupers /= ns
	}
	if nl := float64(s.NumLeaves); nl > 0 {
		s.AvgCapLeaf /= nl
		s.AvgAgeLeaf /= nl
		s.AvgSuperDegreeOfLeaves /= nl
	}
}

// Snapshot computes the current layer statistics in one WalkPeers pass.
// Nothing that makes a decision reads it; the experiment drivers call it
// once per sample interval.
func (n *Network) Snapshot() LayerStats {
	now := n.eng.Now()
	s := LayerStats{Time: float64(now)}
	n.WalkPeers(func(p *Peer) {
		s.Add(p.Layer == LayerSuper, p.Capacity, p.Age(now), p.SuperDegree(), p.LeafDegree())
	})
	s.Finish()
	return s
}

// CheckInvariants validates the structural invariants of the overlay —
// store/layer-set consistency, link symmetry, layer typing and the repair
// deficit set. It returns a list of violations (empty when healthy). It is
// O(edges) and intended for tests and debug builds, not per-tick use at
// full scale.
func (n *Network) CheckInvariants() []string {
	var bad []string
	addf := func(format string, args ...any) {
		bad = append(bad, fmt.Sprintf(format, args...))
	}
	if n.supers.Len()+n.leaves.Len() != n.store.Len() {
		addf("layer sets cover %d peers, store has %d",
			n.supers.Len()+n.leaves.Len(), n.store.Len())
	}
	check := func(id msg.PeerID) {
		p := n.store.get(id)
		if p == nil {
			addf("layer member %d not in store", id)
			return
		}
		if p.ID != id {
			addf("peer %d stored under slot for %d", p.ID, id)
		}
		if !p.alive {
			addf("dead peer %d still in a layer set", p.ID)
		}
		switch p.Layer {
		case LayerSuper:
			if !n.supers.Contains(p) {
				addf("super %d missing from super set", p.ID)
			}
		case LayerLeaf:
			if !n.leaves.Contains(p) {
				addf("leaf %d missing from leaf set", p.ID)
			}
			if p.LeafDegree() != 0 {
				addf("leaf %d has %d leaf links", p.ID, p.LeafDegree())
			}
		}
		if bad := p.superLinks.Check(); bad != "" {
			addf("peer %d superLinks: %s", p.ID, bad)
		}
		if bad := p.leafLinks.Check(); bad != "" {
			addf("peer %d leafLinks: %s", p.ID, bad)
		}
		for _, qid := range p.superLinks.IDs() {
			q := n.store.get(qid)
			switch {
			case q == nil:
				addf("peer %d links to dead %d", p.ID, qid)
			case q.Layer != LayerSuper:
				addf("peer %d superLink %d is a %v", p.ID, qid, q.Layer)
			case !q.superLinks.Contains(p.ID) && !q.leafLinks.Contains(p.ID):
				addf("asymmetric link %d->%d", p.ID, qid)
			}
		}
		for _, qid := range p.leafLinks.IDs() {
			q := n.store.get(qid)
			switch {
			case q == nil:
				addf("peer %d links to dead leaf %d", p.ID, qid)
			case q.Layer != LayerLeaf:
				addf("peer %d leafLink %d is a %v", p.ID, qid, q.Layer)
			case !q.superLinks.Contains(p.ID):
				addf("asymmetric leaf link %d->%d", p.ID, qid)
			}
		}
	}
	for _, id := range n.supers.items {
		check(id)
	}
	for _, id := range n.leaves.items {
		check(id)
	}

	// The repair deficit set must be exactly the live peers below their
	// layer's super-degree target, with consistent positions — Repair
	// trusts it instead of scanning the population.
	for i, id := range n.deficit.items {
		p := n.store.get(id)
		switch {
		case p == nil:
			addf("deficit member %d not in store", id)
		case int(p.deficitPos) != i:
			addf("deficit member %d at index %d, deficitPos says %d", id, i, p.deficitPos)
		case p.SuperDegree() >= n.wantDegree(p):
			addf("deficit member %d has degree %d, target %d", id, p.SuperDegree(), n.wantDegree(p))
		}
	}
	n.WalkPeers(func(p *Peer) {
		if p.SuperDegree() < n.wantDegree(p) && p.deficitPos < 0 {
			addf("peer %d below target (%d < %d) but missing from deficit set",
				p.ID, p.SuperDegree(), n.wantDegree(p))
		}
	})
	return bad
}
