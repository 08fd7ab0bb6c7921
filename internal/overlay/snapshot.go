package overlay

import (
	"fmt"
	"math"

	"dlm/internal/msg"
)

// LayerStats is a point-in-time summary of both layers — exactly the
// quantities plotted in the paper's Figures 4-8.
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

// Snapshot computes the current layer statistics in O(1) from the
// incremental aggregates — no peer is touched, so sampling cost is
// independent of population size. Mean ages come from the sum-of-birth-
// times identity mean(now − join_i) = now − Σjoin_i/n, exact at any
// sample instant.
func (n *Network) Snapshot() LayerStats {
	now := float64(n.eng.Now())
	ns := n.supers.Len()
	nl := n.leaves.Len()
	s := LayerStats{
		Time:      now,
		NumSupers: ns,
		NumLeaves: nl,
		Ratio:     n.Ratio(),
	}
	if ns > 0 {
		fns := float64(ns)
		s.AvgAgeSuper = now - n.agg.sumJoinSuper/fns
		s.AvgCapSuper = n.agg.sumCapSuper / fns
		s.AvgLeafDegree = float64(n.agg.leafDegSupers) / fns
		s.AvgSuperDegreeOfSupers = float64(n.agg.superDegSupers) / fns
	}
	if nl > 0 {
		fnl := float64(nl)
		s.AvgAgeLeaf = now - n.agg.sumJoinLeaf/fnl
		s.AvgCapLeaf = n.agg.sumCapLeaf / fnl
		s.AvgSuperDegreeOfLeaves = float64(n.agg.superDegLeaves) / fnl
	}
	return s
}

// scanAggregates recomputes the incremental sums by brute force — the
// oracle the differential test and CheckInvariants compare against.
func (n *Network) scanAggregates() aggregates {
	var a aggregates
	for _, id := range n.supers.items {
		p := n.store.get(id)
		a.sumJoinSuper += float64(p.JoinTime)
		a.sumCapSuper += p.Capacity
		a.leafDegSupers += int64(p.LeafDegree())
		a.superDegSupers += int64(p.SuperDegree())
	}
	for _, id := range n.leaves.items {
		p := n.store.get(id)
		a.sumJoinLeaf += float64(p.JoinTime)
		a.sumCapLeaf += p.Capacity
		a.superDegLeaves += int64(p.SuperDegree())
	}
	return a
}

// aggEq compares a maintained float sum against its recomputed oracle
// with a relative tolerance: the incremental sum sees one rounding per
// mutation while the scan sees one per element, so exact equality is not
// guaranteed (the integer degree sums, by contrast, must match exactly).
func aggEq(incremental, scanned float64) bool {
	diff := math.Abs(incremental - scanned)
	scale := math.Max(math.Abs(incremental), math.Abs(scanned))
	return diff <= 1e-6*math.Max(scale, 1)
}

// CheckInvariants validates the structural invariants of the overlay —
// store/layer-set consistency, link symmetry, layer typing, and the
// incremental aggregates against a brute-force rescan. It returns a list
// of violations (empty when healthy). It is O(edges) and intended for
// tests and debug builds, not per-tick use at full scale.
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

	want := n.scanAggregates()
	got := n.agg
	if got.leafDegSupers != want.leafDegSupers {
		addf("agg leafDegSupers = %d, scan = %d", got.leafDegSupers, want.leafDegSupers)
	}
	if got.superDegSupers != want.superDegSupers {
		addf("agg superDegSupers = %d, scan = %d", got.superDegSupers, want.superDegSupers)
	}
	if got.superDegLeaves != want.superDegLeaves {
		addf("agg superDegLeaves = %d, scan = %d", got.superDegLeaves, want.superDegLeaves)
	}
	if !aggEq(got.sumJoinSuper, want.sumJoinSuper) {
		addf("agg sumJoinSuper = %g, scan = %g", got.sumJoinSuper, want.sumJoinSuper)
	}
	if !aggEq(got.sumJoinLeaf, want.sumJoinLeaf) {
		addf("agg sumJoinLeaf = %g, scan = %g", got.sumJoinLeaf, want.sumJoinLeaf)
	}
	if !aggEq(got.sumCapSuper, want.sumCapSuper) {
		addf("agg sumCapSuper = %g, scan = %g", got.sumCapSuper, want.sumCapSuper)
	}
	if !aggEq(got.sumCapLeaf, want.sumCapLeaf) {
		addf("agg sumCapLeaf = %g, scan = %g", got.sumCapLeaf, want.sumCapLeaf)
	}
	return bad
}
