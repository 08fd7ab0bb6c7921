package overlay

// aggregates is the incremental accounting behind O(1) layer statistics.
// Every join/leave/promote/demote and every link mutation updates these
// sums in place, so a metrics sample never scans the population — the
// cost that made million-peer runs infeasible when Snapshot was a full
// pass.
//
// Age aggregates are kept as sums of birth times: the layer's mean age at
// time t is t − sumJoin/count, exact at any sample instant without
// touching a peer. Degree sums are integers and therefore exact; the
// float sums accumulate one rounding per mutation, which the differential
// oracle test bounds against a brute-force scan.
//
// Invariants (checked by CheckInvariants):
//
//	sumJoinSuper  = Σ JoinTime    over supers     (resp. leaves)
//	sumCapSuper   = Σ Capacity    over supers     (resp. leaves)
//	leafDegSupers = Σ LeafDegree  over supers
//	superDegSupers= Σ SuperDegree over supers
//	superDegLeaves= Σ SuperDegree over leaves
//
// During demotion surgery a peer is briefly a leaf that still owns leaf
// links; the accounting classifies every mutation by the peer's *current*
// layer, and the layer flip transfers the peer's whole contribution, so
// the transient never corrupts the sums (leaf-side leaf-degree is not
// tracked — it is zero whenever it is observable).
type aggregates struct {
	sumJoinSuper float64
	sumJoinLeaf  float64
	sumCapSuper  float64
	sumCapLeaf   float64

	leafDegSupers  int64
	superDegSupers int64
	superDegLeaves int64
}

// enroll adds p's scalar endowment to its current layer.
func (a *aggregates) enroll(p *Peer) {
	if p.Layer == LayerSuper {
		a.sumJoinSuper += float64(p.JoinTime)
		a.sumCapSuper += p.Capacity
	} else {
		a.sumJoinLeaf += float64(p.JoinTime)
		a.sumCapLeaf += p.Capacity
	}
}

// withdraw removes p's scalar endowment from its current layer.
func (a *aggregates) withdraw(p *Peer) {
	if p.Layer == LayerSuper {
		a.sumJoinSuper -= float64(p.JoinTime)
		a.sumCapSuper -= p.Capacity
	} else {
		a.sumJoinLeaf -= float64(p.JoinTime)
		a.sumCapLeaf -= p.Capacity
	}
}

// transfer moves p's whole contribution (scalars and current degrees)
// from layer old to p.Layer. It must run at the instant the layer flips,
// before any link surgery for the transition.
func (a *aggregates) transfer(p *Peer, old Layer) {
	superDeg := int64(p.SuperDegree())
	leafDeg := int64(p.LeafDegree())
	if old == LayerSuper {
		a.sumJoinSuper -= float64(p.JoinTime)
		a.sumCapSuper -= p.Capacity
		a.superDegSupers -= superDeg
		a.leafDegSupers -= leafDeg
	} else {
		a.sumJoinLeaf -= float64(p.JoinTime)
		a.sumCapLeaf -= p.Capacity
		a.superDegLeaves -= superDeg
	}
	if p.Layer == LayerSuper {
		a.sumJoinSuper += float64(p.JoinTime)
		a.sumCapSuper += p.Capacity
		a.superDegSupers += superDeg
		a.leafDegSupers += leafDeg
	} else {
		a.sumJoinLeaf += float64(p.JoinTime)
		a.sumCapLeaf += p.Capacity
		a.superDegLeaves += superDeg
	}
}

// superLinkDelta accounts a ±1 change of p's super-link degree.
func (a *aggregates) superLinkDelta(p *Peer, d int64) {
	if p.Layer == LayerSuper {
		a.superDegSupers += d
	} else {
		a.superDegLeaves += d
	}
}

// leafLinkDelta accounts a ±1 change of p's leaf-link degree. Leaf-side
// leaf links exist only transiently inside demotion surgery and are
// untracked (see the type comment), so only supers contribute.
func (a *aggregates) leafLinkDelta(p *Peer, d int64) {
	if p.Layer == LayerSuper {
		a.leafDegSupers += d
	}
}
