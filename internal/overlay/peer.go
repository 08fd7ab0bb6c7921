// Package overlay implements the super-peer overlay network substrate:
// peers split into a super-layer and a leaf-layer, connection management,
// join/leave churn, bootstrap, and the promotion/demotion surgery whose
// cost the paper quantifies as Peer Adjustment Overhead (PAO).
//
// The overlay is policy-free: *which* peers change layer and *when* is
// decided by a Manager (internal/core implements DLM; internal/baseline
// implements the preconfigured-threshold and other reference policies).
package overlay

import (
	"fmt"

	"dlm/internal/flatidx"
	"dlm/internal/msg"
	"dlm/internal/sim"
)

// Layer identifies which of the two layers a peer currently occupies.
type Layer uint8

// The two layers of a super-peer architecture.
const (
	LayerLeaf Layer = iota
	LayerSuper
)

// String implements fmt.Stringer.
func (l Layer) String() string {
	switch l {
	case LayerLeaf:
		return "leaf"
	case LayerSuper:
		return "super"
	}
	return fmt.Sprintf("layer(%d)", uint8(l))
}

// Peer is one overlay participant. Peers live in the network's slab store
// (see store.go): the struct is recycled when a departed peer's slot is
// reused, so a *Peer must not be dereferenced after Leave except through
// the Alive check.
//
// Field order is access order: everything the per-tick population walk
// and a message delivery read of a peer — liveness, layer, the slot that
// finds the manager's state, the reported capacity and age — is the
// struct's first 64 bytes, the two link sets with their inline IDs
// follow, and what only join, leave and search touch comes last
// (TestPeerLayout).
//
// The link sets are flatidx.Sets: a peer at leaf degree keeps its links
// in its slab page, and a super's leaf set, which million-peer bootstrap
// drives into the tens of thousands, spills to the network's store and
// indexes. Leave gives both sets' storage back to the store, and Demote
// the leaf set's.
type Peer struct {
	ID msg.PeerID

	// slot is the peer's index in the slab store.
	slot int32

	// Layer is the current layer.
	Layer Layer

	alive bool

	// Capacity abstracts query-processing ability; the paper instantiates
	// it with bandwidth. It is fixed for the peer's whole session.
	Capacity float64
	// JoinTime is when the peer entered the network.
	JoinTime sim.Time

	// MisreportCapFactor and MisreportAgeBoost make the peer a liar in the
	// adversarial scenarios (internal/scenario): a non-zero factor
	// multiplies the capacity the peer *claims* in protocol messages and
	// its own promotion evaluations, and the boost inflates its claimed
	// age — while Snapshot keeps reading the true Capacity and Age, so the
	// layer-quality damage the lie causes stays measurable. Zero values
	// (the default) mean an honest peer and leave every reported value
	// bit-identical to the true one.
	MisreportCapFactor float64
	MisreportAgeBoost  float64

	// superLinks holds connections to super-peers: for a leaf these are
	// its m redundant super connections; for a super its super-layer
	// neighbors. leafLinks holds a super's leaf neighbors and is empty
	// for leaves.
	superLinks flatidx.Set
	leafLinks  flatidx.Set

	// Lifetime is the scheduled session length; the peer leaves when its
	// age reaches it. Only the simulator knows it — protocol code must use
	// Age, mirroring the paper's "no means to know the lifetime".
	Lifetime float64

	// Objects is the peer's shared content.
	Objects []msg.ObjectID

	// layerPos is the peer's index in the layer membership slice
	// (swap-delete bookkeeping), and deficitPos its index in the network's
	// repair deficit set (-1 when not deficient).
	layerPos   int32
	deficitPos int32
}

// Age returns the peer's age at virtual time now (paper Definition 2).
func (p *Peer) Age(now sim.Time) float64 { return float64(now - p.JoinTime) }

// ReportedCapacity returns the capacity the peer claims to others: the
// true capacity for an honest peer, inflated for a liar.
func (p *Peer) ReportedCapacity() float64 {
	if p.MisreportCapFactor > 0 {
		return p.Capacity * p.MisreportCapFactor
	}
	return p.Capacity
}

// ReportedAge returns the age the peer claims at time now; the boost is
// zero for an honest peer, making this exactly Age.
func (p *Peer) ReportedAge(now sim.Time) float64 {
	return p.Age(now) + p.MisreportAgeBoost
}

// Liar reports whether the peer misreports either metric.
func (p *Peer) Liar() bool { return p.MisreportCapFactor > 0 || p.MisreportAgeBoost > 0 }

// Alive reports whether the peer is still in the network.
func (p *Peer) Alive() bool { return p.alive }

// SuperDegree returns the number of super-peer links.
func (p *Peer) SuperDegree() int { return p.superLinks.Len() }

// LeafDegree returns l_nn, the number of leaf neighbors (always 0 for a
// leaf peer).
func (p *Peer) LeafDegree() int { return p.leafLinks.Len() }

// SuperLinks returns the IDs of the peer's super-layer neighbors in
// deterministic (insertion, swap-remove) order. The slice is shared;
// callers must not mutate it.
func (p *Peer) SuperLinks() []msg.PeerID { return p.superLinks.IDs() }

// LeafLinks returns the IDs of the peer's leaf neighbors. The slice is
// shared; callers must not mutate it.
func (p *Peer) LeafLinks() []msg.PeerID { return p.leafLinks.IDs() }

// HasLink reports whether the peer has a link (of either type) to id.
func (p *Peer) HasLink(id msg.PeerID) bool {
	return p.superLinks.Contains(id) || p.leafLinks.Contains(id)
}
