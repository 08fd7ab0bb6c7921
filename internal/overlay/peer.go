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
	"dlm/internal/spare"
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
// and a message delivery read of a peer — liveness, layer, the manager's
// state, the reported capacity and age — is the struct's first 64 bytes,
// the two link sets with their inline IDs follow, and what only join,
// leave and search touch comes last (TestPeerLayout).
type Peer struct {
	ID msg.PeerID

	// slot is the peer's index in the slab store.
	slot int32

	// Layer is the current layer.
	Layer Layer

	alive bool

	// State is per-peer storage owned by the Manager (DLM keeps its
	// related set, scale parameters and counters here). It survives slot
	// recycling so managers can reuse their allocations; a manager that
	// stores state must therefore re-initialize it when a peer joins
	// (core does this in InitialLayer).
	State any

	// Capacity abstracts query-processing ability; the paper instantiates
	// it with bandwidth. It is fixed for the peer's whole session.
	Capacity float64
	// JoinTime is when the peer entered the network.
	JoinTime sim.Time

	// MisreportCapFactor and MisreportAgeBoost make the peer a liar in the
	// adversarial scenarios (internal/scenario): a non-zero factor
	// multiplies the capacity the peer *claims* in protocol messages and
	// its own promotion evaluations, and the boost inflates its claimed
	// age — while the true Capacity and Age keep feeding the overlay
	// aggregates, so the layer-quality damage the lie causes stays
	// measurable. Zero values (the default) mean an honest peer and leave
	// every reported value bit-identical to the true one.
	MisreportCapFactor float64
	MisreportAgeBoost  float64

	// superLinks holds connections to super-peers: for a leaf these are
	// its m redundant super connections; for a super its super-layer
	// neighbors. leafLinks holds a super's leaf neighbors and is empty
	// for leaves.
	superLinks linkSet
	leafLinks  linkSet

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
func (p *Peer) SuperLinks() []msg.PeerID { return p.superLinks.list() }

// LeafLinks returns the IDs of the peer's leaf neighbors. The slice is
// shared; callers must not mutate it.
func (p *Peer) LeafLinks() []msg.PeerID { return p.leafLinks.list() }

// HasLink reports whether the peer has a link (of either type) to id.
func (p *Peer) HasLink(id msg.PeerID) bool {
	return p.superLinks.Contains(id) || p.leafLinks.Contains(id)
}

// linkSet is a set of peer IDs in a dense array. Typical overlay degrees
// are small (m for leaves, k_s for a super's super links), and at those
// sizes a linear scan over dense memory beats a map probe; the first
// linkInline IDs live in the set itself — inside the Peer, in its slab
// page — so a peer at leaf degree never touches the Go heap for its
// links. A set that outgrows the array moves once to a heap slice, four
// times as large so that it does not regrow at once (the same factor, for
// the same reason, as protocol.Machine's sets). But a super's leaf
// degree is unbounded, and million-peer bootstrap concentrates enormous
// leaf sets on the earliest supers; once a set grows past
// linkIndexThreshold it builds a position index and Contains/Remove
// become O(1). The index is pure acceleration: iteration order stays the
// array's (insertion, swap-remove) order — a function of the operation
// history only — and Remove deletes the same element the scan would, so
// indexed and scanned sets behave byte-identically. It's a flatidx.Map
// rather than a runtime map: link maintenance is the hottest loop of the
// million-peer runs, and the flat table roughly halves its probe cost.
//
// A set that is emptied — by Clear or by its last Remove — is the zero
// value again: the heap slice and the index belonged to the tenancy that
// needed them (a super's leaf links), and the demoted super or the leaf
// that next takes the slot gets its few links inline. The storage goes to
// the network's linkSpares, from which the next set to spill, regrow or
// build an index takes it; the mutating methods take that store as an
// argument. Nothing in the set points into it, so a by-value copy of an
// inline set is independent.
type linkSet struct {
	n    int32
	buf  [linkInline]msg.PeerID
	heap []msg.PeerID // length n; nil while the IDs fit buf
	idx  *flatidx.Map
}

// linkInline is the number of IDs a set holds without a heap slice: a
// leaf's M = 2 super links with room for the transient third, a super's
// k_s = 3 to 4 super links.
const linkInline = 4

// linkIndexThreshold is the set size past which the position index is
// built; below it the scan wins.
const linkIndexThreshold = 32

// linkSpares is a network's store of released link-set storage: heap
// slices by capacity, and position indexes with their tables by size.
type linkSpares struct {
	ids spare.Slices[msg.PeerID]
	idx flatidx.Pool
}

// Len returns the set size.
func (s *linkSet) Len() int { return int(s.n) }

// list returns the IDs in (insertion, swap-remove) order. The slice
// aliases the set; it is valid until the next mutation.
func (s *linkSet) list() []msg.PeerID {
	if s.heap != nil {
		return s.heap
	}
	return s.buf[:s.n]
}

// Contains reports membership.
func (s *linkSet) Contains(id msg.PeerID) bool {
	if s.idx != nil {
		_, ok := s.idx.Get(uint32(id))
		return ok
	}
	for _, v := range s.list() {
		if v == id {
			return true
		}
	}
	return false
}

// Add inserts id; it reports whether the id was newly added.
func (s *linkSet) Add(id msg.PeerID, sp *linkSpares) bool {
	if s.Contains(id) {
		return false
	}
	s.add(id, sp)
	return true
}

// Remove deletes id; it reports whether the id was present.
func (s *linkSet) Remove(id msg.PeerID, sp *linkSpares) bool {
	items := s.list()
	i := -1
	if s.idx != nil {
		p, ok := s.idx.Get(uint32(id))
		if !ok {
			return false
		}
		i = int(p)
	} else {
		for j, v := range items {
			if v == id {
				i = j
				break
			}
		}
		if i < 0 {
			return false
		}
	}
	last := len(items) - 1
	if last == 0 {
		s.Clear(sp)
		return true
	}
	moved := items[last]
	items[i] = moved
	s.n = int32(last)
	if s.heap != nil {
		s.heap = items[:last]
	}
	if s.idx != nil {
		s.idx.Delete(uint32(id))
		if i < last {
			s.idx.Put(uint32(moved), int32(i))
		}
	}
	return true
}

// add appends id without the membership scan — for callers that have
// already established absence (Connect checks HasLink before linking
// either side; the symmetry invariant makes one check cover both).
func (s *linkSet) add(id msg.PeerID, sp *linkSpares) {
	switch {
	case s.heap != nil:
		s.heap = sp.ids.Append(s.heap, id)
	case s.n < linkInline:
		s.buf[s.n] = id
	default:
		s.heap = append(append(sp.ids.Make(4*linkInline), s.buf[:]...), id)
	}
	s.n++
	if s.idx != nil {
		s.idx.Put(uint32(id), s.n-1)
	} else if s.n > linkIndexThreshold {
		s.idx = sp.idx.Get()
		for i, v := range s.heap {
			s.idx.Put(uint32(v), int32(i))
		}
	}
}

// Clear empties the set: the IDs return to the inline array, the heap
// slice and the index go to sp.
func (s *linkSet) Clear(sp *linkSpares) {
	sp.ids.Release(s.heap)
	sp.idx.Release(s.idx)
	*s = linkSet{}
}

// checkIdx verifies the count against the storage and the position index
// against the IDs; it returns a description of the first inconsistency,
// or "". Part of the CheckInvariants oracle.
func (s *linkSet) checkIdx() string {
	if s.heap == nil {
		if s.n < 0 || s.n > linkInline {
			return fmt.Sprintf("count %d outside the inline array of %d", s.n, linkInline)
		}
	} else if len(s.heap) != int(s.n) {
		return fmt.Sprintf("count %d, heap slice of %d", s.n, len(s.heap))
	}
	if s.idx == nil {
		return ""
	}
	items := s.list()
	if s.idx.Len() != len(items) {
		return fmt.Sprintf("index holds %d ids, array %d", s.idx.Len(), len(items))
	}
	for i, v := range items {
		if p, ok := s.idx.Get(uint32(v)); !ok || int(p) != i {
			return fmt.Sprintf("id %d at position %d, index disagrees", v, i)
		}
	}
	return ""
}
