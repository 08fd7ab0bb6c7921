package overlay

import (
	"dlm/internal/msg"
	"dlm/internal/sim"
)

// The slab hands out peers in pages of fixed size so that *Peer values
// stay address-stable while the store grows (a flat []Peer would move
// every peer on append). Pages are contiguous, so hot-path iteration
// still walks dense memory.
const (
	pageShift = 12
	pageSize  = 1 << pageShift
	pageMask  = pageSize - 1
)

type peerPage [pageSize]Peer

// peerStore is the dense peer table: a paged slab of Peer structs, a
// LIFO free-list of recycled slots, and a flat PeerID->slot index. It
// replaces the map[msg.PeerID]*Peer of earlier revisions: lookups are two
// array indexings instead of a hash probe, departed peers' slots (and
// their manager state) are reused by later joins, and the ID index stays
// dense because IDs are drawn from a monotonic counter.
type peerStore struct {
	pages []*peerPage
	// free holds recycled slots; the most recently vacated slot is reused
	// first, which keeps the working set compact under churn.
	free []int32
	// ptr maps a PeerID directly to its live peer (nil when dead): get is
	// a single indexed load, the hottest operation in the whole
	// simulation. The slice is indexed by the monotonically assigned ID,
	// so it grows by one word per join ever made.
	ptr []*Peer
	// next is the high-water slot: slots in [0, next) have been handed
	// out at least once.
	next int32
	live int
}

// Len returns the number of live peers.
func (st *peerStore) Len() int { return st.live }

// get returns the live peer with the given ID, or nil.
func (st *peerStore) get(id msg.PeerID) *Peer {
	if int(id) >= len(st.ptr) {
		return nil
	}
	return st.ptr[id]
}

// acquire allocates (or recycles) a slot for id and returns its Peer,
// with identity fields zeroed. Its link sets are empty already: a new
// page's are zero, and Leave cleared a recycled slot's, giving their
// storage back to the network's spares. All other fields are the
// caller's to set.
func (st *peerStore) acquire(id msg.PeerID) *Peer {
	var slot int32
	if n := len(st.free); n > 0 {
		slot = st.free[n-1]
		st.free = st.free[:n-1]
	} else {
		slot = st.next
		st.next++
		if int(slot)>>pageShift >= len(st.pages) {
			st.pages = append(st.pages, new(peerPage))
		}
	}
	p := &st.pages[slot>>pageShift][slot&pageMask]
	for int(id) >= len(st.ptr) {
		st.ptr = append(st.ptr, nil)
	}
	st.ptr[id] = p
	st.live++
	p.ID = id
	p.slot = slot
	p.layerPos = -1
	p.deficitPos = -1
	p.Objects = nil
	p.MisreportCapFactor = 0
	p.MisreportAgeBoost = 0
	return p
}

// release returns p's slot to the free-list. The caller must already have
// torn down p's links and layer membership.
func (st *peerStore) release(p *Peer) {
	st.ptr[p.ID] = nil
	st.free = append(st.free, p.slot)
	st.live--
}

// layerSet is the membership slice of one layer with O(1) insert, delete,
// and uniform random choice. A member's position is stored on the Peer
// itself (layerPos), so no side index is needed; deletion swaps with the
// last element, keeping order a deterministic function of the operation
// history — which keeps whole simulations reproducible.
type layerSet struct {
	items []msg.PeerID
}

// Len returns the set size.
func (s *layerSet) Len() int { return len(s.items) }

// Add appends p to the membership slice and records its position.
func (s *layerSet) Add(p *Peer) {
	p.layerPos = int32(len(s.items))
	s.items = append(s.items, p.ID)
}

// Remove deletes p via swap-delete, fixing up the moved member's position
// through the store.
func (s *layerSet) Remove(p *Peer, st *peerStore) {
	i := p.layerPos
	last := int32(len(s.items) - 1)
	if i != last {
		moved := s.items[last]
		s.items[i] = moved
		st.get(moved).layerPos = i
	}
	s.items = s.items[:last]
	p.layerPos = -1
}

// Contains reports whether p is currently recorded in this set.
func (s *layerSet) Contains(p *Peer) bool {
	return p.layerPos >= 0 && int(p.layerPos) < len(s.items) && s.items[p.layerPos] == p.ID
}

// deficitSet tracks the peers currently below their layer's super-degree
// repair target, so the per-tick Repair visits exactly the peers with
// work instead of walking the whole population (the O(N)-per-tick scan
// that collapsed million-peer throughput). Same swap-delete discipline as
// layerSet, with the member position on the Peer (deficitPos): insert,
// delete and the "already a member" check are all O(1), so the set can be
// maintained inline at every degree- or layer-mutation point. Order is a
// deterministic function of the mutation history, which keeps the repair
// connection draws — and therefore whole simulations — reproducible.
type deficitSet struct {
	items []msg.PeerID
}

// add appends p unless already present.
func (s *deficitSet) add(p *Peer) {
	if p.deficitPos >= 0 {
		return
	}
	p.deficitPos = int32(len(s.items))
	s.items = append(s.items, p.ID)
}

// remove deletes p via swap-delete if present, fixing up the moved
// member's position through the store.
func (s *deficitSet) remove(p *Peer, st *peerStore) {
	i := p.deficitPos
	if i < 0 {
		return
	}
	last := int32(len(s.items) - 1)
	if i != last {
		moved := s.items[last]
		s.items[i] = moved
		st.get(moved).deficitPos = i
	}
	s.items = s.items[:last]
	p.deficitPos = -1
}

// Random returns a uniformly random member; ok is false when empty.
func (s *layerSet) Random(r *sim.Source) (msg.PeerID, bool) {
	if len(s.items) == 0 {
		return msg.NoPeer, false
	}
	return s.items[r.Intn(len(s.items))], true
}
