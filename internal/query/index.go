package query

import (
	"slices"

	"dlm/internal/msg"
	"dlm/internal/overlay"
)

// slot is one super-peer's entry for one object: how many of its leaf
// neighbors share the object, and one of them to name in a QueryHit.
type slot struct {
	super msg.PeerID // NoPeer marks an empty slot
	refs  uint32
	// provider is the most recently added sharer; NoPeer after that leaf
	// left, until the next hit resolves a surviving one.
	provider msg.PeerID
}

// table is the set of super-peers indexing one object: an open-addressed
// hash table with linear probing and backward-shift deletion (flatidx's
// scheme with a three-field slot), kept at most half full.
type table struct {
	slots []slot // power-of-two length, or nil
	n     int
}

// hashMul is the 32-bit Fibonacci multiplier, as in flatidx.
const hashMul = 0x9E3779B9

func home(super msg.PeerID, mask uint32) uint32 { return uint32(super) * hashMul & mask }

// find returns the position of super's slot, or -1.
func (t *table) find(super msg.PeerID) int {
	if t.n == 0 {
		return -1
	}
	mask := uint32(len(t.slots) - 1)
	for i := home(super, mask); ; i = (i + 1) & mask {
		switch t.slots[i].super {
		case super:
			return int(i)
		case msg.NoPeer:
			return -1
		}
	}
}

// claim returns super's slot, inserting one with zero refs if absent.
func (t *table) claim(super msg.PeerID) *slot {
	if 2*(t.n+1) > len(t.slots) {
		t.grow()
	}
	mask := uint32(len(t.slots) - 1)
	for i := home(super, mask); ; i = (i + 1) & mask {
		s := &t.slots[i]
		switch s.super {
		case super:
			return s
		case msg.NoPeer:
			s.super = super
			t.n++
			return s
		}
	}
}

// release empties position i, shifting later entries of the probe chain
// back into the hole whenever their home lies at or before it (cyclically),
// so every entry stays reachable from its home without tombstones.
func (t *table) release(i int) {
	mask := uint32(len(t.slots) - 1)
	hole := uint32(i)
	for j := (hole + 1) & mask; ; j = (j + 1) & mask {
		s := t.slots[j]
		if s.super == msg.NoPeer {
			break
		}
		if (j-home(s.super, mask))&mask >= (j-hole)&mask {
			t.slots[hole] = s
			hole = j
		}
	}
	t.slots[hole] = slot{}
	t.n--
}

func (t *table) grow() {
	old := t.slots
	t.slots = make([]slot, max(4, 2*len(old)))
	mask := uint32(len(t.slots) - 1)
	for _, s := range old {
		if s.super == msg.NoPeer {
			continue
		}
		i := home(s.super, mask)
		for t.slots[i].super != msg.NoPeer {
			i = (i + 1) & mask
		}
		t.slots[i] = s
	}
}

// indexes is the content index of the whole super-layer, maintained by
// observing overlay structure changes. The paper has each super-peer keep
// "an index of its leaf-peers' shared data" and answer queries from it
// without forwarding them to leaves; here those per-super indexes are
// stored inverted, one table of super-peers per object, because a flood
// asks every super-peer it reaches for the same object — all of a flood's
// lookups land in one small table instead of one cold probe per super.
//
// The index is a function of the overlay: super s indexes leaf l exactly
// when l is in s.LeafLinks(), with l.Objects. The observer contract
// (overlay.Observer) says exactly when each leaf-super link starts and
// ends, so add and remove never see a link twice or one they did not add.
type indexes struct {
	overlay.NopObserver
	// byObject[obj] holds a slot for every super-peer with a leaf sharing
	// obj. It covers the catalog up front and grows for stray IDs.
	byObject []table
}

func newIndexes(numObjects int) *indexes {
	return &indexes{byObject: make([]table, numObjects)}
}

// add indexes leaf's objects at super.
func (xs *indexes) add(super msg.PeerID, leaf *overlay.Peer) {
	for _, o := range leaf.Objects {
		if int(o) >= len(xs.byObject) {
			xs.byObject = append(xs.byObject, make([]table, int(o)+1-len(xs.byObject))...)
		}
		s := xs.byObject[o].claim(super)
		s.refs++
		s.provider = leaf.ID
	}
}

// remove drops leaf's objects from super's index.
func (xs *indexes) remove(super msg.PeerID, leaf *overlay.Peer) {
	for _, o := range leaf.Objects {
		t := &xs.byObject[o]
		i := t.find(super)
		s := &t.slots[i]
		if s.refs--; s.refs == 0 {
			t.release(i)
		} else if s.provider == leaf.ID {
			s.provider = msg.NoPeer
		}
	}
}

// lookup returns a provider of obj among s's indexed leaves; ok is false
// on a miss. A provider that left is replaced here, by the first of s's
// leaf links (in link order, so the choice follows from the event history)
// sharing obj.
func (xs *indexes) lookup(n *overlay.Network, s *overlay.Peer, obj msg.ObjectID) (msg.PeerID, bool) {
	if int(obj) >= len(xs.byObject) {
		return msg.NoPeer, false
	}
	t := &xs.byObject[obj]
	i := t.find(s.ID)
	if i < 0 {
		return msg.NoPeer, false
	}
	sl := &t.slots[i]
	if sl.provider == msg.NoPeer {
		for _, leaf := range s.LeafLinks() {
			if slices.Contains(n.Peer(leaf).Objects, obj) {
				sl.provider = leaf
				break
			}
		}
	}
	return sl.provider, true
}

// OnConnect implements overlay.Observer: a new leaf-super link adds the
// leaf's objects to the super's index.
func (xs *indexes) OnConnect(n *overlay.Network, a, b *overlay.Peer) {
	if leaf, super := overlay.LeafSuper(a, b); leaf != nil {
		xs.add(super.ID, leaf)
	}
}

// OnDisconnect implements overlay.Observer: a leaf-super link that ends
// takes the leaf's objects out of the super's index.
func (xs *indexes) OnDisconnect(n *overlay.Network, a, b *overlay.Peer) {
	if leaf, super := overlay.LeafSuper(a, b); leaf != nil {
		xs.remove(super.ID, leaf)
	}
}

// OnLayerChange implements overlay.Observer. It fires before the surgery
// moves p's links, so they are still the ones p held in its old layer. A
// promoted peer leaves its supers' indexes. A demoted peer's index empties,
// and every super it links to indexes it as a leaf; the links the demotion
// then drops are taken out again by their OnDisconnect.
func (xs *indexes) OnLayerChange(n *overlay.Network, p *overlay.Peer, old overlay.Layer) {
	if p.Layer == overlay.LayerSuper {
		for _, id := range p.SuperLinks() {
			xs.remove(id, p)
		}
		return
	}
	for _, id := range p.LeafLinks() {
		xs.remove(p.ID, n.Peer(id))
	}
	for _, id := range p.SuperLinks() {
		xs.add(id, p)
	}
}
