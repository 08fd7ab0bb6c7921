package query

import (
	"slices"

	"dlm/internal/flatidx"
	"dlm/internal/msg"
	"dlm/internal/overlay"
	"dlm/internal/spare"
)

// entry is one super-peer's entry for one object: how many of its leaf
// neighbors share the object, and one of them to name in a QueryHit.
type entry struct {
	refs uint32
	// provider is the most recently added sharer; NoPeer after that leaf
	// left, until the next hit resolves a surviving one.
	provider msg.PeerID
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
	// byObject[obj] holds an entry for every super-peer with a leaf
	// sharing obj. It covers the catalog up front and grows for stray IDs.
	byObject []flatidx.Table[entry]
	// tables recycles the arrays tables grow out of: tables only grow, and
	// a join wave grows thousands of them through the same sizes.
	tables spare.Slices[flatidx.Slot[entry]]
}

func newIndexes(numObjects int) *indexes {
	return &indexes{byObject: make([]flatidx.Table[entry], numObjects)}
}

// add indexes leaf's objects at super.
func (xs *indexes) add(super msg.PeerID, leaf *overlay.Peer) {
	for _, o := range leaf.Objects {
		if int(o) >= len(xs.byObject) {
			xs.byObject = append(xs.byObject, make([]flatidx.Table[entry], int(o)+1-len(xs.byObject))...)
		}
		e := xs.byObject[o].Claim(super, &xs.tables)
		e.refs++
		e.provider = leaf.ID
	}
}

// remove drops leaf's objects from super's index.
func (xs *indexes) remove(super msg.PeerID, leaf *overlay.Peer) {
	for _, o := range leaf.Objects {
		t := &xs.byObject[o]
		i := t.Find(super)
		e := t.At(i)
		if e.refs--; e.refs == 0 {
			t.Release(i)
		} else if e.provider == leaf.ID {
			e.provider = msg.NoPeer
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
	i := t.Find(s.ID)
	if i < 0 {
		return msg.NoPeer, false
	}
	e := t.At(i)
	if e.provider == msg.NoPeer {
		for _, leaf := range s.LeafLinks() {
			if slices.Contains(n.Peer(leaf).Objects, obj) {
				e.provider = leaf
				break
			}
		}
	}
	return e.provider, true
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
