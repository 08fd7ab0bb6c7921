package query

import (
	"dlm/internal/msg"
	"dlm/internal/overlay"
)

// index is the per-super-peer content index: the objects shared by the
// super-peer's leaf neighbors (and itself), keyed by owner so that
// overlay-surgery notifications are idempotent. A super-peer answers a
// query from this index without forwarding it to leaves ("each super-peer
// behaves like a proxy or agent of its leaf-peers, and keeps an index of
// its leaf-peers' shared data").
type index struct {
	refs  map[msg.ObjectID]int
	owned map[msg.PeerID][]msg.ObjectID
	// providers maps object -> one current provider, for QueryHit
	// attribution. Any provider is acceptable; the most recent wins.
	providers map[msg.ObjectID]msg.PeerID
}

func newIndex() *index {
	return &index{
		refs:      make(map[msg.ObjectID]int),
		owned:     make(map[msg.PeerID][]msg.ObjectID),
		providers: make(map[msg.ObjectID]msg.PeerID),
	}
}

// add indexes owner's objects; adding an owner twice is a no-op.
func (ix *index) add(owner msg.PeerID, objects []msg.ObjectID) {
	if _, ok := ix.owned[owner]; ok {
		return
	}
	ix.owned[owner] = objects
	for _, o := range objects {
		ix.refs[o]++
		ix.providers[o] = owner
	}
}

// remove drops owner's contribution; removing an absent owner is a no-op.
func (ix *index) remove(owner msg.PeerID) {
	objects, ok := ix.owned[owner]
	if !ok {
		return
	}
	delete(ix.owned, owner)
	for _, o := range objects {
		if ix.refs[o]--; ix.refs[o] <= 0 {
			delete(ix.refs, o)
			delete(ix.providers, o)
		} else if ix.providers[o] == owner {
			ix.providers[o] = ix.anyOwnerOf(o)
		}
	}
}

// anyOwnerOf finds a surviving provider after the recorded one left. The
// scan is bounded by the super's neighborhood size and runs only when the
// attributed provider departs.
func (ix *index) anyOwnerOf(o msg.ObjectID) msg.PeerID {
	for owner, objects := range ix.owned {
		for _, oo := range objects {
			if oo == o {
				return owner
			}
		}
	}
	return msg.NoPeer
}

// lookup returns a provider for the object; ok is false on a miss.
func (ix *index) lookup(o msg.ObjectID) (msg.PeerID, bool) {
	if ix.refs[o] <= 0 {
		return msg.NoPeer, false
	}
	return ix.providers[o], true
}

// indexes maintains one index per live super-peer by observing overlay
// structure changes.
type indexes struct {
	overlay.NopObserver
	bySuper map[msg.PeerID]*index
}

func newIndexes() *indexes {
	return &indexes{bySuper: make(map[msg.PeerID]*index)}
}

func (xs *indexes) forSuper(id msg.PeerID) *index {
	ix, ok := xs.bySuper[id]
	if !ok {
		ix = newIndex()
		xs.bySuper[id] = ix
	}
	return ix
}

// OnConnect implements overlay.Observer: a new leaf-super link adds the
// leaf's objects to the super's index.
func (xs *indexes) OnConnect(n *overlay.Network, a, b *overlay.Peer) {
	leaf, super := classify(a, b)
	if leaf == nil {
		return
	}
	xs.forSuper(super.ID).add(leaf.ID, leaf.Objects)
}

// OnDisconnect implements overlay.Observer.
func (xs *indexes) OnDisconnect(n *overlay.Network, a, b *overlay.Peer) {
	// Remove each endpoint's contribution from the other's index (if
	// any); ownership tracking makes stray removals no-ops, which covers
	// the demotion path where link types changed mid-surgery.
	if ix, ok := xs.bySuper[a.ID]; ok {
		ix.remove(b.ID)
	}
	if ix, ok := xs.bySuper[b.ID]; ok {
		ix.remove(a.ID)
	}
}

// OnLayerChange implements overlay.Observer. A promoted peer starts an
// empty index and leaves its old supers' indexes; a demoted peer's index
// dissolves, and its kept supers index it as a leaf.
func (xs *indexes) OnLayerChange(n *overlay.Network, p *overlay.Peer, old overlay.Layer) {
	switch p.Layer {
	case overlay.LayerSuper:
		xs.bySuper[p.ID] = newIndex()
		for _, id := range p.SuperLinks() {
			if ix, ok := xs.bySuper[id]; ok {
				ix.remove(p.ID)
			}
		}
	case overlay.LayerLeaf:
		delete(xs.bySuper, p.ID)
		for _, id := range p.SuperLinks() {
			xs.forSuper(id).add(p.ID, p.Objects)
		}
	}
}

// OnLeave implements overlay.Observer.
func (xs *indexes) OnLeave(n *overlay.Network, p *overlay.Peer) {
	delete(xs.bySuper, p.ID)
}

func classify(a, b *overlay.Peer) (leaf, super *overlay.Peer) {
	switch {
	case a.Layer == overlay.LayerLeaf && b.Layer == overlay.LayerSuper:
		return a, b
	case b.Layer == overlay.LayerLeaf && a.Layer == overlay.LayerSuper:
		return b, a
	}
	return nil, nil
}
