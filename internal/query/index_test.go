package query

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"dlm/internal/config"
	"dlm/internal/core"
	"dlm/internal/msg"
	"dlm/internal/overlay"
	"dlm/internal/sim"
)

// refIndex is the naive reference the inverted index is held to: per
// super-peer, per object, the set of leaves indexed as sharing it, kept by
// the same observer rules written against plain nested maps.
type refIndex struct {
	overlay.NopObserver
	at map[msg.PeerID]map[msg.ObjectID]map[msg.PeerID]bool
}

func (r *refIndex) add(super, leaf *overlay.Peer) {
	if r.at[super.ID] == nil {
		r.at[super.ID] = map[msg.ObjectID]map[msg.PeerID]bool{}
	}
	for _, o := range leaf.Objects {
		if r.at[super.ID][o] == nil {
			r.at[super.ID][o] = map[msg.PeerID]bool{}
		}
		r.at[super.ID][o][leaf.ID] = true
	}
}

func (r *refIndex) remove(super, leaf msg.PeerID) {
	for o, owners := range r.at[super] {
		if delete(owners, leaf); len(owners) == 0 {
			delete(r.at[super], o)
		}
	}
}

func (r *refIndex) OnConnect(n *overlay.Network, a, b *overlay.Peer) {
	switch {
	case a.Layer == overlay.LayerLeaf && b.Layer == overlay.LayerSuper:
		r.add(b, a)
	case b.Layer == overlay.LayerLeaf && a.Layer == overlay.LayerSuper:
		r.add(a, b)
	}
}

func (r *refIndex) OnDisconnect(n *overlay.Network, a, b *overlay.Peer) {
	r.remove(a.ID, b.ID)
	r.remove(b.ID, a.ID)
}

func (r *refIndex) OnLayerChange(n *overlay.Network, p *overlay.Peer, old overlay.Layer) {
	if p.Layer == overlay.LayerLeaf {
		delete(r.at, p.ID)
	}
	for _, id := range p.SuperLinks() {
		if p.Layer == overlay.LayerLeaf {
			r.add(n.Peer(id), p)
		} else {
			r.remove(id, p.ID)
		}
	}
}

func (r *refIndex) OnLeave(n *overlay.Network, p *overlay.Peer) { delete(r.at, p.ID) }

// pairs counts the (super, object) pairs the reference holds.
func (r *refIndex) pairs() int {
	total := 0
	for _, objs := range r.at {
		total += len(objs)
	}
	return total
}

// slots counts the occupied slots of every per-object table.
func (xs *indexes) slots() int {
	total := 0
	for o := range xs.byObject {
		total += xs.byObject[o].n
	}
	return total
}

// TestIndexMatchesReference drives the inverted index and the naive
// reference through the same random overlay surgery — joins, departures,
// promotions, demotions, link changes, plus notifications the overlay would
// never send (double adds, stray removes, a super-peer that vanishes with
// its leaves still indexed) — and requires them to agree throughout.
func TestIndexMatchesReference(t *testing.T) {
	const (
		catalog = 30 // object IDs run to 40: a quarter are beyond the catalog
		objects = 40
		ops     = 25000
	)
	rng := rand.New(rand.NewSource(5))
	n := overlay.New(sim.NewEngine(5), overlay.Config{M: 2, KS: 3, Eta: 4}, nil)
	e := Attach(n, NewCatalog(catalog, 0.8, 0.8))
	ref := &refIndex{at: map[msg.PeerID]map[msg.ObjectID]map[msg.PeerID]bool{}}
	n.Observe(ref)
	xs := e.xs

	// Ghost supers exist only in notifications: the index records leaves
	// under them, and OnLeave must dissolve what is still recorded.
	var ghosts []*overlay.Peer
	nextGhost := msg.PeerID(1 << 20)

	var live, supers, leaves []*overlay.Peer
	census := func() {
		live, supers, leaves = live[:0], supers[:0], leaves[:0]
		n.WalkPeers(func(p *overlay.Peer) {
			live = append(live, p)
			if p.Layer == overlay.LayerSuper {
				supers = append(supers, p)
			} else {
				leaves = append(leaves, p)
			}
		})
	}
	pick := func(ps []*overlay.Peer) *overlay.Peer { return ps[rng.Intn(len(ps))] }
	agree := func(op int, s *overlay.Peer, o msg.ObjectID, ghost bool) {
		owners := ref.at[s.ID][o]
		provider, ok := xs.lookup(s, o)
		if ok != (len(owners) > 0) {
			t.Fatalf("op %d: lookup(%d, %d) found = %v, reference has %d owners", op, s.ID, o, ok, len(owners))
		}
		// A ghost has no leaf links to resolve a failover provider from.
		if ok && !owners[provider] && !(ghost && provider == msg.NoPeer) {
			t.Fatalf("op %d: lookup(%d, %d) names %d, not one of the owners %v", op, s.ID, o, provider, owners)
		}
	}

	for op := 0; op < ops; op++ {
		census()
		switch r := rng.Intn(100); {
		case r < 25 && len(live) < 300 || len(live) < 20:
			objs := make([]msg.ObjectID, rng.Intn(7))
			for i := range objs {
				objs[i] = msg.ObjectID(rng.Intn(objects)) // repeats within a peer allowed
			}
			n.Join(1, 1e9, objs)
		case r < 40:
			if p := pick(live); p.Layer == overlay.LayerLeaf || len(supers) > 1 {
				n.Leave(p)
			}
		case r < 52 && len(leaves) > 0:
			n.Promote(pick(leaves))
		case r < 60:
			n.Demote(pick(supers))
		case r < 68:
			n.Connect(pick(live), pick(supers))
		case r < 76:
			if p := pick(live); p.SuperDegree() > 0 {
				n.Disconnect(p, n.Peer(p.SuperLinks()[rng.Intn(p.SuperDegree())]))
			}
		case r < 80:
			n.Repair()
		case r < 86: // double add: a link that is already indexed
			if p := pick(live); p.SuperDegree() > 0 {
				q := n.Peer(p.SuperLinks()[rng.Intn(p.SuperDegree())])
				xs.OnConnect(n, p, q)
				ref.OnConnect(n, p, q)
			}
		case r < 92: // stray remove: two peers that share no link
			if a, b := pick(live), pick(live); !a.HasLink(b.ID) {
				xs.OnDisconnect(n, a, b)
				ref.OnDisconnect(n, a, b)
			}
		case r < 97 && len(leaves) > 0: // index a leaf under a ghost super
			if len(ghosts) < 8 {
				ghosts = append(ghosts, &overlay.Peer{ID: nextGhost, Layer: overlay.LayerSuper})
				nextGhost++
			}
			g, leaf := pick(ghosts), pick(leaves)
			xs.OnConnect(n, leaf, g)
			ref.OnConnect(n, leaf, g)
		case len(ghosts) > 0: // the ghost leaves with leaves still indexed
			i := rng.Intn(len(ghosts))
			xs.OnLeave(n, ghosts[i])
			ref.OnLeave(n, ghosts[i])
			ghosts = slices.Delete(ghosts, i, i+1)
		}

		census()
		for i := 0; i < 8; i++ {
			// Objects up to objects+4 also probe IDs nothing ever shared.
			o := msg.ObjectID(rng.Intn(objects + 5))
			if len(ghosts) > 0 && i == 0 {
				agree(op, pick(ghosts), o, true)
			} else {
				agree(op, pick(live), o, false)
			}
		}
		if op%500 == 0 {
			for o := msg.ObjectID(0); o < objects+5; o++ {
				for _, p := range live {
					agree(op, p, o, false)
				}
				for _, g := range ghosts {
					agree(op, g, o, true)
				}
			}
			// Found-ness above only visits live peers; equal totals show no
			// slot is left behind under an ID that is gone.
			if got, want := xs.slots(), ref.pairs(); got != want {
				t.Fatalf("op %d: %d occupied slots, reference has %d (super, object) pairs", op, got, want)
			}
		}
	}

	c := n.Counters()
	if c.Promotions < 100 || c.Demotions < 100 || c.Leaves < 100 || xs.slots() < 500 {
		t.Fatalf("run is vacuous: %d promotions, %d demotions, %d departures, %d slots at the end",
			c.Promotions, c.Demotions, c.Leaves, xs.slots())
	}
	for census(); len(live) > 0; census() {
		n.Leave(live[0])
	}
	for _, g := range ghosts {
		xs.OnLeave(n, g)
	}
	if xs.slots() != 0 || len(xs.bySuper) != 0 {
		t.Fatalf("every super is gone, yet %d slots and %d per-super records remain", xs.slots(), len(xs.bySuper))
	}
}

// checkIndex compares the index with the topology it mirrors: every live
// super-peer indexes exactly the objects of its leaf links, with one ref
// per sharing leaf and a provider among them, and no slot or record is
// held under an ID that is not a live super-peer.
func checkIndex(n *overlay.Network, xs *indexes) error {
	holds := map[msg.PeerID]int{}
	for o := range xs.byObject {
		for _, sl := range xs.byObject[o].slots {
			if sl.super == msg.NoPeer {
				continue
			}
			if p := n.Peer(sl.super); p == nil || p.Layer != overlay.LayerSuper {
				return fmt.Errorf("object %d: slot held by %d, not a live super-peer", o, sl.super)
			}
			holds[sl.super]++
		}
	}
	for id := range xs.bySuper {
		if p := n.Peer(id); p == nil || p.Layer != overlay.LayerSuper {
			return fmt.Errorf("per-super record for %d, not a live super-peer", id)
		}
	}
	var err error
	n.WalkPeers(func(s *overlay.Peer) {
		if err != nil || s.Layer != overlay.LayerSuper {
			return
		}
		want := map[msg.ObjectID]uint32{}
		for _, id := range s.LeafLinks() {
			leaf := n.Peer(id)
			if rec, ok := xs.bySuper[s.ID][id]; !ok || !slices.Equal(rec, leaf.Objects) {
				err = fmt.Errorf("super %d: leaf link %d recorded = %v with %v, shares %v", s.ID, id, ok, rec, leaf.Objects)
				return
			}
			for _, o := range leaf.Objects {
				want[o]++
			}
		}
		if got := len(xs.bySuper[s.ID]); got != len(s.LeafLinks()) {
			err = fmt.Errorf("super %d: %d leaves recorded, %d leaf links", s.ID, got, len(s.LeafLinks()))
			return
		}
		if holds[s.ID] != len(want) {
			err = fmt.Errorf("super %d: %d objects indexed, its leaves share %d", s.ID, holds[s.ID], len(want))
			return
		}
		for o, refs := range want {
			i := xs.byObject[o].find(s.ID)
			if i < 0 {
				err = fmt.Errorf("super %d: object %d of its leaves not indexed", s.ID, o)
				return
			}
			sl := xs.byObject[o].slots[i]
			sharer := sl.provider != msg.NoPeer && s.HasLink(sl.provider) && slices.Contains(n.Peer(sl.provider).Objects, o)
			if sl.refs != refs || (sl.provider != msg.NoPeer && !sharer) {
				err = fmt.Errorf("super %d, object %d: refs %d provider %d, want refs %d and a sharing leaf",
					s.ID, o, sl.refs, sl.provider, refs)
				return
			}
		}
	})
	return err
}

// dlmSearchRun assembles what experiments.Open does for a run with Queries
// on — config.Scaled(size) under the DLM manager, churn placing catalog
// objects, 25 floods per time unit — and runs it, calling every after each
// tick.
func dlmSearchRun(t *testing.T, seed int64, size int, until sim.Time, every func(*overlay.Network, *Engine, sim.Time)) (*overlay.Network, *Engine) {
	t.Helper()
	sc := config.Scaled(size)
	eng := sim.NewEngine(seed)
	n := overlay.New(eng, sc.Overlay(), core.NewManager(core.DefaultParams()))
	cat := NewCatalog(sc.CatalogSize, 0.8, 0.8)
	e := Attach(n, cat)
	(&overlay.Churn{Net: n, Profile: sc.BaseProfile(), TargetSize: sc.N, GrowthRate: sc.GrowthRate, Catalog: cat}).Start()
	(&Driver{Engine: e, Rate: 25, Until: until}).Start()
	eng.Ticker(1, func(en *sim.Engine) bool {
		n.Tick()
		every(n, e, en.Now())
		return !t.Failed() && en.Now() < until
	})
	if err := eng.RunUntil(until); err != nil {
		t.Fatal(err)
	}
	if c := n.Counters(); c.Promotions == 0 || c.Demotions == 0 || c.Leaves == 0 || e.Succeeded == 0 {
		t.Fatalf("run is vacuous: %d promotions, %d demotions, %d departures, %d floods answered",
			c.Promotions, c.Demotions, c.Leaves, e.Succeeded)
	}
	return n, e
}

// TestIndexFollowsTopology checks the index against the topology every 10
// ticks of a 2000-peer DLM run with the query workload on.
func TestIndexFollowsTopology(t *testing.T) {
	dlmSearchRun(t, 1, 2000, 300, func(n *overlay.Network, e *Engine, now sim.Time) {
		if int(now)%10 != 0 {
			return
		}
		if err := checkIndex(n, e.xs); err != nil {
			t.Errorf("t=%v: %v", now, err)
		}
	})
}

// TestProvidersDeterministic pins that the provider a super-peer names is a
// function of the event history: two runs of one seed, with providers
// departing and failing over all along, end with the same provider for
// every indexed (super, object) pair.
func TestProvidersDeterministic(t *testing.T) {
	type entry struct {
		super    msg.PeerID
		obj      msg.ObjectID
		provider msg.PeerID
	}
	run := func() []entry {
		n, e := dlmSearchRun(t, 3, 1000, 250, func(*overlay.Network, *Engine, sim.Time) {})
		var out []entry
		n.WalkPeers(func(s *overlay.Peer) {
			for o := range e.xs.byObject {
				if p, ok := e.xs.lookup(s, msg.ObjectID(o)); ok {
					out = append(out, entry{s.ID, msg.ObjectID(o), p})
				}
			}
		})
		return out
	}
	a, b := run(), run()
	if len(a) < 1000 {
		t.Fatalf("only %d indexed pairs: the comparison is vacuous", len(a))
	}
	if !slices.Equal(a, b) {
		t.Fatalf("two runs of one seed name different providers (%d and %d indexed pairs)", len(a), len(b))
	}
	for _, x := range a {
		if x.provider == msg.NoPeer {
			t.Fatalf("lookup(%d, %d) left the provider unresolved", x.super, x.obj)
		}
	}
}
