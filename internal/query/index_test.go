package query

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"dlm/internal/baseline"
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

// entries counts the entries of every per-object table.
func (xs *indexes) entries() int {
	total := 0
	for o := range xs.byObject {
		total += xs.byObject[o].Len()
	}
	return total
}

// TestIndexMatchesReference drives the inverted index and the naive
// reference through the same random overlay surgery — joins, departures,
// promotions, demotions, link changes — and requires them to agree
// throughout.
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
	agree := func(op int, s *overlay.Peer, o msg.ObjectID) {
		owners := ref.at[s.ID][o]
		provider, ok := xs.lookup(n, s, o)
		if ok != (len(owners) > 0) {
			t.Fatalf("op %d: lookup(%d, %d) found = %v, reference has %d owners", op, s.ID, o, ok, len(owners))
		}
		if ok && !owners[provider] {
			t.Fatalf("op %d: lookup(%d, %d) names %d, not one of the owners %v", op, s.ID, o, provider, owners)
		}
	}

	for op := 0; op < ops; op++ {
		census()
		switch r := rng.Intn(80); {
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
		default:
			n.Repair()
		}

		census()
		for i := 0; i < 8; i++ {
			// Objects up to objects+4 also probe IDs nothing ever shared.
			agree(op, pick(live), msg.ObjectID(rng.Intn(objects+5)))
		}
		if op%500 == 0 {
			for o := msg.ObjectID(0); o < objects+5; o++ {
				for _, p := range live {
					agree(op, p, o)
				}
			}
			// Found-ness above only visits live peers; equal totals show no
			// entry is left behind under an ID that is gone.
			if got, want := xs.entries(), ref.pairs(); got != want {
				t.Fatalf("op %d: %d entries, reference has %d (super, object) pairs", op, got, want)
			}
		}
	}

	c := n.Counters()
	if c.Promotions < 100 || c.Demotions < 100 || c.Leaves < 100 || xs.entries() < 500 {
		t.Fatalf("run is vacuous: %d promotions, %d demotions, %d departures, %d entries at the end",
			c.Promotions, c.Demotions, c.Leaves, xs.entries())
	}
	for census(); len(live) > 0; census() {
		n.Leave(live[0])
	}
	if xs.entries() != 0 {
		t.Fatalf("every super is gone, yet %d entries remain", xs.entries())
	}
}

// checkIndex compares the index with the topology it mirrors: every live
// super-peer indexes exactly the objects of its leaf links, with one ref
// per sharing leaf and a provider among them, and the index holds no
// entries beyond those (super, object) pairs.
func checkIndex(n *overlay.Network, xs *indexes) error {
	pairs := 0
	var err error
	n.WalkPeers(func(s *overlay.Peer) {
		if err != nil || s.Layer != overlay.LayerSuper {
			return
		}
		want := map[msg.ObjectID]uint32{}
		for _, id := range s.LeafLinks() {
			for _, o := range n.Peer(id).Objects {
				want[o]++
			}
		}
		pairs += len(want)
		for o, refs := range want {
			i := xs.byObject[o].Find(s.ID)
			if i < 0 {
				err = fmt.Errorf("super %d: object %d of its leaves not indexed", s.ID, o)
				return
			}
			e := xs.byObject[o].At(i)
			sharer := e.provider != msg.NoPeer && s.HasLink(e.provider) && slices.Contains(n.Peer(e.provider).Objects, o)
			if e.refs != refs || (e.provider != msg.NoPeer && !sharer) {
				err = fmt.Errorf("super %d, object %d: refs %d provider %d, want refs %d and a sharing leaf",
					s.ID, o, e.refs, e.provider, refs)
				return
			}
		}
	})
	if got := xs.entries(); err == nil && got != pairs {
		err = fmt.Errorf("%d entries indexed, the live supers' leaves share %d (super, object) pairs", got, pairs)
	}
	return err
}

// searchSetup varies the overlay under a search run.
type searchSetup struct {
	mgr overlay.Manager       // nil: DLM with its default parameters
	cfg func(*overlay.Config) // nil: config.Scaled's overlay unchanged
}

// searchRun assembles what experiments.Open does for a run with Queries on
// — config.Scaled(size), churn placing catalog objects, 25 floods per time
// unit — under setup, and runs it, calling every after each tick.
func searchRun(t *testing.T, seed int64, size int, until sim.Time, setup searchSetup, every func(*overlay.Network, *Engine, sim.Time)) (*overlay.Network, *Engine) {
	t.Helper()
	sc := config.Scaled(size)
	eng := sim.NewEngine(seed)
	cfg := sc.Overlay()
	if setup.cfg != nil {
		setup.cfg(&cfg)
	}
	mgr := setup.mgr
	if mgr == nil {
		mgr = core.NewManager(core.DefaultParams())
	}
	n := overlay.New(eng, cfg, mgr)
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
// ticks of 2000-peer runs with the query workload on: under DLM; under the
// oracle manager's bulk re-elections every 10 units; with orphans waiting
// for repair; and with floods in flight across 0.05-unit links.
func TestIndexFollowsTopology(t *testing.T) {
	for _, row := range []struct {
		name  string
		setup searchSetup
	}{
		{"dlm", searchSetup{}},
		{"oracle", searchSetup{mgr: &baseline.Oracle{Interval: 10}}},
		{"deferred", searchSetup{cfg: func(c *overlay.Config) { c.DeferredReconnect = true }}},
		{"latency", searchSetup{cfg: func(c *overlay.Config) { c.Latency = 0.05 }}},
	} {
		t.Run(row.name, func(t *testing.T) {
			searchRun(t, 1, 2000, 300, row.setup, func(n *overlay.Network, e *Engine, now sim.Time) {
				if int(now)%10 != 0 {
					return
				}
				if err := checkIndex(n, e.xs); err != nil {
					t.Errorf("t=%v: %v", now, err)
				}
			})
		})
	}
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
		n, e := searchRun(t, 3, 1000, 250, searchSetup{}, func(*overlay.Network, *Engine, sim.Time) {})
		var out []entry
		n.WalkPeers(func(s *overlay.Peer) {
			for o := range e.xs.byObject {
				if p, ok := e.xs.lookup(n, s, msg.ObjectID(o)); ok {
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
