package overlay

import (
	"fmt"
	"math/rand"
	"testing"

	"dlm/internal/msg"
	"dlm/internal/sim"
)

// leafSuperLink is one leaf-super link as {leaf, super}.
type leafSuperLink [2]msg.PeerID

// contractObserver rebuilds the overlay's leaf-super link set from
// notifications alone, classifying each link's ends with LeafSuper at the
// time of the call. It records the first notification that contradicts
// the set it holds: a connect of a held link, a disconnect of an unknown
// one, or a layer change naming a link it does not hold.
type contractObserver struct {
	NopObserver
	links map[leafSuperLink]bool
	err   error
}

func (o *contractObserver) fail(format string, args ...any) {
	if o.err == nil {
		o.err = fmt.Errorf(format, args...)
	}
}

func (o *contractObserver) hold(k leafSuperLink, what string) {
	if o.links[k] {
		o.fail("%s: leaf %d - super %d is already held", what, k[0], k[1])
	}
	o.links[k] = true
}

func (o *contractObserver) drop(k leafSuperLink, what string) {
	if !o.links[k] {
		o.fail("%s: leaf %d - super %d is not held", what, k[0], k[1])
	}
	delete(o.links, k)
}

func (o *contractObserver) OnConnect(n *Network, a, b *Peer) {
	if leaf, super := LeafSuper(a, b); leaf != nil {
		o.hold(leafSuperLink{leaf.ID, super.ID}, "connect")
	}
}

func (o *contractObserver) OnDisconnect(n *Network, a, b *Peer) {
	if leaf, super := LeafSuper(a, b); leaf != nil {
		o.drop(leafSuperLink{leaf.ID, super.ID}, "disconnect")
	}
}

// OnLayerChange reads p's links as they were in its old layer, and checks
// that each neighbor still files p under that layer.
func (o *contractObserver) OnLayerChange(n *Network, p *Peer, old Layer) {
	for _, id := range p.SuperLinks() {
		q := n.Peer(id)
		if old == LayerLeaf {
			if !q.leafLinks.Contains(p.ID) {
				o.fail("promotion of %d: super %d no longer files it as a leaf", p.ID, id)
			}
			o.drop(leafSuperLink{p.ID, id}, "promotion")
		} else {
			if !q.superLinks.Contains(p.ID) {
				o.fail("demotion of %d: super %d no longer files it as a super", p.ID, id)
			}
			o.hold(leafSuperLink{p.ID, id}, "demotion")
		}
	}
	for _, id := range p.LeafLinks() {
		o.drop(leafSuperLink{id, p.ID}, "demotion")
	}
}

// TestObserverContract runs a random surgery script and requires the link
// set rebuilt from notifications to equal the overlay's leaf-super links
// after every operation. It fails if a layer change is notified after the
// rewiring: a promoted peer's supers no longer file it as a leaf, and a
// demotion's orphan disconnects read as leaf-leaf while its dropped super
// links read as leaf-super ones that were never connected.
func TestObserverContract(t *testing.T) {
	for _, deferred := range []bool{false, true} {
		t.Run(fmt.Sprintf("deferred=%v", deferred), func(t *testing.T) {
			cfg := testConfig()
			cfg.DeferredReconnect = deferred
			n := New(sim.NewEngine(9), cfg, nil)
			obs := &contractObserver{links: map[leafSuperLink]bool{}}
			n.Observe(obs)
			rng := rand.New(rand.NewSource(9))

			var live, supers, leaves []*Peer
			census := func() {
				live, supers, leaves = live[:0], supers[:0], leaves[:0]
				n.WalkPeers(func(p *Peer) {
					live = append(live, p)
					if p.Layer == LayerSuper {
						supers = append(supers, p)
					} else {
						leaves = append(leaves, p)
					}
				})
			}
			pick := func(ps []*Peer) *Peer { return ps[rng.Intn(len(ps))] }
			orphaning := 0
			for op := 0; op < 6000; op++ {
				census()
				switch r := rng.Intn(100); {
				case r < 25 && len(live) < 200 || len(live) < 20:
					n.Join(1, 1e9, nil)
				case r < 40:
					if p := pick(live); p.Layer == LayerLeaf || len(supers) > 1 {
						n.Leave(p)
					}
				case r < 55 && len(leaves) > 0:
					n.Promote(pick(leaves))
				case r < 68:
					p := pick(supers)
					if orphans := p.LeafDegree(); n.Demote(p) && orphans > 0 {
						orphaning++
					}
				case r < 80:
					n.Connect(pick(live), pick(supers))
				case r < 92:
					if p := pick(live); p.SuperDegree() > 0 {
						n.Disconnect(p, n.Peer(p.SuperLinks()[rng.Intn(p.SuperDegree())]))
					}
				default:
					n.Repair()
				}
				if obs.err != nil {
					t.Fatalf("op %d: %v", op, obs.err)
				}
				held := 0
				n.WalkPeers(func(s *Peer) {
					for _, id := range s.LeafLinks() {
						held++
						if !obs.links[leafSuperLink{id, s.ID}] {
							obs.fail("leaf %d - super %d was never notified", id, s.ID)
						}
					}
				})
				if obs.err != nil || held != len(obs.links) {
					t.Fatalf("op %d: %d leaf-super links, notifications say %d (%v)", op, held, len(obs.links), obs.err)
				}
			}
			if orphaning < 100 {
				t.Fatalf("run is vacuous: %d demotions with orphans", orphaning)
			}
			requireHealthy(t, n)
		})
	}
}
