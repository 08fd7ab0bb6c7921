package overlay

import (
	"dlm/internal/msg"
	"dlm/internal/sim"
)

// Manager is a layer-management policy plugged into the overlay. The
// overlay calls the hooks; the manager decides layers by calling
// Network.Promote / Network.Demote. Managers must restrict themselves to
// peer-local information (the Network pointer gives global access for
// mechanics, but the paper's distributed-knowledge discipline is enforced
// by code review and by the oracle baseline being the only policy allowed
// to peek).
type Manager interface {
	// Name identifies the policy in reports.
	Name() string
	// InitialLayer picks the layer of a joining peer. DLM always starts
	// peers as leaves; the preconfigured baseline thresholds on capacity.
	InitialLayer(n *Network, p *Peer) Layer
	// OnConnect fires when a link between a and b is created. Event-driven
	// information exchange lives here.
	OnConnect(n *Network, a, b *Peer)
	// OnDisconnect fires when a link is torn down (including by death of
	// either endpoint).
	OnDisconnect(n *Network, a, b *Peer)
	// OnLayerChange fires after p moved between layers and the surgery
	// finished: p's links are the ones it keeps in its new layer, and any
	// orphaned leaves have reconnected (unless DeferredReconnect).
	OnLayerChange(n *Network, p *Peer, old Layer)
	// HandleMessage processes a protocol message addressed to 'to'.
	HandleMessage(n *Network, to *Peer, m *msg.Message)
	// Tick runs once per time unit, after churn and repair for that unit.
	Tick(n *Network, now sim.Time)
}

// Observer receives structural-change notifications without owning layer
// policy. The query subsystem uses it to maintain the leaf indexes at
// super-peers. The notifications are exact: an observer that classifies
// each link with LeafSuper when it hears of it, and reads p's links in
// OnLayerChange, can rebuild the leaf-super link set from them alone
// (TestObserverContract).
type Observer interface {
	// OnJoin fires after p entered the network and made its initial
	// connections.
	OnJoin(n *Network, p *Peer)
	// OnConnect fires after a link between a and b is created.
	OnConnect(n *Network, a, b *Peer)
	// OnDisconnect fires after a link is torn down.
	OnDisconnect(n *Network, a, b *Peer)
	// OnLayerChange fires as p's layer flips, before any link moves:
	// p.Layer is the new layer, but p.SuperLinks() and p.LeafLinks() are
	// still the links p held in the old one, and its neighbors still file
	// p under the old layer. Every link the surgery then removes is
	// reported by OnDisconnect with p in its new layer, and every orphan
	// reconnection by OnConnect.
	OnLayerChange(n *Network, p *Peer, old Layer)
	// OnLeave fires when p departs the network (after its links are
	// gone).
	OnLeave(n *Network, p *Peer)
}

// LeafSuper classifies a link's two ends by their current layers: the leaf
// and the super end of a leaf-super link, or nil, nil for a super-super
// link and for the leaf-leaf pairs a demotion reports as it drops its
// former leaves.
func LeafSuper(a, b *Peer) (leaf, super *Peer) {
	switch {
	case a.Layer == LayerLeaf && b.Layer == LayerSuper:
		return a, b
	case b.Layer == LayerLeaf && a.Layer == LayerSuper:
		return b, a
	}
	return nil, nil
}

// NopObserver is an embeddable Observer with no-op hooks.
type NopObserver struct{}

// OnJoin implements Observer.
func (NopObserver) OnJoin(*Network, *Peer) {}

// OnConnect implements Observer.
func (NopObserver) OnConnect(*Network, *Peer, *Peer) {}

// OnDisconnect implements Observer.
func (NopObserver) OnDisconnect(*Network, *Peer, *Peer) {}

// OnLayerChange implements Observer.
func (NopObserver) OnLayerChange(*Network, *Peer, Layer) {}

// OnLeave implements Observer.
func (NopObserver) OnLeave(*Network, *Peer) {}

// NopManager is an embeddable Manager with no-op hooks; policies embed it
// and override what they need.
type NopManager struct{}

// Name implements Manager.
func (NopManager) Name() string { return "nop" }

// InitialLayer implements Manager; every peer joins as a leaf.
func (NopManager) InitialLayer(*Network, *Peer) Layer { return LayerLeaf }

// OnConnect implements Manager.
func (NopManager) OnConnect(*Network, *Peer, *Peer) {}

// OnDisconnect implements Manager.
func (NopManager) OnDisconnect(*Network, *Peer, *Peer) {}

// OnLayerChange implements Manager.
func (NopManager) OnLayerChange(*Network, *Peer, Layer) {}

// HandleMessage implements Manager.
func (NopManager) HandleMessage(*Network, *Peer, *msg.Message) {}

// Tick implements Manager.
func (NopManager) Tick(*Network, sim.Time) {}
