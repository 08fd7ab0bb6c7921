package overlay

import (
	"testing"

	"dlm/internal/msg"
	"dlm/internal/sim"
)

func TestTopologyStats(t *testing.T) {
	_, n := newNet(t, testConfig())
	seedNetwork(t, n, 5, 25)
	topo := n.Topology()
	if topo.SuperComponents < 1 {
		t.Fatalf("components %d", topo.SuperComponents)
	}
	if topo.StrandedLeaves != 0 {
		t.Fatalf("stranded %d in a healthy net", topo.StrandedLeaves)
	}
	// Strand a leaf and recount.
	leaf := n.Peer(n.LeafIDs()[0])
	for _, id := range append([]msg.PeerID(nil), leaf.SuperLinks()...) {
		n.Disconnect(leaf, n.Peer(id))
	}
	topo = n.Topology()
	if topo.StrandedLeaves != 1 {
		t.Fatalf("stranded = %d, want 1", topo.StrandedLeaves)
	}
	if topo.UnderConnectedLeaves < 1 {
		t.Fatalf("under-connected = %d", topo.UnderConnectedLeaves)
	}
}

func TestTopologyDisconnectedBackbone(t *testing.T) {
	_, n := newNet(t, testConfig())
	// Two isolated supers.
	a := n.Join(10, 100, nil)
	b := n.Join(10, 100, nil)
	n.Promote(b)
	n.Disconnect(a, b)
	topo := n.Topology()
	if topo.SuperComponents != 2 {
		t.Fatalf("components = %d, want 2", topo.SuperComponents)
	}
}

func TestLayerString(t *testing.T) {
	if LayerLeaf.String() != "leaf" || LayerSuper.String() != "super" {
		t.Fatal("layer names wrong")
	}
	if Layer(9).String() != "layer(9)" {
		t.Fatal("unknown layer name wrong")
	}
}

func TestNopManagerAndObserverHooks(t *testing.T) {
	// Exercise the no-op implementations via a network that installs
	// both; behavior must be indistinguishable from no hooks at all.
	eng := sim.NewEngine(1)
	n := New(eng, testConfig(), NopManager{})
	n.Observe(NopObserver{})
	if n.Manager().Name() != "nop" {
		t.Fatalf("manager name %q", n.Manager().Name())
	}
	s := n.Join(10, 100, nil)
	leaf := n.Join(1, 10, nil)
	n.Promote(leaf)
	n.Demote(leaf)
	n.Tick()
	n.Manager().HandleMessage(n, s, &msg.Message{Kind: msg.KindPing})
	n.Leave(leaf)
	if bad := n.CheckInvariants(); len(bad) > 0 {
		t.Fatalf("invariants: %v", bad)
	}
	if n.Now() != eng.Now() {
		t.Fatal("Now mismatch")
	}
	if n.Rand() == nil {
		t.Fatal("nil rand")
	}
}

func TestDeferredReconnectLeavesOrphans(t *testing.T) {
	cfg := testConfig()
	cfg.DeferredReconnect = true
	eng := sim.NewEngine(2)
	n := New(eng, cfg, nil)
	seedNetwork(t, n, 4, 16)
	var victim *Peer
	for _, id := range n.SuperIDs() {
		if p := n.Peer(id); p.LeafDegree() > 0 {
			victim = p
			break
		}
	}
	orphans := append([]msg.PeerID(nil), victim.LeafLinks()...)
	n.Leave(victim)
	// Under deferred reconnect the orphans stay under-connected...
	under := 0
	for _, id := range orphans {
		if q := n.Peer(id); q != nil && q.SuperDegree() < cfg.M {
			under++
		}
	}
	if under == 0 {
		t.Fatal("no orphan left under-connected before repair")
	}
	// ...until Repair runs.
	n.Repair()
	for _, id := range orphans {
		if q := n.Peer(id); q != nil && q.SuperDegree() != cfg.M {
			t.Fatalf("repair left orphan %d at degree %d", id, q.SuperDegree())
		}
	}
	if bad := n.CheckInvariants(); len(bad) > 0 {
		t.Fatalf("invariants: %v", bad)
	}
}

func TestDeferredReconnectOnDemotion(t *testing.T) {
	cfg := testConfig()
	cfg.DeferredReconnect = true
	eng := sim.NewEngine(3)
	n := New(eng, cfg, nil)
	seedNetwork(t, n, 5, 20)
	var victim *Peer
	for _, id := range n.SuperIDs() {
		if p := n.Peer(id); p.LeafDegree() > 0 && p.SuperDegree() > 0 {
			victim = p
			break
		}
	}
	orphans := append([]msg.PeerID(nil), victim.LeafLinks()...)
	if !n.Demote(victim) {
		t.Fatal("demotion refused")
	}
	// PAO still counted even though reconnection is deferred.
	if n.Counters().DemotionDisconnects != uint64(len(orphans)) {
		t.Fatalf("PAO = %d, want %d", n.Counters().DemotionDisconnects, len(orphans))
	}
	n.Repair()
	if bad := n.CheckInvariants(); len(bad) > 0 {
		t.Fatalf("invariants: %v", bad)
	}
}
