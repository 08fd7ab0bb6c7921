package overlay

import (
	"math"
	"testing"

	"dlm/internal/msg"
	"dlm/internal/sim"
)

func testConfig() Config {
	return Config{M: 2, KS: 3, Eta: 10}
}

func newNet(t *testing.T, cfg Config) (*sim.Engine, *Network) {
	t.Helper()
	eng := sim.NewEngine(1)
	return eng, New(eng, cfg, nil)
}

func requireHealthy(t *testing.T, n *Network) {
	t.Helper()
	if bad := n.CheckInvariants(); len(bad) > 0 {
		t.Fatalf("invariant violations: %v", bad)
	}
}

func TestConfigValidate(t *testing.T) {
	good := testConfig()
	if err := good.Validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	bads := []Config{
		{M: 0, KS: 3, Eta: 10},
		{M: 2, KS: 0, Eta: 10},
		{M: 2, KS: 3, Eta: 0},
		{M: 2, KS: 3, Eta: math.NaN()},
		{M: 2, KS: 3, Eta: 10, MaxLeafDegree: -1},
		{M: 2, KS: 3, Eta: 10, Latency: -1},
	}
	for i, c := range bads {
		if err := c.Validate(); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
}

func TestConfigKL(t *testing.T) {
	c := Config{M: 2, KS: 3, Eta: 40}
	if c.KL() != 80 {
		t.Fatalf("KL = %v, want 80 (Equation a)", c.KL())
	}
}

func TestBootstrapFirstPeerIsSuper(t *testing.T) {
	_, n := newNet(t, testConfig())
	p := n.Join(10, 100, nil)
	if p.Layer != LayerSuper {
		t.Fatalf("first peer layer = %v, want super", p.Layer)
	}
	if n.NumSupers() != 1 || n.NumLeaves() != 0 {
		t.Fatalf("layer sizes %d/%d", n.NumSupers(), n.NumLeaves())
	}
	requireHealthy(t, n)
}

func TestJoinLeafConnectsToMSupers(t *testing.T) {
	_, n := newNet(t, testConfig())
	// Seed some supers.
	var supers []*Peer
	for i := 0; i < 5; i++ {
		p := n.Join(100, 1000, nil)
		n.Promote(p) // no-op for the bootstrap super, promotes the rest
		supers = append(supers, p)
	}
	if n.NumSupers() != 5 {
		t.Fatalf("supers = %d, want 5", n.NumSupers())
	}
	before := n.Counters().NewLeafConnections
	leaf := n.Join(1, 10, nil)
	if leaf.Layer != LayerLeaf || leaf.SuperDegree() != 2 {
		t.Fatalf("leaf layer=%v super degree=%d, want leaf with 2 links", leaf.Layer, leaf.SuperDegree())
	}
	if got := n.Counters().NewLeafConnections - before; got != 2 {
		t.Fatalf("NewLeafConnections delta = %d, want 2 (m)", got)
	}
	requireHealthy(t, n)
	_ = supers
}

// seedNetwork builds s supers and l leaves deterministically.
func seedNetwork(t *testing.T, n *Network, s, l int) {
	t.Helper()
	for i := 0; i < s; i++ {
		p := n.Join(100, 1000, nil)
		n.Promote(p)
	}
	if n.NumSupers() != s {
		t.Fatalf("seeded %d supers, want %d", n.NumSupers(), s)
	}
	for i := 0; i < l; i++ {
		n.Join(10, 100, nil)
	}
	if n.NumLeaves() != l {
		t.Fatalf("seeded %d leaves, want %d", n.NumLeaves(), l)
	}
}

func TestPromotionKeepsConnections(t *testing.T) {
	_, n := newNet(t, testConfig())
	seedNetwork(t, n, 4, 10)
	leafID := n.LeafIDs()[0]
	leaf := n.Peer(leafID)
	before := append([]msg.PeerID(nil), leaf.SuperLinks()...)
	promosBefore := n.Counters().Promotions

	n.Promote(leaf)
	if leaf.Layer != LayerSuper {
		t.Fatal("promotion did not change layer")
	}
	after := leaf.SuperLinks()
	if len(after) != len(before) {
		t.Fatalf("super links %d -> %d; promotion must keep connections", len(before), len(after))
	}
	for _, id := range before {
		q := n.Peer(id)
		if !q.superLinks.Contains(leaf.ID) {
			t.Fatalf("old super %d does not see promoted peer as super neighbor", id)
		}
		if q.leafLinks.Contains(leaf.ID) {
			t.Fatalf("old super %d still lists promoted peer as leaf", id)
		}
	}
	c := n.Counters()
	if c.Promotions != promosBefore+1 {
		t.Fatalf("promotions = %d, want %d", c.Promotions, promosBefore+1)
	}
	if c.DemotionDisconnects != 0 {
		t.Fatal("promotion must cause no PAO")
	}
	requireHealthy(t, n)
}

func TestDemotionSurgeryAndPAO(t *testing.T) {
	_, n := newNet(t, testConfig())
	seedNetwork(t, n, 6, 30)
	// Find a super with leaves.
	var victim *Peer
	for _, id := range n.SuperIDs() {
		if p := n.Peer(id); p.LeafDegree() > 0 && p.SuperDegree() > 0 {
			victim = p
			break
		}
	}
	if victim == nil {
		t.Fatal("no super with leaves found")
	}
	leaves := append([]msg.PeerID(nil), victim.LeafLinks()...)
	if !n.Demote(victim) {
		t.Fatal("demotion refused")
	}
	if victim.Layer != LayerLeaf {
		t.Fatal("layer unchanged")
	}
	if victim.LeafDegree() != 0 {
		t.Fatalf("demoted peer still has %d leaves", victim.LeafDegree())
	}
	if d := victim.SuperDegree(); d > n.Config().M {
		t.Fatalf("demoted peer keeps %d super links, want <= m=%d", d, n.Config().M)
	}
	c := n.Counters()
	if c.Demotions != 1 {
		t.Fatalf("demotions = %d", c.Demotions)
	}
	if c.DemotionDisconnects != uint64(len(leaves)) {
		t.Fatalf("PAO disconnects = %d, want %d", c.DemotionDisconnects, len(leaves))
	}
	// Every orphaned leaf reconnected back to m links.
	for _, id := range leaves {
		q := n.Peer(id)
		if q.SuperDegree() != n.Config().M {
			t.Fatalf("orphan %d has %d super links, want %d", id, q.SuperDegree(), n.Config().M)
		}
		if q.superLinks.Contains(victim.ID) {
			t.Fatalf("orphan %d reconnected to the demoted peer", id)
		}
	}
	requireHealthy(t, n)
}

func TestDemoteLastSuperRefused(t *testing.T) {
	_, n := newNet(t, testConfig())
	p := n.Join(10, 100, nil)
	if n.Demote(p) {
		t.Fatal("demoting the only super must be refused")
	}
	if p.Layer != LayerSuper {
		t.Fatal("refused demotion still changed layer")
	}
}

func TestLeaveReconnectsOrphans(t *testing.T) {
	_, n := newNet(t, testConfig())
	seedNetwork(t, n, 5, 20)
	var victim *Peer
	for _, id := range n.SuperIDs() {
		if p := n.Peer(id); p.LeafDegree() > 0 {
			victim = p
			break
		}
	}
	orphans := append([]msg.PeerID(nil), victim.LeafLinks()...)
	sizeBefore := n.Size()
	n.Leave(victim)
	if n.Size() != sizeBefore-1 {
		t.Fatalf("size %d, want %d", n.Size(), sizeBefore-1)
	}
	if n.Peer(victim.ID) != nil {
		t.Fatal("departed peer still resolvable")
	}
	for _, id := range orphans {
		q := n.Peer(id)
		if q == nil {
			continue
		}
		if q.SuperDegree() != n.Config().M {
			t.Fatalf("orphan %d degree %d after super death, want %d", id, q.SuperDegree(), n.Config().M)
		}
	}
	c := n.Counters()
	if c.ChurnReconnects == 0 {
		t.Fatal("churn reconnects not counted")
	}
	if c.DemotionDisconnects != 0 {
		t.Fatal("super death must not count as PAO")
	}
	requireHealthy(t, n)
	// Double leave is a no-op.
	n.Leave(victim)
	if n.Counters().Leaves != 1 {
		t.Fatal("double Leave counted twice")
	}
}

func TestLeafLeafLinkPanics(t *testing.T) {
	_, n := newNet(t, testConfig())
	seedNetwork(t, n, 2, 2)
	a := n.Peer(n.LeafIDs()[0])
	b := n.Peer(n.LeafIDs()[1])
	defer func() {
		if recover() == nil {
			t.Fatal("leaf-leaf link did not panic")
		}
	}()
	n.Connect(a, b)
}

func TestConnectRejectsDuplicatesAndSelf(t *testing.T) {
	_, n := newNet(t, testConfig())
	seedNetwork(t, n, 3, 1)
	leaf := n.Peer(n.LeafIDs()[0])
	s := n.Peer(leaf.SuperLinks()[0])
	if n.Connect(leaf, s) {
		t.Fatal("duplicate link accepted")
	}
	if n.Connect(leaf, leaf) {
		t.Fatal("self link accepted")
	}
	if n.Connect(nil, s) || n.Connect(leaf, nil) {
		t.Fatal("nil link accepted")
	}
}

func TestMaxLeafDegreeCap(t *testing.T) {
	cfg := testConfig()
	cfg.MaxLeafDegree = 3
	_, n := newNet(t, cfg)
	// Two supers; m=2 means every leaf wants both of them.
	seedNetwork(t, n, 2, 0)
	for i := 0; i < 10; i++ {
		n.Join(1, 10, nil)
	}
	for _, id := range n.SuperIDs() {
		if d := n.Peer(id).LeafDegree(); d > 3 {
			t.Fatalf("super %d leaf degree %d exceeds cap", id, d)
		}
	}
	requireHealthy(t, n)
}

func TestRepairRestoresDegrees(t *testing.T) {
	_, n := newNet(t, testConfig())
	seedNetwork(t, n, 6, 12)
	leaf := n.Peer(n.LeafIDs()[0])
	s := n.Peer(leaf.SuperLinks()[0])
	n.Disconnect(leaf, s)
	if leaf.SuperDegree() != n.Config().M-1 {
		t.Fatalf("degree after disconnect = %d", leaf.SuperDegree())
	}
	n.Repair()
	if leaf.SuperDegree() != n.Config().M {
		t.Fatalf("repair left degree %d", leaf.SuperDegree())
	}
	if n.Counters().RepairConnections == 0 {
		t.Fatal("repair connections not counted")
	}
	requireHealthy(t, n)
}

func TestSendDeliversAndCountsTraffic(t *testing.T) {
	_, n := newNet(t, testConfig())
	seedNetwork(t, n, 2, 1)
	leaf := n.Peer(n.LeafIDs()[0])
	s := n.Peer(leaf.SuperLinks()[0])

	var got []msg.Kind
	n.Handle(msg.KindPing, func(_ *Network, to *Peer, m *msg.Message) {
		if to.ID != m.To {
			t.Errorf("delivered to %d, addressed to %d", to.ID, m.To)
		}
		got = append(got, m.Kind)
	})
	n.Send(msg.Message{Kind: msg.KindPing, From: leaf.ID, To: s.ID})
	if len(got) != 1 {
		t.Fatalf("delivered %d messages, want 1", len(got))
	}
	tr := n.Traffic()
	if tr.Count(msg.KindPing) != 1 {
		t.Fatalf("traffic count = %d", tr.Count(msg.KindPing))
	}
	// Message to a dead peer is counted but dropped.
	n.Leave(s)
	n.Send(msg.Message{Kind: msg.KindPing, From: leaf.ID, To: s.ID})
	if len(got) != 1 {
		t.Fatal("message to dead peer was delivered")
	}
	if n.Traffic().Count(msg.KindPing) != 2 {
		t.Fatal("message to dead peer not counted")
	}
}

func TestSendWithLatency(t *testing.T) {
	cfg := testConfig()
	cfg.Latency = 0.5
	eng := sim.NewEngine(1)
	n := New(eng, cfg, nil)
	seedNetwork(t, n, 2, 1)
	leaf := n.Peer(n.LeafIDs()[0])
	s := n.Peer(leaf.SuperLinks()[0])
	var deliveredAt sim.Time
	n.Handle(msg.KindPing, func(_ *Network, _ *Peer, _ *msg.Message) {
		deliveredAt = eng.Now()
	})
	n.Send(msg.Message{Kind: msg.KindPing, From: leaf.ID, To: s.ID})
	if deliveredAt != 0 {
		t.Fatal("latency message delivered synchronously")
	}
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if deliveredAt != 0.5 {
		t.Fatalf("delivered at %v, want 0.5", deliveredAt)
	}
}

func TestRandomSelection(t *testing.T) {
	_, n := newNet(t, testConfig())
	if n.RandomPeer() != nil {
		t.Fatal("empty network returned a peer")
	}
	seedNetwork(t, n, 3, 9)
	counts := map[Layer]int{}
	for i := 0; i < 1000; i++ {
		counts[n.RandomPeer().Layer]++
	}
	if counts[LayerSuper] == 0 || counts[LayerLeaf] == 0 {
		t.Fatalf("random peer never hit one layer: %v", counts)
	}
	// Roughly proportional: 3/12 supers.
	frac := float64(counts[LayerSuper]) / 1000
	if frac < 0.15 || frac > 0.35 {
		t.Errorf("super fraction %.3f, want near 0.25", frac)
	}
}

func TestRatioAndSnapshot(t *testing.T) {
	eng, n := newNet(t, testConfig())
	if !math.IsInf(n.Ratio(), 1) {
		t.Fatal("empty network ratio should be +Inf")
	}
	seedNetwork(t, n, 2, 8)
	if n.Ratio() != 4 {
		t.Fatalf("ratio = %v, want 4", n.Ratio())
	}
	eng.AfterFunc(10, func(*sim.Engine) {})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	snap := n.Snapshot()
	if snap.NumSupers != 2 || snap.NumLeaves != 8 {
		t.Fatalf("snapshot sizes %d/%d", snap.NumSupers, snap.NumLeaves)
	}
	if snap.AvgAgeSuper != 10 || snap.AvgAgeLeaf != 10 {
		t.Fatalf("snapshot ages %v/%v, want 10", snap.AvgAgeSuper, snap.AvgAgeLeaf)
	}
	if snap.AvgCapSuper != 100 || snap.AvgCapLeaf != 10 {
		t.Fatalf("snapshot capacities %v/%v", snap.AvgCapSuper, snap.AvgCapLeaf)
	}
	if snap.AvgSuperDegreeOfLeaves != 2 {
		t.Fatalf("avg leaf->super degree %v, want m=2", snap.AvgSuperDegreeOfLeaves)
	}
	// Total leaf degree of supers equals total super degree of leaves.
	totLnn := snap.AvgLeafDegree * float64(snap.NumSupers)
	totMsl := snap.AvgSuperDegreeOfLeaves * float64(snap.NumLeaves)
	if math.Abs(totLnn-totMsl) > 1e-9 {
		t.Fatalf("degree bookkeeping: %v vs %v", totLnn, totMsl)
	}
}

func TestPAOOverNLCO(t *testing.T) {
	c := Counters{DemotionDisconnects: 5, NewLeafConnections: 100}
	if got := c.PAOOverNLCO(); got != 5 {
		t.Fatalf("PAO/NLCO = %v, want 5%%", got)
	}
	if (Counters{}).PAOOverNLCO() != 0 {
		t.Fatal("empty counters should report 0")
	}
}

func TestHandleInvalidKindPanics(t *testing.T) {
	_, n := newNet(t, testConfig())
	defer func() {
		if recover() == nil {
			t.Fatal("registering handler for invalid kind did not panic")
		}
	}()
	n.Handle(msg.KindInvalid, func(*Network, *Peer, *msg.Message) {})
}

func TestResetCounters(t *testing.T) {
	_, n := newNet(t, testConfig())
	seedNetwork(t, n, 2, 4)
	if n.Counters().Joins == 0 {
		t.Fatal("expected join counts")
	}
	n.ResetCounters()
	if n.Counters() != (Counters{}) {
		t.Fatal("counters not reset")
	}
}
