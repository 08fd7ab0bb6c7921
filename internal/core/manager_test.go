package core

import (
	"math"
	"testing"

	"dlm/internal/msg"
	"dlm/internal/overlay"
	"dlm/internal/protocol"
	"dlm/internal/sim"
	"dlm/internal/workload"
)

func testNetwork(seed int64, p Params) (*sim.Engine, *overlay.Network, *Manager) {
	eng := sim.NewEngine(seed)
	mgr := NewManager(p)
	n := overlay.New(eng, overlay.Config{M: 2, KS: 3, Eta: 10}, mgr)
	return eng, n, mgr
}

func TestEventDrivenExchangeOnConnect(t *testing.T) {
	_, n, mgr := testNetwork(1, DefaultParams())
	s := n.Join(100, 1000, nil) // bootstrap super
	leaf := n.Join(10, 100, nil)
	if leaf.Layer != overlay.LayerLeaf {
		t.Fatal("second join should be a leaf under DLM")
	}
	tr := n.Traffic()
	// Connect triggers two frames: the super's Value frame (its values
	// and l_nn) and the leaf's; no request and no NeighNum pair.
	if tr.Count(msg.KindNeighNumRequest) != 0 || tr.Count(msg.KindNeighNumResponse) != 0 {
		t.Fatalf("neigh-num pair counts: %d/%d, want none",
			tr.Count(msg.KindNeighNumRequest), tr.Count(msg.KindNeighNumResponse))
	}
	if tr.Count(msg.KindValueRequest) != 0 || tr.Count(msg.KindValueResponse) != 2 {
		t.Fatalf("value frame counts: %d requests/%d frames, want 0/2",
			tr.Count(msg.KindValueRequest), tr.Count(msg.KindValueResponse))
	}
	// Both endpoints recorded each other.
	lst := mgr.state(leaf)
	sst := mgr.state(s)
	if !lst.Has(s.ID) {
		t.Fatal("leaf did not record super's values")
	}
	if !sst.Has(leaf.ID) {
		t.Fatal("super did not record leaf's values")
	}
	if lnn, _, ok := lst.LnnReport(s.ID); !ok || lnn != 1 {
		t.Fatalf("leaf lnn report = %d,%v, want lnn=1", lnn, ok)
	}
}

func TestSuperSuperConnectNoExchange(t *testing.T) {
	_, n, _ := testNetwork(1, DefaultParams())
	a := n.Join(100, 1000, nil)
	b := n.Join(100, 1000, nil)
	n.Promote(b)
	before := n.Traffic()
	n.Connect(a, b)
	after := n.Traffic()
	if after.DLMMessages() != before.DLMMessages() {
		t.Fatal("super-super link triggered DLM exchange")
	}
}

func TestPeriodicPolicySkipsConnectExchange(t *testing.T) {
	p := DefaultParams()
	p.Exchange = protocol.Periodic
	p.PeriodicInterval = 5
	eng, n, _ := testNetwork(1, p)
	n.Join(100, 1000, nil)
	n.Join(10, 100, nil)
	tr := n.Traffic()
	if tr.DLMMessages() != 0 {
		t.Fatalf("periodic policy exchanged on connect: %d msgs", tr.DLMMessages())
	}
	// Tick at a period boundary triggers the exchange.
	eng.AfterFunc(5, func(*sim.Engine) { n.Tick() })
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if n.Traffic().DLMMessages() == 0 {
		t.Fatal("periodic exchange did not fire at boundary")
	}
}

func TestValueResponseRaceDropped(t *testing.T) {
	_, n, mgr := testNetwork(1, DefaultParams())
	s := n.Join(100, 1000, nil)
	leaf := n.Join(10, 100, nil)
	// A stale ValueResponse from a leaf no longer linked must be ignored
	// by the super.
	stranger := n.Join(10, 100, nil)
	n.Disconnect(stranger, s)
	st := mgr.state(s)
	st.Drop(stranger.ID)
	sizeBefore := st.Size()
	stale := msg.ValueResponse(stranger.ID, s.ID, 5, 5)
	mgr.HandleMessage(n, s, &stale)
	if st.Size() != sizeBefore {
		t.Fatal("super recorded value from unlinked peer")
	}
	_ = leaf
}

func TestPromotionResetsStateAndOldSupersForget(t *testing.T) {
	_, n, mgr := testNetwork(1, DefaultParams())
	n.Join(100, 1000, nil)
	leaf := n.Join(50, 500, nil)
	sup := n.Peer(leaf.SuperLinks()[0])
	if !mgr.state(sup).Has(leaf.ID) {
		t.Fatal("precondition: super knows leaf")
	}
	n.Promote(leaf)
	if mgr.state(sup).Has(leaf.ID) {
		t.Fatal("old super still has promoted peer in G")
	}
	st := mgr.state(leaf)
	if _, _, ok := st.LnnReport(sup.ID); st.Size() != 0 || ok {
		t.Fatal("promotion did not reset state")
	}
}

func TestDemotionTriggersReExchange(t *testing.T) {
	_, n, mgr := testNetwork(1, DefaultParams())
	// Three supers so demotion is allowed and the demoted peer keeps
	// super links.
	a := n.Join(100, 1000, nil)
	b := n.Join(100, 1000, nil)
	c := n.Join(100, 1000, nil)
	n.Promote(b)
	n.Promote(c)
	n.Connect(a, b)
	n.Connect(b, c)
	n.Connect(a, c)
	before := n.Traffic()
	if !n.Demote(c) {
		t.Fatal("demotion refused")
	}
	after := n.Traffic()
	if after.DLMMessages() <= before.DLMMessages() {
		t.Fatal("demotion did not re-exchange with kept supers")
	}
	// The kept supers now see c as a leaf in their G.
	foundInG := false
	for _, id := range c.SuperLinks() {
		q := n.Peer(id)
		if mgr.state(q).Has(c.ID) {
			foundInG = true
		}
	}
	if !foundInG {
		t.Fatal("no kept super recorded the demoted peer's values")
	}
}

// TestLostLinksFollowGRules pins what a lost leaf-super link does to the
// two related sets: a leaf keeps a departed or demoted super in G(l) —
// paper Phase 3 defines G(l) as the supers contacted since join, pruned
// only by LeafWindow at decision time — while a super forgets a departed
// leaf, since G(s) is its current leaves.
func TestLostLinksFollowGRules(t *testing.T) {
	// build returns a leaf linked to two of three meshed supers, both in
	// its G(l) and each holding it in G(s).
	build := func(t *testing.T) (*overlay.Network, *Manager, *overlay.Peer) {
		_, n, mgr := testNetwork(1, DefaultParams())
		a, b, c := n.Join(100, 1000, nil), n.Join(100, 1000, nil), n.Join(100, 1000, nil)
		n.Promote(b)
		n.Promote(c)
		n.Connect(a, b)
		n.Connect(b, c)
		n.Connect(a, c)
		leaf := n.Join(10, 100, nil)
		if len(leaf.SuperLinks()) != 2 {
			t.Fatalf("precondition: leaf has %d supers, want 2", len(leaf.SuperLinks()))
		}
		for _, id := range leaf.SuperLinks() {
			if !mgr.state(leaf).Has(id) || !mgr.state(n.Peer(id)).Has(leaf.ID) {
				t.Fatalf("precondition: leaf %d and super %d do not know each other", leaf.ID, id)
			}
		}
		return n, mgr, leaf
	}

	t.Run("super-departs", func(t *testing.T) {
		n, mgr, leaf := build(t)
		super := n.Peer(leaf.SuperLinks()[0])
		n.Leave(super)
		if !mgr.state(leaf).Has(super.ID) {
			t.Fatal("leaf forgot departed super")
		}
	})
	t.Run("super-demoted", func(t *testing.T) {
		n, mgr, leaf := build(t)
		super := n.Peer(leaf.SuperLinks()[0])
		if !n.Demote(super) {
			t.Fatal("demotion refused")
		}
		if !mgr.state(leaf).Has(super.ID) {
			t.Fatal("leaf forgot demoted super")
		}
	})
	t.Run("leaf-departs", func(t *testing.T) {
		n, mgr, leaf := build(t)
		supers := append([]msg.PeerID(nil), leaf.SuperLinks()...)
		n.Leave(leaf)
		for _, id := range supers {
			if mgr.state(n.Peer(id)).Has(leaf.ID) {
				t.Fatalf("super %d kept departed leaf", id)
			}
		}
	})
}

// runScenario drives a DLM-managed churning network and returns it with
// its final snapshot.
func runScenario(t *testing.T, seed int64, p Params, eta float64, size int, until sim.Time) (*overlay.Network, overlay.LayerStats) {
	t.Helper()
	eng := sim.NewEngine(seed)
	n := overlay.New(eng, overlay.Config{M: 2, KS: 3, Eta: eta}, NewManager(p))
	churn := &overlay.Churn{
		Net: n,
		Profile: &workload.StaticProfile{
			Capacity: workload.SaroiuBandwidthMixture(),
			Lifetime: workload.LognormalWithMedian(60, 1.2),
		},
		TargetSize: size,
		GrowthRate: size / 4,
	}
	churn.Start()
	eng.Ticker(1, func(e *sim.Engine) bool {
		n.Tick()
		return e.Now() < until
	})
	if err := eng.RunUntil(until); err != nil {
		t.Fatal(err)
	}
	if bad := n.CheckInvariants(); len(bad) > 0 {
		t.Fatalf("invariants: %v", bad[:minInt(len(bad), 5)])
	}
	return n, n.Snapshot()
}

func TestDLMConvergesToTargetRatio(t *testing.T) {
	// The window must cover the cold-start overshoot plus one demotion
	// cooldown (100 units) for the trim phase to complete.
	n, snap := runScenario(t, 42, DefaultParams(), 10, 800, 400)
	if n.Counters().Promotions == 0 {
		t.Fatal("no promotions happened")
	}
	ratio := snap.Ratio
	if math.IsInf(ratio, 0) || ratio < 5 || ratio > 20 {
		t.Fatalf("ratio = %v, want near eta=10 (supers=%d leaves=%d)",
			ratio, snap.NumSupers, snap.NumLeaves)
	}
}

func TestDLMSeparatesCapacityAndAge(t *testing.T) {
	_, snap := runScenario(t, 7, DefaultParams(), 10, 800, 200)
	if snap.AvgCapSuper <= snap.AvgCapLeaf {
		t.Fatalf("capacity separation failed: super %.1f vs leaf %.1f",
			snap.AvgCapSuper, snap.AvgCapLeaf)
	}
	if snap.AvgAgeSuper <= snap.AvgAgeLeaf {
		t.Fatalf("age separation failed: super %.1f vs leaf %.1f",
			snap.AvgAgeSuper, snap.AvgAgeLeaf)
	}
}

func TestDLMDeterministic(t *testing.T) {
	p := DefaultParams()
	n1, snap1 := runScenario(t, 99, p, 10, 300, 80)
	n2, snap2 := runScenario(t, 99, p, 10, 300, 80)
	if snap1 != snap2 {
		t.Fatalf("snapshots diverged:\n%+v\n%+v", snap1, snap2)
	}
	if c1, c2 := n1.Counters(), n2.Counters(); c1.Promotions != c2.Promotions || c1.Demotions != c2.Demotions {
		t.Fatal("decision counts diverged")
	}
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func TestPeriodicPolicyMaintainsRatio(t *testing.T) {
	p := DefaultParams()
	p.Exchange = protocol.Periodic
	p.PeriodicInterval = 5
	p.RefreshInterval = 0
	n, snap := runScenario(t, 4, p, 10, 600, 300)
	if n.Counters().Promotions == 0 {
		t.Fatal("no promotions under the periodic policy")
	}
	if snap.Ratio < 4 || snap.Ratio > 25 {
		t.Fatalf("periodic policy ratio %v, want near 10", snap.Ratio)
	}
}

// TestFirstRefreshOneIntervalAfterJoin pins where the simulator starts a
// leaf's refresh clock: at its join, not at time 0. A leaf that joins past
// the first RefreshInterval has just been told its super's l_nn by the
// connect exchange, which sends no NeighNumRequest, so no NeighNumRequest
// goes out for one interval; then the leaf refreshes on time, one per
// super link. The leaf is the only peer that refreshes (the other is the
// bootstrap super), so the overlay's traffic counters see its requests
// alone.
func TestFirstRefreshOneIntervalAfterJoin(t *testing.T) {
	p := DefaultParams()
	eng, n, mgr := testNetwork(1, p)
	super := n.Join(100, 1e6, nil) // bootstrap super
	requests := func() uint64 { return n.Traffic().Count(msg.KindNeighNumRequest) }
	joinAt := sim.Time(p.RefreshInterval) + 15
	due := joinAt + sim.Time(p.RefreshInterval)
	var leaf *overlay.Peer
	eng.Ticker(1, func(e *sim.Engine) bool {
		now := e.Now()
		if now == joinAt {
			leaf = n.Join(10, 1e6, nil)
		}
		n.Tick()
		if now < due && requests() != 0 {
			t.Errorf("t=%v: %d NeighNumRequests before %v, one interval after the leaf joined at %v",
				now, requests(), due, joinAt)
			return false
		}
		return now < due
	})
	if err := eng.RunUntil(due); err != nil {
		t.Fatal(err)
	}
	if leaf == nil || leaf.Layer != overlay.LayerLeaf || leaf.SuperDegree() != 1 {
		t.Fatalf("setup: leaf %v", leaf)
	}
	if lnn, _, ok := mgr.state(leaf).LnnReport(super.ID); !ok || lnn != 1 {
		t.Fatalf("setup: the connect exchange left the leaf l_nn report %d, %v; want 1", lnn, ok)
	}
	if got, want := requests(), uint64(leaf.SuperDegree()); !t.Failed() && got != want {
		t.Fatalf("at %v the leaf sent %d NeighNumRequests, want its first refresh (%d, one per super link)", due, got, want)
	}
}

// TestRefreshNeverOverdue pins the collect phase's refresh obligation:
// after every tick of a churning run with promotions and demotions, no
// live leaf's refresh is still due, and — the transport being instant
// and lossless — the l_nn report it holds from each current super link
// is younger than RefreshInterval. A leaf the scan fails to list (a join
// or a demotion missed) fails the first check at the tick it fell due; a
// listed leaf whose refresh never departs (a lane's list dropped before
// the sends) fails the second. Peers whose role changed at this very
// instant are exempt: the decision phase runs after collect, so a leaf
// demoted in this tick refreshes at the next one. Due-ness is read on a
// copy of the machine, because RefreshDue stamps the machine it runs on.
func TestRefreshNeverOverdue(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		p := DefaultParams()
		eng, n, mgr := testNetwork(seed, p)
		churn := &overlay.Churn{
			Net: n,
			Profile: &workload.StaticProfile{
				Capacity: workload.SaroiuBandwidthMixture(),
				Lifetime: workload.LognormalWithMedian(60, 1.2),
			},
			TargetSize: 400,
			GrowthRate: 100,
		}
		churn.Start()
		until := sim.Time(5 * p.RefreshInterval)
		stamped := 0
		eng.Ticker(1, func(e *sim.Engine) bool {
			n.Tick()
			now := protocol.Time(e.Now())
			n.WalkPeers(func(leaf *overlay.Peer) {
				if leaf.Layer != overlay.LayerLeaf {
					return
				}
				lm := mgr.state(leaf)
				if lm.LastChange() == now {
					return
				}
				if c := *lm; c.RefreshDue(now) {
					t.Errorf("seed %d t=%v: leaf %d (role since %v) has a refresh due after the tick",
						seed, now, leaf.ID, lm.LastChange())
				} else if now-lm.LastChange() >= p.RefreshInterval {
					// Never stamped, a leaf one interval past its role
					// change would be due: it refreshed.
					stamped++
				}
				for _, sid := range leaf.SuperLinks() {
					if _, when, ok := lm.LnnReport(sid); !ok || now-when >= p.RefreshInterval {
						t.Errorf("seed %d t=%v: leaf %d holds l_nn of super %d from %v (held %v), interval %v",
							seed, now, leaf.ID, sid, when, ok, p.RefreshInterval)
					}
				}
			})
			return !t.Failed() && e.Now() < until
		})
		if err := eng.RunUntil(until); err != nil {
			t.Fatal(err)
		}
		if c := n.Counters(); c.Promotions == 0 || c.Demotions == 0 || c.Leaves == 0 || stamped == 0 {
			t.Fatalf("seed %d: run is vacuous: %d promotions, %d demotions, %d departures, %d refreshed-leaf checks",
				seed, c.Promotions, c.Demotions, c.Leaves, stamped)
		}
	}
}
