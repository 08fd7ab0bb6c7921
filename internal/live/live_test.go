package live

import (
	"fmt"
	"slices"
	"testing"
	"time"

	"dlm/internal/msg"
	"dlm/internal/overlay"
	"dlm/internal/protocol"
)

func TestLiveBootstrapAndRoles(t *testing.T) {
	n := NewNet(Config{Eta: 5, Unit: 2 * time.Millisecond, Seed: 1})
	defer n.Stop()
	first := n.Join(100, nil)
	if first.Layer() != overlay.LayerSuper {
		t.Fatal("first peer must bootstrap the super-layer")
	}
	second := n.Join(10, nil)
	if second.Layer() != overlay.LayerLeaf {
		t.Fatal("second peer should join as leaf")
	}
	// The leaf connects and the exchange flows: each side pushes its
	// Value frame, the super's carrying l_nn.
	deadline := time.After(2 * time.Second)
	for n.Messages(msg.KindValueResponse) < 2 {
		select {
		case <-deadline:
			t.Fatalf("exchange did not complete: %d Value frames",
				n.Messages(msg.KindValueResponse))
		case <-time.After(5 * time.Millisecond):
		}
	}
	s := n.Snapshot()
	if s.NumSupers != 1 || s.NumLeaves != 1 {
		t.Fatalf("layers %d/%d", s.NumSupers, s.NumLeaves)
	}
}

func TestLivePromotionEmergesUnderLoad(t *testing.T) {
	params := func() Config {
		c := Config{Eta: 8, Unit: 2 * time.Millisecond, Seed: 7}
		c.defaults()
		// Speed the protocol up for the test: no demotion hold, quick
		// decisions.
		c.Params.DecisionCooldown = 3
		c.Params.DemotionCooldown = 20
		c.Params.EvalProbability = 0.5
		return c
	}()
	n := NewNet(params)
	defer n.Stop()
	for i := 0; i < 120; i++ {
		n.Join(float64(1+i%100), nil)
	}
	// With 120 peers and eta=8 the network needs ~13 supers; wait for
	// promotions to bring the ratio into a sane band.
	deadline := time.Now().Add(8 * time.Second)
	var s overlay.LayerStats
	for time.Now().Before(deadline) {
		s = n.Snapshot()
		if s.NumSupers >= 8 && s.Ratio > 3 && s.Ratio < 20 {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	if s.NumSupers < 8 || s.Ratio <= 3 || s.Ratio >= 20 {
		t.Fatalf("ratio did not stabilize: %+v", s)
	}
	// The DLM message plane was exercised: every new leaf-super link
	// pushes Value frames (a NeighNumRequest waits for the first refresh,
	// which a quick convergence may precede).
	if n.Messages(msg.KindValueResponse) == 0 {
		t.Fatal("no DLM traffic observed")
	}
}

func TestLiveChurnAndLeave(t *testing.T) {
	n := NewNet(Config{Eta: 5, Unit: 2 * time.Millisecond, Seed: 3})
	defer n.Stop()
	peers := make([]*Peer, 0, 60)
	for i := 0; i < 60; i++ {
		peers = append(peers, n.Join(float64(i+1), nil))
	}
	time.Sleep(100 * time.Millisecond)
	// Remove half, including (maybe) supers; the network must stay
	// functional.
	for i := 0; i < 30; i++ {
		n.Leave(peers[i])
	}
	// Double leave is a no-op.
	n.Leave(peers[0])
	time.Sleep(200 * time.Millisecond)
	s := n.Snapshot()
	if s.NumSupers+s.NumLeaves != 30 {
		t.Fatalf("population %d, want 30", s.NumSupers+s.NumLeaves)
	}
	if s.NumSupers == 0 {
		t.Fatal("super-layer died")
	}
}

func TestLiveStopTerminatesGoroutines(t *testing.T) {
	n := NewNet(Config{Unit: time.Millisecond, Seed: 9})
	for i := 0; i < 40; i++ {
		n.Join(float64(i), nil)
	}
	done := make(chan struct{})
	go func() {
		n.Stop()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Stop did not terminate")
	}
	if p := n.Join(1, nil); p != nil {
		t.Fatal("join after Stop should return nil")
	}
}

func TestLiveMessageAccounting(t *testing.T) {
	n := NewNet(Config{Unit: 2 * time.Millisecond, Seed: 4})
	defer n.Stop()
	n.Join(50, nil)
	n.Join(5, nil)
	time.Sleep(100 * time.Millisecond)
	total := uint64(0)
	for k := msg.Kind(1); int(k) < msg.NumKinds; k++ {
		total += n.Messages(k)
	}
	if total == 0 {
		t.Fatal("no messages accounted")
	}
	if n.Messages(msg.Kind(99)) != 0 {
		t.Fatal("invalid kind should read zero")
	}
}

func TestLiveSearchFindsContent(t *testing.T) {
	n := NewNet(Config{Eta: 5, Unit: 2 * time.Millisecond, Seed: 21})
	defer n.Stop()
	n.Join(100, nil) // bootstrap super
	provider := n.Join(10, []msg.ObjectID{42, 43})
	asker := n.Join(10, nil)
	// Give the exchange and index a moment.
	time.Sleep(100 * time.Millisecond)

	res := n.Query(asker, 42, 4, 300*time.Millisecond)
	if !res.Found {
		t.Fatalf("live search missed object 42: %+v", res)
	}
	miss := n.Query(asker, 9999, 4, 150*time.Millisecond)
	if miss.Found {
		t.Fatalf("phantom hit: %+v", miss)
	}
	_ = provider
}

func TestLiveSearchAcrossSupers(t *testing.T) {
	n := NewNet(Config{Eta: 4, Unit: 2 * time.Millisecond, Seed: 22})
	defer n.Stop()
	// Build a population with several supers by letting DLM work.
	for i := 0; i < 60; i++ {
		n.Join(float64(1+i), []msg.ObjectID{msg.ObjectID(i)})
	}
	deadline := time.Now().Add(6 * time.Second)
	for time.Now().Before(deadline) {
		if s := n.Snapshot(); s.NumSupers >= 4 {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	if s := n.Snapshot(); s.NumSupers < 4 {
		t.Skipf("super-layer too small for a cross-super search: %+v", s)
	}
	time.Sleep(100 * time.Millisecond)

	// Query for many objects from one peer; most should be reachable
	// through the flood even when indexed at other supers.
	asker := n.Join(5, nil)
	time.Sleep(50 * time.Millisecond)
	found := 0
	for i := 0; i < 10; i++ {
		if n.Query(asker, msg.ObjectID(i*5), 6, 200*time.Millisecond).Found {
			found++
		}
	}
	if found < 5 {
		t.Fatalf("only %d/10 objects found across the live super-layer", found)
	}
	if n.Messages(msg.KindQuery) == 0 || n.Messages(msg.KindQueryHit) == 0 {
		t.Fatal("no search traffic on the message plane")
	}
}

// TestLiveIndexFollowsLeaveAndDemote checks that a super answers for a
// leaf's content exactly while the leaf is linked to it, across each layer
// surgery: the provider leaving, a super that lists it being demoted, and
// the provider itself being promoted. Hits counts the supers that answer.
func TestLiveIndexFollowsLeaveAndDemote(t *testing.T) {
	t.Run("leave", func(t *testing.T) {
		n := NewNet(Config{Eta: 5, Unit: 2 * time.Millisecond, Seed: 23})
		defer n.Stop()
		n.Join(100, nil)
		provider := n.Join(10, []msg.ObjectID{7})
		asker := n.Join(10, nil)
		time.Sleep(80 * time.Millisecond)
		if !n.Query(asker, 7, 3, 200*time.Millisecond).Found {
			t.Fatal("precondition: object reachable")
		}
		n.Leave(provider)
		time.Sleep(50 * time.Millisecond)
		if n.Query(asker, 7, 3, 200*time.Millisecond).Found {
			t.Fatal("departed provider's content still indexed")
		}
	})

	// The surgery cases drive promote and demote directly. A decision
	// cooldown longer than the test keeps DLM from switching anyone else,
	// so three supers (a full mesh) stay three, and the provider and the
	// asker each keep M = 2 of them.
	build := func(t *testing.T) (n *Net, provider, asker *Peer) {
		cfg := Config{Eta: 5, Unit: 2 * time.Millisecond, Seed: 24}
		cfg.defaults()
		cfg.Params.DecisionCooldown = 1e9
		n = NewNet(cfg)
		t.Cleanup(n.Stop)
		n.Join(100, nil)
		for _, c := range []float64{90, 80} {
			n.Join(c, nil).promote(n.nowUnits())
		}
		provider = n.Join(10, []msg.ObjectID{7})
		asker = n.Join(10, nil)
		time.Sleep(80 * time.Millisecond)
		return n, provider, asker
	}
	// hosts lists the supers that hold p as a leaf.
	hosts := func(n *Net, p *Peer) []*Peer {
		n.mu.Lock()
		supers := slices.Clone(n.supers.IDs())
		n.mu.Unlock()
		var out []*Peer
		for _, id := range supers {
			s := n.peer(id)
			s.mu.Lock()
			if s.leaves.Contains(p.ID) {
				out = append(out, s)
			}
			s.mu.Unlock()
		}
		return out
	}
	hits := func(n *Net, asker *Peer) int {
		return n.Query(asker, 7, 3, 200*time.Millisecond).Hits
	}

	t.Run("demote", func(t *testing.T) {
		n, provider, asker := build(t)
		before := hosts(n, provider)
		if h := hits(n, asker); len(before) != 2 || h != 2 {
			t.Fatalf("precondition: %d hosts, %d answering, want 2 and 2", len(before), h)
		}
		victim := before[0]
		victim.demote(n.nowUnits())
		time.Sleep(80 * time.Millisecond)
		after := hosts(n, provider)
		for _, s := range after {
			if s == victim {
				t.Fatal("the demoted super still lists the provider")
			}
		}
		if len(after) != 2 {
			t.Fatalf("provider repaired to %d supers, want 2", len(after))
		}
		if got := hits(n, asker); got != 2 {
			t.Fatalf("%d supers answered after the demotion, want the provider's 2 repaired links", got)
		}
	})

	t.Run("promote", func(t *testing.T) {
		n, provider, asker := build(t)
		if h := hits(n, asker); h != 2 {
			t.Fatalf("precondition: %d supers answered, want 2", h)
		}
		provider.promote(n.nowUnits())
		time.Sleep(50 * time.Millisecond)
		if h := hosts(n, provider); len(h) != 0 {
			t.Fatalf("%d supers still list the promoted provider as a leaf", len(h))
		}
		if got := hits(n, asker); got != 1 {
			t.Fatalf("%d supers answered after the promotion, want the provider alone", got)
		}
	})
}

// TestLiveLostLinksFollowGRules is the goroutine plane's half of core's
// TestLostLinksFollowGRules: a leaf keeps a departed or demoted super in
// G(l), a super forgets a departed leaf. The network runs in manual mode
// and drains every inbox, so each exchange has completed when it is read.
func TestLiveLostLinksFollowGRules(t *testing.T) {
	// build returns a leaf linked to two of three supers, both in its
	// G(l) and each holding it in G(s). Join's random picks may repeat a
	// super, so the leaf's second link is made by hand.
	build := func(t *testing.T) (*Net, *Peer) {
		n := NewNet(Config{M: 2, KS: 3, Eta: 5, Seed: 3})
		t.Cleanup(n.Stop)
		n.manual = true
		peers := []*Peer{n.Join(100, nil), n.Join(90, nil), n.Join(80, nil)}
		for _, p := range peers[1:] {
			p.promote(n.nowUnits())
		}
		leaf := n.Join(10, nil)
		for _, q := range peers {
			if leaf.supers.Len() < 2 {
				leaf.connect(q)
			}
		}
		drainAll(append(peers, leaf))
		if leaf.supers.Len() != 2 {
			t.Fatalf("precondition: leaf has %d supers, want 2", leaf.supers.Len())
		}
		for _, id := range leaf.supers.IDs() {
			if !leaf.mach.Has(id) || !n.peer(id).mach.Has(leaf.ID) {
				t.Fatalf("precondition: leaf %d and super %d do not know each other", leaf.ID, id)
			}
		}
		return n, leaf
	}
	anySuper := func(n *Net, leaf *Peer) *Peer { return n.peer(leaf.supers.IDs()[0]) }

	t.Run("super-departs", func(t *testing.T) {
		n, leaf := build(t)
		super := anySuper(n, leaf)
		n.Leave(super)
		if !leaf.mach.Has(super.ID) {
			t.Fatal("leaf forgot departed super")
		}
	})
	t.Run("super-demoted", func(t *testing.T) {
		n, leaf := build(t)
		super := anySuper(n, leaf)
		super.demote(n.nowUnits())
		if super.Layer() != overlay.LayerLeaf {
			t.Fatal("demotion refused")
		}
		if !leaf.mach.Has(super.ID) {
			t.Fatal("leaf forgot demoted super")
		}
	})
	t.Run("leaf-departs", func(t *testing.T) {
		n, leaf := build(t)
		supers := slices.Clone(leaf.supers.IDs())
		n.Leave(leaf)
		for _, id := range supers {
			if q := n.peer(id); q.mach.Has(leaf.ID) {
				t.Fatalf("super %d kept departed leaf", q.ID)
			}
		}
	})
}

func TestLiveConfigDefaults(t *testing.T) {
	var c Config
	c.defaults()
	if c.M != 2 || c.KS != 3 || c.Eta != 10 {
		t.Fatalf("structure defaults %+v", c)
	}
	if c.Unit <= 0 || c.InboxSize <= 0 {
		t.Fatalf("runtime defaults %+v", c)
	}
	if err := c.Params.Validate(); err != nil {
		t.Fatalf("default params invalid: %v", err)
	}
}

// TestLiveRejectsPeriodicExchange: the live plane runs only the
// event-driven exchange, so a periodic Params must fail at construction
// instead of running event-driven without a word.
func TestLiveRejectsPeriodicExchange(t *testing.T) {
	p := protocol.DefaultParams()
	p.Exchange = protocol.Periodic
	defer func() {
		if recover() == nil {
			t.Fatal("NewNet accepted Exchange = Periodic")
		}
	}()
	NewNet(Config{Params: p, Seed: 1}).Stop()
}

func TestLiveAgeUnits(t *testing.T) {
	n := NewNet(Config{Unit: 10 * time.Millisecond, Seed: 1})
	defer n.Stop()
	p := n.Join(1, nil)
	time.Sleep(50 * time.Millisecond)
	if a := p.AgeUnits(); a < 3 || a > 30 {
		t.Fatalf("age %v units after ~5 units of wall time", a)
	}
}

// TestLiveJoinReachesM checks that a leaf joining a three-super layer
// links to M = 2 of them for every seed: the join draws with the
// simulator's budget (overlay.RepairAttempts) and a draw that hits a
// super already linked costs an attempt, not the join's degree.
func TestLiveJoinReachesM(t *testing.T) {
	for seed := int64(1); seed <= 200; seed++ {
		n, _ := manualNet(Config{M: 2, KS: 3, Eta: 5, Seed: seed})
		n.Join(100, nil)
		for _, c := range []float64{90, 80} {
			n.Join(c, nil).promote(n.nowUnits())
		}
		if leaf := n.Join(10, nil); leaf.supers.Len() != 2 {
			t.Errorf("seed %d: the joining leaf linked to %d supers, want M = 2", seed, leaf.supers.Len())
		}
		n.Stop()
	}
}

// TestLiveReproducible runs the same 60-peer manual-mode network twice
// from one seed, with default Params (every draw on) for 200 ticks, and
// requires the same layer switches at the same times and the same final
// link sets.
func TestLiveReproducible(t *testing.T) {
	run := func() (switches []string, links []string) {
		n, setClock := manualNet(Config{Seed: 11})
		defer n.Stop()
		n.onDecision = func(id msg.PeerID, now protocol.Time, res protocol.EvalResult) {
			if res.Action != protocol.ActionNone {
				switches = append(switches, fmt.Sprintf("t=%v %d %v", now, id, res.Action))
			}
		}
		for i := range 60 {
			n.Join(float64(1+(i*37)%100), nil)
		}
		for tick := 1; tick <= 200; tick++ {
			setClock(tick)
			n.tickAll()
		}
		return switches, liveLinks(n)
	}
	switchesA, linksA := run()
	switchesB, linksB := run()
	if len(switchesA) < 100 {
		t.Fatalf("%d layer switches, want >= 100 for a meaningful comparison", len(switchesA))
	}
	if !slices.Equal(switchesA, switchesB) {
		t.Fatalf("same-seed runs made different layer switches:\n%v\n%v", switchesA, switchesB)
	}
	if !slices.Equal(linksA, linksB) {
		t.Fatalf("same-seed runs ended with different links:\n%v\n%v", linksA, linksB)
	}
}
