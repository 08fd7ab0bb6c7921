package query

import (
	"slices"
	"testing"

	"dlm/internal/msg"
	"dlm/internal/overlay"
	"dlm/internal/sim"
	"dlm/internal/workload"
)

// buildNet constructs a deterministic overlay: s supers in a given
// super-graph, plus leaves with given objects.
func buildNet(t *testing.T) (*sim.Engine, *overlay.Network) {
	t.Helper()
	eng := sim.NewEngine(11)
	n := overlay.New(eng, overlay.Config{M: 2, KS: 3, Eta: 10}, nil)
	return eng, n
}

func TestCatalogAssignAndTarget(t *testing.T) {
	c := NewCatalog(100, 0.8, 0.8)
	r := sim.NewSource(1)
	objs := c.AssignObjects(10, r)
	if len(objs) != 10 {
		t.Fatalf("assigned %d objects, want 10", len(objs))
	}
	seen := map[msg.ObjectID]bool{}
	for _, o := range objs {
		if int(o) >= c.NumObjects {
			t.Fatalf("object %d outside catalog", o)
		}
		if seen[o] {
			t.Fatal("duplicate object assigned")
		}
		seen[o] = true
	}
	if c.AssignObjects(0, r) != nil {
		t.Fatal("zero-count assignment should be nil")
	}
	if tgt := c.QueryTarget(r); int(tgt) >= c.NumObjects {
		t.Fatalf("target %d outside catalog", tgt)
	}
}

// assignMade is AssignObjects with one array per list, the reference the
// carved lists are held to: the same draws, the same duplicate filter.
func assignMade(c *Catalog, drawn map[msg.ObjectID]bool, count int, r *sim.Source) []msg.ObjectID {
	clear(drawn)
	out := make([]msg.ObjectID, 0, count)
	for attempts := 0; len(out) < count && attempts < 4*count; attempts++ {
		id := msg.ObjectID(c.placement.Rank(r))
		if drawn[id] {
			continue
		}
		drawn[id] = true
		out = append(out, id)
	}
	return out
}

// TestAssignObjectsCarved holds the lists AssignObjects carves from its
// blocks to one array per list: the same IDs call by call, capacity equal
// to length so that an append cannot reach a neighbor, lists that do not
// fit a block's remainder or a whole block, and about one allocation per
// block.
func TestAssignObjectsCarved(t *testing.T) {
	// check makes calls lists of count(i) objects each and returns how
	// many started a fresh block and how many got an array of their own.
	check := func(size, calls int, count func(i int) int) (fresh, oversize int) {
		t.Helper()
		c, ref := NewCatalog(size, 0.8, 0.8), NewCatalog(size, 0.8, 0.8)
		r, rr := sim.NewSource(3), sim.NewSource(3)
		drawn := map[msg.ObjectID]bool{}
		var lists, want [][]msg.ObjectID
		for i := 0; i < calls; i++ {
			room := cap(c.block) - len(c.block)
			got := c.AssignObjects(count(i), r)
			switch {
			case len(got) > blockSize:
				oversize++
			case len(got) > room:
				fresh++
			}
			if cap(got) != len(got) {
				t.Fatalf("call %d: list of %d IDs has capacity %d", i, len(got), cap(got))
			}
			lists = append(lists, got)
			want = append(want, assignMade(ref, drawn, count(i), rr))
		}
		for i := range lists {
			_ = append(lists[i], msg.ObjectID(size)) // must not land in lists[i+1]
		}
		for i := range lists {
			if !slices.Equal(lists[i], want[i]) {
				t.Fatalf("call %d: %v, want %v", i, lists[i], want[i])
			}
		}
		return fresh, oversize
	}
	if fresh, _ := check(10000, 20000, func(i int) int { return 1 + i%97 }); fresh == 0 {
		t.Fatal("no list started a fresh block")
	}
	// Lists of up to 5 000 on a 20 000-object catalog: past a block's
	// remainder, and past a whole block.
	if fresh, oversize := check(20000, 40, func(i int) int { return 1000 + 1000*(i%5) }); fresh == 0 || oversize == 0 {
		t.Fatalf("%d lists started a fresh block and %d got their own array, want both", fresh, oversize)
	}

	c, r := DefaultCatalog(), sim.NewSource(1)
	const perRun = 4096
	allocs := testing.AllocsPerRun(10, func() {
		for i := 0; i < perRun; i++ {
			c.AssignObjects(12, r)
		}
	})
	if perCall := allocs / perRun; perCall > 0.01 {
		t.Errorf("AssignObjects(12) allocates %.4f times a call, want at most 0.01", perCall)
	}
}

// indexedAt counts the objects indexed at one super-peer.
func indexedAt(xs *indexes, super msg.PeerID) int {
	count := 0
	for o := range xs.byObject {
		if xs.byObject[o].find(super) >= 0 {
			count++
		}
	}
	return count
}

func TestIndexProviderFailover(t *testing.T) {
	_, n := buildNet(t)
	e := Attach(n, DefaultCatalog())
	s := n.Join(100, 1e9, nil) // bootstrap super
	for i := 0; i < 2; i++ {
		n.Join(1, 1e9, []msg.ObjectID{7})
	}
	latest := n.Join(1, 1e9, []msg.ObjectID{7})
	if p, ok := e.xs.lookup(n, s, 7); !ok || p != latest.ID {
		t.Fatalf("lookup = %d,%v want the latest owner %d", p, ok, latest.ID)
	}
	// Removing the attributed provider must fail over to a surviving
	// owner — the first in the super's leaf-link order — and again when
	// that one leaves.
	n.Leave(latest)
	next := s.LeafLinks()[0]
	if p, ok := e.xs.lookup(n, s, 7); !ok || p != next {
		t.Fatalf("failover lookup = %d,%v want %d,true", p, ok, next)
	}
	n.Leave(n.Peer(next))
	if p, ok := e.xs.lookup(n, s, 7); !ok || p != s.LeafLinks()[0] {
		t.Fatalf("second failover lookup = %d,%v want %d,true", p, ok, s.LeafLinks()[0])
	}
}

// topo builds: source leaf L -> super A -> super B -> super C, with a
// provider leaf P attached to C sharing object 42.
func topo(t *testing.T) (*overlay.Network, *Engine, *overlay.Peer, *overlay.Peer) {
	t.Helper()
	_, n := buildNet(t)
	e := Attach(n, NewCatalog(100, 0.8, 0.8))

	a := n.Join(100, 1e9, nil) // bootstrap super
	b := n.Join(100, 1e9, nil)
	c := n.Join(100, 1e9, nil)
	n.Promote(b)
	n.Promote(c)
	// Shape the super graph into a chain A-B-C.
	n.Disconnect(a, c)
	n.Disconnect(b, n.Peer(b.SuperLinks()[0])) // clear whatever joined links exist
	for _, id := range append([]msg.PeerID(nil), a.SuperLinks()...) {
		n.Disconnect(a, n.Peer(id))
	}
	for _, id := range append([]msg.PeerID(nil), b.SuperLinks()...) {
		n.Disconnect(b, n.Peer(id))
	}
	for _, id := range append([]msg.PeerID(nil), c.SuperLinks()...) {
		n.Disconnect(c, n.Peer(id))
	}
	n.Connect(a, b)
	n.Connect(b, c)

	// Provider leaf on C.
	p := n.Join(1, 1e9, []msg.ObjectID{42})
	for _, id := range append([]msg.PeerID(nil), p.SuperLinks()...) {
		n.Disconnect(p, n.Peer(id))
	}
	n.Connect(p, c)

	// Source leaf on A.
	l := n.Join(1, 1e9, nil)
	for _, id := range append([]msg.PeerID(nil), l.SuperLinks()...) {
		n.Disconnect(l, n.Peer(id))
	}
	n.Connect(l, a)
	return n, e, l, p
}

func TestFloodFindsObjectAcrossChain(t *testing.T) {
	n, e, l, _ := topo(t)
	res := e.Issue(l, 42, 7)
	if !res.Found {
		t.Fatalf("object not found: %+v", res)
	}
	if res.FirstHitHops != 3 { // L->A=1, A->B=2, B->C=3
		t.Errorf("FirstHitHops = %d, want 3", res.FirstHitHops)
	}
	if res.SupersReached != 3 {
		t.Errorf("SupersReached = %d, want 3", res.SupersReached)
	}
	// Query msgs: L->A, A->B, B->C = 3. Hit msgs: C->B, B->A, A->L = 3.
	if res.QueryMsgs != 3 || res.HitMsgs != 3 {
		t.Errorf("msgs = %d/%d, want 3/3", res.QueryMsgs, res.HitMsgs)
	}
	tr := n.Traffic()
	if tr.Count(msg.KindQuery) != 3 || tr.Count(msg.KindQueryHit) != 3 {
		t.Errorf("traffic = %d/%d", tr.Count(msg.KindQuery), tr.Count(msg.KindQueryHit))
	}
	if e.SuccessRate() != 1 {
		t.Errorf("success rate = %v", e.SuccessRate())
	}
}

func TestTTLBoundsFlood(t *testing.T) {
	_, e, l, _ := topo(t)
	// TTL 2: reaches A and B only; provider is on C.
	res := e.Issue(l, 42, 2)
	if res.Found {
		t.Fatal("TTL 2 should not reach the provider 3 hops away")
	}
	if res.SupersReached != 2 {
		t.Errorf("SupersReached = %d, want 2", res.SupersReached)
	}
}

func TestMissedObject(t *testing.T) {
	_, e, l, _ := topo(t)
	res := e.Issue(l, 99, 7)
	if res.Found || res.Hits != 0 || res.FirstHitHops != -1 {
		t.Fatalf("phantom hit: %+v", res)
	}
}

func TestSuperSourceLocalHit(t *testing.T) {
	_, n := buildNet(t)
	e := Attach(n, DefaultCatalog())
	s := n.Join(100, 1e9, []msg.ObjectID{7})
	res := e.Issue(s, 7, 7)
	if !res.Found || res.FirstHitHops != 0 {
		t.Fatalf("local hit: %+v", res)
	}
	if res.QueryMsgs != 0 {
		t.Errorf("local hit cost %d query msgs", res.QueryMsgs)
	}
}

func TestLeafIndexServesSiblingLeaf(t *testing.T) {
	_, n := buildNet(t)
	e := Attach(n, DefaultCatalog())
	n.Join(100, 1e9, nil) // bootstrap super
	provider := n.Join(1, 1e9, []msg.ObjectID{5})
	asker := n.Join(1, 1e9, nil)
	res := e.Issue(asker, 5, 1)
	if !res.Found {
		t.Fatal("super index did not serve sibling leaf")
	}
	if res.FirstHitHops != 1 {
		t.Errorf("hops = %d, want 1", res.FirstHitHops)
	}
	_ = provider
}

func TestDemotionMovesIndex(t *testing.T) {
	_, n := buildNet(t)
	e := Attach(n, DefaultCatalog())
	a := n.Join(100, 1e9, []msg.ObjectID{77}) // bootstrap super with content
	b := n.Join(100, 1e9, nil)
	n.Promote(b)
	n.Connect(a, b)
	if !n.Demote(a) {
		t.Fatal("demotion refused")
	}
	// a is now a leaf under b; a query at b must find 77 via b's index.
	res := e.Issue(b, 77, 1)
	if !res.Found {
		t.Fatal("demoted peer's content lost from the layer index")
	}
	if indexedAt(e.xs, a.ID) != 0 {
		t.Error("demoted peer still has an index")
	}
}

func TestPromotionCleansOldIndexes(t *testing.T) {
	_, n := buildNet(t)
	e := Attach(n, DefaultCatalog())
	s := n.Join(100, 1e9, nil)
	leaf := n.Join(1, 1e9, []msg.ObjectID{33})
	if _, ok := e.xs.lookup(n, s, 33); !ok {
		t.Fatal("precondition: super indexes leaf content")
	}
	n.Promote(leaf)
	if _, ok := e.xs.lookup(n, s, 33); ok {
		t.Fatal("promoted peer's objects still indexed at its old super")
	}
	// The promoted super now indexes nothing (no leaves) but can answer
	// from its own storage.
	res := e.Issue(leaf, 33, 1)
	if !res.Found || res.FirstHitHops != 0 {
		t.Fatalf("own storage lookup failed: %+v", res)
	}
}

func TestLeaveCleansIndex(t *testing.T) {
	_, n := buildNet(t)
	e := Attach(n, DefaultCatalog())
	s := n.Join(100, 1e9, nil)
	leaf := n.Join(1, 1e9, []msg.ObjectID{44})
	n.Leave(leaf)
	if _, ok := e.xs.lookup(n, s, 44); ok {
		t.Fatal("departed leaf's objects still indexed")
	}
	n.Leave(s)
	if e.xs.slots() != 0 {
		t.Fatal("departed super's index not dropped")
	}
}

func TestDriverIssuesAtRate(t *testing.T) {
	eng, n := buildNet(t)
	e := Attach(n, DefaultCatalog())
	n.Join(100, 1e9, []msg.ObjectID{1})
	for i := 0; i < 20; i++ {
		n.Join(1, 1e9, []msg.ObjectID{msg.ObjectID(i)})
	}
	d := &Driver{Engine: e, Rate: 2.5, Until: 20}
	d.Start()
	if err := eng.RunUntil(20); err != nil {
		t.Fatal(err)
	}
	if e.Issued != 50 { // 2.5 * 20
		t.Fatalf("issued %d queries, want 50", e.Issued)
	}
}

func TestDriverPanicsOnBadRate(t *testing.T) {
	_, n := buildNet(t)
	e := Attach(n, DefaultCatalog())
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	(&Driver{Engine: e, Rate: 0}).Start()
}

func TestDuplicateSuppression(t *testing.T) {
	// Triangle A-B-C: flooding from A reaches B and C; each then tries
	// the third edge, producing exactly two redundant deliveries.
	_, n := buildNet(t)
	e := Attach(n, DefaultCatalog())
	a := n.Join(100, 1e9, nil)
	b := n.Join(100, 1e9, nil)
	c := n.Join(100, 1e9, nil)
	n.Promote(b)
	n.Promote(c)
	for _, p := range []*overlay.Peer{a, b, c} {
		for _, id := range append([]msg.PeerID(nil), p.SuperLinks()...) {
			n.Disconnect(p, n.Peer(id))
		}
	}
	n.Connect(a, b)
	n.Connect(b, c)
	n.Connect(a, c)
	res := e.Issue(a, 9999, 7)
	if res.SupersReached != 3 {
		t.Fatalf("reached %d supers", res.SupersReached)
	}
	if res.Duplicates == 0 {
		t.Fatal("triangle flood produced no duplicate deliveries")
	}
}

func TestQueryWorkloadWithProfile(t *testing.T) {
	// End-to-end: churn + catalog assignment + queries; success rate must
	// be positive for a popular catalog.
	eng := sim.NewEngine(5)
	n := overlay.New(eng, overlay.Config{M: 2, KS: 3, Eta: 10}, nil)
	cat := NewCatalog(50, 1.0, 1.0)
	e := Attach(n, cat)
	churn := &overlay.Churn{
		Net: n,
		Profile: &workload.StaticProfile{
			Capacity:       workload.Uniform{Lo: 1, Hi: 100},
			Lifetime:       workload.Exponential{MeanVal: 50},
			ObjectsPerPeer: workload.Constant(5),
		},
		TargetSize: 200,
		GrowthRate: 50,
		Catalog:    cat,
	}
	churn.Start()
	(&Driver{Engine: e, Rate: 5, Until: 40}).Start()
	eng.Ticker(1, func(en *sim.Engine) bool { n.Tick(); return en.Now() < 40 })
	if err := eng.RunUntil(40); err != nil {
		t.Fatal(err)
	}
	if e.Issued == 0 {
		t.Fatal("no queries issued")
	}
	if e.SuccessRate() <= 0.3 {
		t.Fatalf("success rate %.2f too low for a 50-object Zipf catalog", e.SuccessRate())
	}
	if bad := n.CheckInvariants(); len(bad) > 0 {
		t.Fatalf("invariants: %v", bad[0])
	}
}

func TestAsyncFloodWithLatency(t *testing.T) {
	eng := sim.NewEngine(11)
	n := overlay.New(eng, overlay.Config{M: 2, KS: 3, Eta: 10, Latency: 0.1}, nil)
	e := Attach(n, NewCatalog(100, 0.8, 0.8))

	s := n.Join(100, 1e9, nil) // bootstrap super
	provider := n.Join(1, 1e9, []msg.ObjectID{42})
	asker := n.Join(1, 1e9, nil)
	// Run pending connect-time deliveries.
	if err := eng.RunUntil(1); err != nil {
		t.Fatal(err)
	}
	_ = provider

	var got *Result
	// The engine recycles the Result after done returns; copy to retain.
	e.IssueAsync(asker, 42, 3, func(r *Result) { rc := *r; got = &rc })
	if got != nil {
		t.Fatal("async flood completed synchronously despite latency")
	}
	if err := eng.RunUntil(5); err != nil {
		t.Fatal(err)
	}
	if got == nil {
		t.Fatal("async flood never finalized")
	}
	if !got.Found {
		t.Fatalf("async flood missed: %+v", got)
	}
	if got.FirstHitHops != 1 {
		t.Errorf("hops = %d, want 1", got.FirstHitHops)
	}
	if e.Issued != 1 || e.SuccessRate() != 1 {
		t.Errorf("stats: issued=%d success=%v", e.Issued, e.SuccessRate())
	}
	_ = s
}

// TestIssuePanicsOnLatencyNetwork holds Issue to synchronous networks: it
// panics when a message can arrive later than it was sent — through
// latency, link jitter or a reordering window — and runs over a link that
// only drops or duplicates.
func TestIssuePanicsOnLatencyNetwork(t *testing.T) {
	for _, row := range []struct {
		name   string
		cfg    overlay.Config
		panics bool
	}{
		{"latency", overlay.Config{Latency: 0.5}, true},
		{"jitter", overlay.Config{Link: overlay.Link{JitterMax: 0.2}}, true},
		{"reorder", overlay.Config{Link: overlay.Link{ReorderWindow: 0.1}}, true},
		{"loss", overlay.Config{Link: overlay.Link{Loss: 0.1, Dup: 0.1}}, false},
	} {
		t.Run(row.name, func(t *testing.T) {
			row.cfg.M, row.cfg.KS, row.cfg.Eta = 2, 3, 10
			n := overlay.New(sim.NewEngine(1), row.cfg, nil)
			e := Attach(n, DefaultCatalog())
			p := n.Join(1, 1e9, nil)
			defer func() {
				if r := recover(); (r != nil) != row.panics {
					t.Fatalf("Issue panicked: %v, want a panic: %v", r, row.panics)
				}
			}()
			e.Issue(p, 1, 3)
		})
	}
}

// TestFloodOverActiveLink floods over links that delay messages past the
// configured latency — jitter at zero latency, and jitter plus a reordering
// window at 0.05 — and requires every query for an object a leaf shares to
// be answered, as it is on a perfect link: the flood's deadline has to
// cover the longest hop the link can make.
func TestFloodOverActiveLink(t *testing.T) {
	const queries = 60
	for _, row := range []struct {
		name    string
		latency sim.Duration
		link    overlay.Link
	}{
		{"perfect", 0, overlay.Link{}},
		{"jitter", 0, overlay.Link{JitterMax: 0.2}},
		{"jitter+reorder", 0.05, overlay.Link{JitterMax: 0.2, ReorderWindow: 0.5}},
	} {
		t.Run(row.name, func(t *testing.T) {
			eng, qe, source, _ := floodTopology(t, overlay.Config{M: 2, KS: 4, Eta: 10, Latency: row.latency, Link: row.link})
			var targets []msg.ObjectID
			qe.net.WalkPeers(func(p *overlay.Peer) {
				if p.Layer == overlay.LayerLeaf && p != source {
					targets = append(targets, p.Objects...)
				}
			})
			finalized, found := 0, 0
			for _, obj := range targets[:queries] {
				qe.IssueAsync(source, obj, qe.DefaultTTL, func(r *Result) {
					finalized++
					if r.Found {
						found++
					}
				})
			}
			if err := eng.RunUntil(eng.Now() + 100); err != nil {
				t.Fatal(err)
			}
			if finalized != queries || found != queries {
				t.Fatalf("%d of %d floods finalized, %d found their object, want all", finalized, queries, found)
			}
		})
	}
}

func TestAsyncHopsAcrossChainWithLatency(t *testing.T) {
	// Rebuild the A-B-C chain under latency and confirm the hit hop
	// count survives the asynchronous inverse path.
	eng := sim.NewEngine(11)
	n := overlay.New(eng, overlay.Config{M: 2, KS: 3, Eta: 10, Latency: 0.05}, nil)
	e := Attach(n, NewCatalog(100, 0.8, 0.8))

	a := n.Join(100, 1e9, nil)
	b := n.Join(100, 1e9, nil)
	c := n.Join(100, 1e9, nil)
	n.Promote(b)
	n.Promote(c)
	for _, p := range []*overlay.Peer{a, b, c} {
		for _, id := range append([]msg.PeerID(nil), p.SuperLinks()...) {
			n.Disconnect(p, n.Peer(id))
		}
	}
	n.Connect(a, b)
	n.Connect(b, c)
	leaf := n.Join(1, 1e9, []msg.ObjectID{7})
	for _, id := range append([]msg.PeerID(nil), leaf.SuperLinks()...) {
		n.Disconnect(leaf, n.Peer(id))
	}
	n.Connect(leaf, c)
	if err := eng.RunUntil(1); err != nil {
		t.Fatal(err)
	}

	var got *Result
	e.IssueAsync(a, 7, 5, func(r *Result) { rc := *r; got = &rc })
	if err := eng.RunUntil(10); err != nil {
		t.Fatal(err)
	}
	if got == nil || !got.Found {
		t.Fatalf("chain flood failed: %+v", got)
	}
	if got.FirstHitHops != 2 { // A(0) -> B(1) -> C(2), hit in C's index
		t.Errorf("hops = %d, want 2", got.FirstHitHops)
	}
}

func TestDriverWorksWithLatency(t *testing.T) {
	eng := sim.NewEngine(13)
	n := overlay.New(eng, overlay.Config{M: 2, KS: 3, Eta: 10, Latency: 0.02}, nil)
	cat := NewCatalog(50, 1.0, 1.0)
	e := Attach(n, cat)
	n.Join(100, 1e9, []msg.ObjectID{1, 2, 3})
	for i := 0; i < 30; i++ {
		n.Join(1, 1e9, cat.AssignObjects(3, eng.Rand().Stream("objs")))
	}
	(&Driver{Engine: e, Rate: 2, Until: 20}).Start()
	if err := eng.RunUntil(30); err != nil {
		t.Fatal(err)
	}
	if e.Issued == 0 {
		t.Fatal("no queries finalized under latency")
	}
	if e.SuccessRate() <= 0 {
		t.Fatal("no async query succeeded")
	}
}
