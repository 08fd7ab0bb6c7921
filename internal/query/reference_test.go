package query

import (
	"testing"

	"dlm/internal/baseline"
	"dlm/internal/msg"
	"dlm/internal/overlay"
	"dlm/internal/sim"
)

// referenceFlood is the Gnutella-0.4 flood written as a plain breadth-first
// search over the super graph: every peer checks its own storage, answers
// along the inverse path (one message per hop), and relays to every
// neighbor but the sender while TTL remains. It is the oracle the
// event-driven flood is held to on a static all-super overlay; it fills
// Found, FirstHitHops, QueryMsgs, HitMsgs and SupersReached.
func referenceFlood(n *overlay.Network, source *overlay.Peer, obj msg.ObjectID, ttl int) Result {
	res := Result{FirstHitHops: -1}
	type item struct {
		id, from  msg.PeerID
		ttl, hops int
	}
	visited := map[msg.PeerID]bool{source.ID: true}
	queue := []item{{id: source.ID, from: msg.NoPeer, ttl: ttl}}
	for len(queue) > 0 {
		it := queue[0]
		queue = queue[1:]
		p := n.Peer(it.id)
		res.SupersReached++
		for _, o := range p.Objects {
			if o == obj {
				if !res.Found {
					res.Found, res.FirstHitHops = true, it.hops
				}
				res.HitMsgs += uint64(it.hops)
				break
			}
		}
		if it.ttl <= 1 {
			continue
		}
		for _, qid := range p.SuperLinks() {
			if qid == it.from {
				continue
			}
			res.QueryMsgs++
			if !visited[qid] {
				visited[qid] = true
				queue = append(queue, item{id: qid, from: it.id, ttl: it.ttl - 1, hops: it.hops + 1})
			}
		}
	}
	return res
}

// pureNet builds the pure-P2P system as the overlay's one-layer case: a
// static network of size peers, all supers (threshold 0), five neighbors
// each, no churn. Latency is positive so floods spread breadth-first.
// Each peer shares `shared` catalog objects (0 = none).
func pureNet(seed int64, size, shared int) (*sim.Engine, *overlay.Network, *Engine) {
	eng := sim.NewEngine(seed)
	n := overlay.New(eng, overlay.Config{M: 2, KS: 5, Eta: 40, Latency: 1e-3}, &baseline.Preconfigured{})
	cat := NewCatalog(400, 0.8, 0.8)
	e := Attach(n, cat)
	rng := eng.Rand().Stream("pure-net")
	for i := 0; i < size; i++ {
		n.Join(1, 1e9, cat.AssignObjects(shared, rng))
	}
	n.Repair()
	return eng, n, e
}

// floodSync issues one flood and runs the engine to its deadline.
func floodSync(t *testing.T, eng *sim.Engine, e *Engine, src *overlay.Peer, obj msg.ObjectID, ttl int) Result {
	t.Helper()
	var got *Result
	e.IssueAsync(src, obj, uint8(ttl), func(r *Result) { c := *r; got = &c })
	for got == nil && eng.Step() {
	}
	if got == nil {
		t.Fatal("flood never finalized")
	}
	return *got
}

func TestFloodMatchesReferenceBFS(t *testing.T) {
	eng, n, e := pureNet(21, 320, 4)
	if n.NumLeaves() != 0 || n.NumSupers() != 320 {
		t.Fatalf("layers %d/%d, want an empty leaf layer", n.NumSupers(), n.NumLeaves())
	}
	rng := eng.Rand().Stream("reference")
	for ttl := 1; ttl <= 7; ttl++ {
		for i := 0; i < 25; i++ {
			src := n.RandomPeer()
			obj := e.Catalog().QueryTarget(rng)
			want := referenceFlood(n, src, obj, ttl)
			got := floodSync(t, eng, e, src, obj, ttl)
			cmp := Result{Found: got.Found, FirstHitHops: got.FirstHitHops,
				QueryMsgs: got.QueryMsgs, HitMsgs: got.HitMsgs, SupersReached: got.SupersReached}
			if cmp != want {
				t.Fatalf("ttl %d src %d obj %d: got %+v, reference %+v", ttl, src.ID, obj, got, want)
			}
		}
	}
}

func TestFloodTTLOne(t *testing.T) {
	eng, n, e := pureNet(5, 12, 0)
	src := n.Join(1, 1e9, []msg.ObjectID{7})
	res := floodSync(t, eng, e, src, 7, 1)
	if !res.Found || res.FirstHitHops != 0 {
		t.Fatalf("self-hit failed: %+v", res)
	}
	if res.QueryMsgs != 0 || res.SupersReached != 1 {
		t.Fatalf("TTL 1 should not relay: %+v", res)
	}
}

func TestFloodMiss(t *testing.T) {
	eng, n, e := pureNet(4, 21, 0)
	res := floodSync(t, eng, e, n.RandomPeer(), 999, 7)
	if res.Found || res.FirstHitHops != -1 || res.HitMsgs != 0 {
		t.Fatalf("phantom hit %+v", res)
	}
}

func TestFloodFindsNearbyObject(t *testing.T) {
	eng, n, e := pureNet(3, 31, 0)
	src := n.RandomPeer()
	n.Join(1, 1e9, []msg.ObjectID{42})
	res := floodSync(t, eng, e, src, 42, 7)
	if !res.Found || res.FirstHitHops < 1 {
		t.Fatalf("flood missed object in a 32-peer net at TTL 7: %+v", res)
	}
	if res.QueryMsgs == 0 || res.HitMsgs == 0 {
		t.Fatalf("traffic not counted: %+v", res)
	}
	if tr := n.Traffic(); tr.Count(msg.KindQuery) != res.QueryMsgs || tr.Count(msg.KindQueryHit) != res.HitMsgs {
		t.Fatalf("traffic/result mismatch: %d/%d vs %+v",
			tr.Count(msg.KindQuery), tr.Count(msg.KindQueryHit), res)
	}
}

// The flood never counts a peer twice and always terminates.
func TestFloodVisitProperty(t *testing.T) {
	for seed := int64(1); seed <= 30; seed++ {
		eng, n, e := pureNet(seed, 41, 0)
		res := floodSync(t, eng, e, n.RandomPeer(), 1, 1+int(seed%10))
		if res.SupersReached > n.Size() {
			t.Fatalf("seed %d: reached %d of %d peers", seed, res.SupersReached, n.Size())
		}
	}
}

// The pure-P2P pathology: flood cost scales with network size, since
// everyone relays. This is the premise of the super-peer design.
func TestFloodCostGrowsWithPopulation(t *testing.T) {
	cost := func(size int) uint64 {
		eng, n, e := pureNet(6, size, 0)
		return floodSync(t, eng, e, n.RandomPeer(), 12345, 12).QueryMsgs
	}
	if small, large := cost(100), cost(800); large < 4*small {
		t.Fatalf("flood cost did not scale: %d -> %d", small, large)
	}
}
