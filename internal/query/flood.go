package query

import (
	"dlm/internal/msg"
	"dlm/internal/overlay"
	"dlm/internal/sim"
	"dlm/internal/stats"
)

// Result summarizes one query flood.
type Result struct {
	Query  msg.QueryID
	Object msg.ObjectID
	// Found reports whether at least one QueryHit reached the source.
	Found bool
	// Hits counts QueryHit deliveries at the source.
	Hits int
	// FirstHitHops is the hop count of the first hit (super-layer hops);
	// -1 when not found.
	FirstHitHops int
	// QueryMsgs and HitMsgs are this query's message costs.
	QueryMsgs uint64
	HitMsgs   uint64
	// SupersReached is the number of distinct super-peers that processed
	// the query.
	SupersReached int
	// Duplicates counts redundant deliveries suppressed by the
	// duplicate-detection check.
	Duplicates int
}

// Engine runs Gnutella-style search over the super-layer: queries flood
// among super-peers with a TTL, each super-peer answers from its local
// content and its leaf index, and hits travel the inverse query path.
type Engine struct {
	// DefaultTTL is used by IssueRandomAsync.
	DefaultTTL uint8

	net    *overlay.Network
	cat    *Catalog
	xs     *indexes
	rng    *sim.Source
	nextID msg.QueryID
	active map[msg.QueryID]*flood
	// pool recycles finished flood states (with their dense visited/parent
	// slices), so a steady query workload does not allocate per flood.
	pool []*flood

	// Aggregates.
	Issued    uint64
	Succeeded uint64
	MsgsPer   stats.Welford
	HopsHist  *stats.Histogram
}

// flood is the per-query routing state. Instead of per-flood maps it keeps
// dense slices indexed by PeerID (IDs come from a monotonic counter, so
// the slices are at most MaxPeerID+1 long) with an epoch stamp:
// stamp[id] == epoch means id was visited by *this* incarnation of the
// flood, so reusing the state costs one epoch increment, not a clear.
type flood struct {
	source msg.PeerID
	res    Result
	done   func(*Result)

	epoch  uint32
	stamp  []uint32
	parent []msg.PeerID

	fin finalizeEvent
}

// finalizeEvent closes the flood's books at its deadline; embedding it in
// the pooled flood avoids a per-query closure allocation.
type finalizeEvent struct {
	qe  *Engine
	qid msg.QueryID
}

// Fire implements sim.Event.
func (f *finalizeEvent) Fire(*sim.Engine) { f.qe.finalize(f.qid) }

// visited reports whether id was marked in the current epoch.
func (fl *flood) visited(id msg.PeerID) bool {
	return int(id) < len(fl.stamp) && fl.stamp[id] == fl.epoch
}

// visit marks id visited with the given inverse-path predecessor. Peers
// that join mid-flood (latency networks) can carry IDs beyond the size at
// issue time, so the slices grow on demand.
func (fl *flood) visit(id, from msg.PeerID) {
	if int(id) >= len(fl.stamp) {
		fl.growTo(int(id) + 1)
	}
	fl.stamp[id] = fl.epoch
	fl.parent[id] = from
}

// parentOf returns the inverse-path predecessor of a visited peer, or
// NoPeer for the source and for peers outside the flood.
func (fl *flood) parentOf(id msg.PeerID) msg.PeerID {
	if !fl.visited(id) {
		return msg.NoPeer
	}
	return fl.parent[id]
}

func (fl *flood) growTo(n int) {
	if cap(fl.stamp) >= n {
		fl.stamp = fl.stamp[:n]
		fl.parent = fl.parent[:n]
		return
	}
	stamp := make([]uint32, n, n+n/2)
	copy(stamp, fl.stamp)
	fl.stamp = stamp
	parent := make([]msg.PeerID, n, n+n/2)
	copy(parent, fl.parent)
	fl.parent = parent
}

// Attach wires a query engine to the network: it registers the message
// handlers and the index observer. Call once per network.
func Attach(n *overlay.Network, cat *Catalog) *Engine {
	e := &Engine{
		DefaultTTL: 7,
		net:        n,
		cat:        cat,
		xs:         newIndexes(cat.NumObjects),
		rng:        n.Engine().Rand().Stream("query"),
		active:     make(map[msg.QueryID]*flood),
		HopsHist:   stats.NewHistogram(0, 16, 16),
	}
	n.Observe(e.xs)
	n.Handle(msg.KindQuery, e.onQuery)
	n.Handle(msg.KindQueryHit, e.onQueryHit)
	return e
}

// Catalog returns the engine's content catalog.
func (e *Engine) Catalog() *Catalog { return e.cat }

// SuccessRate returns the fraction of issued queries that found a result.
func (e *Engine) SuccessRate() float64 {
	if e.Issued == 0 {
		return 0
	}
	return float64(e.Succeeded) / float64(e.Issued)
}

// ResetStats clears the aggregate counters (e.g. after warm-up).
func (e *Engine) ResetStats() {
	e.Issued, e.Succeeded = 0, 0
	e.MsgsPer = stats.Welford{}
	e.HopsHist.Reset()
}

// getFlood returns a recycled (or fresh) flood state, epoch-bumped and
// sized for the network's current ID range.
func (e *Engine) getFlood() *flood {
	var fl *flood
	if n := len(e.pool); n > 0 {
		fl = e.pool[n-1]
		e.pool[n-1] = nil
		e.pool = e.pool[:n-1]
	} else {
		fl = &flood{}
	}
	fl.epoch++
	if fl.epoch == 0 { // wrapped: old stamps would alias the new epoch
		clear(fl.stamp)
		fl.epoch = 1
	}
	if n := int(e.net.MaxPeerID()) + 1; n > len(fl.stamp) {
		fl.growTo(n)
	}
	return fl
}

// putFlood returns a finished flood to the pool.
func (e *Engine) putFlood(fl *flood) {
	fl.done = nil
	e.pool = append(e.pool, fl)
}

// Issue floods one query for obj from the given source peer and returns
// the completed result. It requires zero message latency (delivery, and
// therefore the whole flood, is synchronous); use IssueAsync on a
// latency-configured network.
func (e *Engine) Issue(source *overlay.Peer, obj msg.ObjectID, ttl uint8) *Result {
	if e.net.Config().Latency > 0 {
		panic("query: Issue on a latency network; use IssueAsync")
	}
	out := new(Result)
	e.IssueAsync(source, obj, ttl, func(r *Result) { *out = *r })
	return out
}

// IssueAsync floods one query and invokes done exactly once with the
// final result. At zero latency the flood completes (and done runs)
// before IssueAsync returns; with latency the flood propagates through
// scheduled deliveries and is finalized after the maximum round-trip
// deadline (TTL hops out plus the inverse path back). done may be nil.
//
// The *Result passed to done is owned by the engine and recycled after
// done returns; callers that retain it past the callback must copy it.
func (e *Engine) IssueAsync(source *overlay.Peer, obj msg.ObjectID, ttl uint8, done func(*Result)) {
	e.nextID++
	qid := e.nextID
	fl := e.getFlood()
	fl.source = source.ID
	fl.res = Result{Query: qid, Object: obj, FirstHitHops: -1}
	fl.done = done
	e.active[qid] = fl

	if source.Layer == overlay.LayerSuper {
		// A super-peer processes its own query locally with full TTL.
		fl.visit(source.ID, msg.NoPeer)
		e.processAtSuper(fl, source, ttl, 0, msg.NoPeer)
	} else {
		// A leaf submits the query to each of its super connections.
		for _, sid := range source.SuperLinks() {
			fl.res.QueryMsgs++
			e.net.Send(msg.NewQuery(source.ID, sid, qid, obj, ttl))
		}
	}

	latency := e.net.Config().Latency
	if latency <= 0 {
		e.finalize(qid)
		return
	}
	// Out (TTL hops) + back (TTL hops) plus the leaf edges, with slack.
	deadline := sim.Duration(float64(2*int(ttl)+3) * float64(latency))
	fl.fin = finalizeEvent{qe: e, qid: qid}
	e.net.Engine().After(deadline, &fl.fin)
}

// finalize closes the books on one query and recycles its flood state.
func (e *Engine) finalize(qid msg.QueryID) {
	fl, ok := e.active[qid]
	if !ok {
		return
	}
	delete(e.active, qid)
	res := &fl.res
	e.Issued++
	if res.Found {
		e.Succeeded++
		e.HopsHist.Add(float64(res.FirstHitHops))
	}
	e.MsgsPer.Add(float64(res.QueryMsgs + res.HitMsgs))
	if fl.done != nil {
		fl.done(res)
	}
	e.putFlood(fl)
}

// IssueRandomAsync issues a query with a Zipf-drawn target from a
// uniformly random live peer (a no-op on an empty network); the result
// arrives via the engine statistics (and done, when non-nil).
func (e *Engine) IssueRandomAsync(done func(*Result)) {
	p := e.net.RandomPeer()
	if p == nil {
		return
	}
	e.IssueAsync(p, e.cat.QueryTarget(e.rng), e.DefaultTTL, done)
}

// onQuery handles a Query message arriving at a peer.
func (e *Engine) onQuery(n *overlay.Network, to *overlay.Peer, m *msg.Message) {
	fl, ok := e.active[m.Query]
	if !ok || to.Layer != overlay.LayerSuper {
		return // stale or misrouted
	}
	if fl.visited(to.ID) {
		fl.res.Duplicates++
		return
	}
	fl.visit(to.ID, m.From)
	e.processAtSuper(fl, to, m.TTL, int(m.Hops)+1, m.From)
}

// processAtSuper checks the super's own content and leaf index, reports a
// hit along the inverse path, and relays the query while TTL remains. The
// relay goes to every super neighbor except the one the query came from —
// a peer cannot know who else already saw the flood, so redundant edges
// are paid for and show up as duplicates at the receiver.
func (e *Engine) processAtSuper(fl *flood, s *overlay.Peer, ttl uint8, hops int, from msg.PeerID) {
	fl.res.SupersReached++

	qid, obj := fl.res.Query, fl.res.Object
	if provider, ok := e.lookupAt(s, obj); ok {
		e.reportHit(fl, s, provider, hops)
	}

	if ttl <= 1 {
		return
	}
	// Iterating the live link slice is safe: nothing on the query path
	// (handlers, index observer, traffic tally) mutates topology, even
	// through the synchronous zero-latency recursion.
	for _, nid := range s.SuperLinks() {
		if nid == from {
			continue
		}
		fl.res.QueryMsgs++
		q := msg.NewQuery(s.ID, nid, qid, obj, ttl-1)
		q.Hops = uint8(hops)
		e.net.Send(q)
	}
}

// lookupAt resolves obj at super s: own objects first, then the leaf
// index.
func (e *Engine) lookupAt(s *overlay.Peer, obj msg.ObjectID) (msg.PeerID, bool) {
	for _, o := range s.Objects {
		if o == obj {
			return s.ID, true
		}
	}
	return e.xs.lookup(e.net, s, obj)
}

// reportHit routes a QueryHit back along the inverse query path; the
// message carries the hop depth of the hit.
func (e *Engine) reportHit(fl *flood, s *overlay.Peer, provider msg.PeerID, hops int) {
	if s.ID == fl.source {
		e.deliverHit(fl, hops)
		return
	}
	next := fl.parentOf(s.ID)
	if next == msg.NoPeer {
		return
	}
	fl.res.HitMsgs++
	e.net.Send(msg.NewQueryHit(s.ID, next, fl.res.Query, fl.res.Object, provider, uint8(hops)))
}

// onQueryHit handles a QueryHit at an intermediate hop or at the source.
func (e *Engine) onQueryHit(n *overlay.Network, to *overlay.Peer, m *msg.Message) {
	fl, ok := e.active[m.Query]
	if !ok {
		return
	}
	if to.ID == fl.source {
		e.deliverHit(fl, int(m.Hops))
		return
	}
	next := fl.parentOf(to.ID)
	if next == msg.NoPeer {
		return
	}
	fl.res.HitMsgs++
	e.net.Send(msg.NewQueryHit(to.ID, next, m.Query, m.Object, m.Provider, m.Hops))
}

// deliverHit records a hit arriving at the source.
func (e *Engine) deliverHit(fl *flood, hops int) {
	fl.res.Hits++
	if !fl.res.Found {
		fl.res.Found = true
		fl.res.FirstHitHops = hops
	}
}
