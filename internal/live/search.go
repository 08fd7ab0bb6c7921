package live

import (
	"slices"
	"sync/atomic"
	"time"

	"dlm/internal/msg"
	"dlm/internal/overlay"
)

// This file adds the search plane to the live runtime: super-peers answer
// for their leaves' content and flood queries among themselves over the
// same inbox channels the DLM pairs use, with QueryHits routed back along
// the inverse path — the complete super-peer system running on goroutines.

// searchState is the per-peer search-plane state, guarded by Peer.mu: the
// duplicate-flood ring (bounded: oldest evicted).
type searchState struct {
	seen     map[msg.QueryID]msg.PeerID // query -> parent (inverse path)
	seenRing []msg.QueryID
}

const seenCap = 512

func (p *Peer) search() *searchState {
	if p.searchSt == nil {
		p.searchSt = &searchState{seen: make(map[msg.QueryID]msg.PeerID)}
	}
	return p.searchSt
}

// holds reports whether obj is shared by p or by one of its leaves: a
// super's index is its leaf links. Callers hold p.mu; a leaf's Objects
// never change during its session, so reading them needs no other lock.
func (p *Peer) holds(obj msg.ObjectID) bool {
	if slices.Contains(p.Objects, obj) {
		return true
	}
	for _, id := range p.leaves.IDs() {
		if q := p.net.peer(id); q != nil && slices.Contains(q.Objects, obj) {
			return true
		}
	}
	return false
}

// markSeen records the inverse-path parent for a query; it reports false
// when the query was already seen. Callers hold p.mu.
func (s *searchState) markSeen(q msg.QueryID, parent msg.PeerID) bool {
	if _, dup := s.seen[q]; dup {
		return false
	}
	if len(s.seenRing) >= seenCap {
		oldest := s.seenRing[0]
		s.seenRing = s.seenRing[1:]
		delete(s.seen, oldest)
	}
	s.seen[q] = parent
	s.seenRing = append(s.seenRing, q)
	return true
}

// QueryResult is the outcome of one live query.
type QueryResult struct {
	Found bool
	Hits  int
}

// pendingQuery collects hits for a locally issued query.
type pendingQuery struct {
	hits atomic.Int32
}

// Query floods a search for obj from peer p with the given TTL and waits
// up to timeout for hits. Call it from an external goroutine (a test or
// driver), not from inside a peer's own handler — it blocks for the full
// timeout.
func (n *Net) Query(p *Peer, obj msg.ObjectID, ttl uint8, timeout time.Duration) QueryResult {
	qid := msg.QueryID(n.nextQuery.Add(1))
	pq := &pendingQuery{}
	n.pending.Store(qid, pq)
	defer n.pending.Delete(qid)

	p.mu.Lock()
	if p.Layer() == overlay.LayerSuper {
		// Self-processing: answer from own links, then relay.
		p.search().markSeen(qid, msg.NoPeer)
		if p.holds(obj) {
			pq.hits.Add(1)
		}
	}
	for _, id := range p.supers.IDs() {
		n.deliver(msg.NewQuery(p.ID, id, qid, obj, ttl))
	}
	p.mu.Unlock()

	time.Sleep(timeout)
	hits := int(pq.hits.Load())
	return QueryResult{Found: hits > 0, Hits: hits}
}

// handleSearch processes the search-plane message kinds; it is called
// from the peer goroutine (see handle).
func (p *Peer) handleSearch(m *msg.Message) {
	n := p.net
	if _, ok := n.pending.Load(m.Query); ok && m.Kind == msg.KindQueryHit {
		n.recordHit(m.Query) // this peer issued the query
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if m.Kind == msg.KindQueryHit {
		// This peer sits on the inverse path: forward to its recorded
		// parent.
		if p.searchSt != nil {
			if parent := p.searchSt.seen[m.Query]; parent != msg.NoPeer {
				n.deliver(msg.NewQueryHit(p.ID, parent, m.Query, m.Object, m.Provider, m.Hops))
			}
		}
		return
	}
	if p.Layer() != overlay.LayerSuper || !p.search().markSeen(m.Query, m.From) {
		return
	}
	if p.holds(m.Object) {
		n.deliver(msg.NewQueryHit(p.ID, m.From, m.Query, m.Object, p.ID, m.Hops))
	}
	if m.TTL <= 1 {
		return
	}
	for _, id := range p.supers.IDs() {
		if id != m.From {
			fwd := msg.NewQuery(p.ID, id, m.Query, m.Object, m.TTL-1)
			fwd.Hops = m.Hops + 1
			n.deliver(fwd)
		}
	}
}

// recordHit credits a pending local query.
func (n *Net) recordHit(q msg.QueryID) {
	if v, ok := n.pending.Load(q); ok {
		v.(*pendingQuery).hits.Add(1)
	}
}
