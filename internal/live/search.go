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
	for _, q := range p.leaves {
		if slices.Contains(q.Objects, obj) {
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
	targets := make([]*Peer, 0, len(p.supers))
	for _, q := range p.supers {
		targets = append(targets, q)
	}
	p.mu.Unlock()
	for _, q := range targets {
		p.send(q, msg.NewQuery(p.ID, q.ID, qid, obj, ttl))
	}

	time.Sleep(timeout)
	hits := int(pq.hits.Load())
	return QueryResult{Found: hits > 0, Hits: hits}
}

// handleSearch processes the search-plane message kinds; it is called
// from the peer goroutine (see handle).
func (p *Peer) handleSearch(m *msg.Message) {
	switch m.Kind {
	case msg.KindQuery:
		if p.Layer() != overlay.LayerSuper {
			return
		}
		p.mu.Lock()
		if !p.search().markSeen(m.Query, m.From) {
			p.mu.Unlock()
			return
		}
		hit := p.holds(m.Object)
		var targets []*Peer
		if m.TTL > 1 {
			targets = make([]*Peer, 0, len(p.supers))
			for _, q := range p.supers {
				if q.ID != m.From {
					targets = append(targets, q)
				}
			}
		}
		from := p.peerRef(m.From)
		p.mu.Unlock()

		if hit {
			if from != nil {
				p.send(from, msg.NewQueryHit(p.ID, m.From, m.Query, m.Object, p.ID, m.Hops))
			} else {
				// The querier is not a direct neighbor only when the
				// query originated here; count locally.
				p.net.recordHit(m.Query)
			}
		}
		for _, q := range targets {
			fwd := msg.NewQuery(p.ID, q.ID, m.Query, m.Object, m.TTL-1)
			fwd.Hops = m.Hops + 1
			p.send(q, fwd)
		}

	case msg.KindQueryHit:
		// Either this peer issued the query (deliver) or it sits on the
		// inverse path (forward to its recorded parent).
		if _, ok := p.net.pending.Load(m.Query); ok {
			p.net.recordHit(m.Query)
			return
		}
		p.mu.Lock()
		var parent msg.PeerID
		if p.searchSt != nil {
			parent = p.searchSt.seen[m.Query]
		}
		next := p.peerRef(parent)
		p.mu.Unlock()
		if next != nil {
			p.send(next, msg.NewQueryHit(p.ID, parent, m.Query, m.Object, m.Provider, m.Hops))
		}
	}
}

// recordHit credits a pending local query.
func (n *Net) recordHit(q msg.QueryID) {
	if v, ok := n.pending.Load(q); ok {
		v.(*pendingQuery).hits.Add(1)
	}
}
