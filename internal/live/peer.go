package live

import (
	"slices"
	"time"

	"dlm/internal/msg"
	"dlm/internal/overlay"
	"dlm/internal/protocol"
)

// liveEndpoint binds a peer's protocol.Machine to the channel transport.
// The machine invokes it while the owning peer's mutex is held; Send
// takes only n.mu, the innermost lock.
type liveEndpoint struct{ p *Peer }

// Send implements protocol.Endpoint; callers hold p.mu.
func (ep *liveEndpoint) Send(m msg.Message) { ep.p.net.deliver(m) }

// IsLeafNeighbor implements protocol.Endpoint; callers hold p.mu.
func (ep *liveEndpoint) IsLeafNeighbor(id msg.PeerID) bool { return ep.p.leaves.Contains(id) }

// deliverNow encodes m and enqueues it on its addressee's inbox, as the
// simulator delivers by ID: a frame to a peer that has left is lost, and
// a full inbox drops (the live plane is lossy, like the UDP paths real
// overlays use).
func (n *Net) deliverNow(m msg.Message) {
	q := n.peer(m.To)
	if q == nil || q.gone.Load() {
		return
	}
	b := msg.Encode(nil, &m)
	select {
	case q.inbox <- b:
		n.msgs[m.Kind].Add(1)
	default:
		n.droppedKind[m.Kind].Add(1)
	}
}

// run is the peer's goroutine: it consumes protocol messages and runs one
// maintenance round per time unit until the peer leaves.
func (p *Peer) run() {
	defer p.net.wg.Done()
	ticker := time.NewTicker(p.net.cfg.Unit)
	defer ticker.Stop()
	for {
		select {
		case <-p.quit:
			return
		case b := <-p.inbox:
			p.receive(b)
		case <-ticker.C:
			p.tick()
		}
	}
}

// receive decodes one inbox payload and dispatches it. Decode failures
// are counted, never silently discarded: a rising counter is the live
// plane's only visible signal of codec or framing bugs.
func (p *Peer) receive(b []byte) {
	m, _, err := msg.Decode(b)
	if err != nil {
		p.net.decodeErrs.Add(1)
		return
	}
	p.handle(&m)
}

// handle routes one decoded message: search traffic to the query plane,
// everything else into the peer's DLM machine (Phase 1).
func (p *Peer) handle(m *msg.Message) {
	switch m.Kind {
	case msg.KindQuery, msg.KindQueryHit:
		p.handleSearch(m)
		return
	}
	now := p.net.nowUnits()
	p.mu.Lock()
	p.mach.HandleMessage(p.selfLocked(now), m, now, &p.ep)
	p.mu.Unlock()
}

// selfLocked builds the machine's view of this peer; callers hold p.mu.
func (p *Peer) selfLocked(now protocol.Time) protocol.Self {
	return protocol.Self{
		ID:         p.ID,
		Capacity:   p.Capacity,
		Age:        float64(now - p.joined),
		IsSuper:    p.Layer() == overlay.LayerSuper,
		LeafDegree: p.leaves.Len(),
	}
}

// tick is one maintenance round: collect, then decide.
func (p *Peer) tick() {
	p.collect()
	p.decide()
}

// collect is a round's information half, in the simulator's order: link
// repair, the periodic information refresh, then the Phase 1 expiry.
func (p *Peer) collect() {
	if p.gone.Load() {
		return
	}
	p.repairLinks()
	now := p.net.nowUnits()
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.Layer() == overlay.LayerLeaf && p.mach.RefreshDue(now) {
		// μ tracks the network, not the state at connection time.
		self := p.selfLocked(now)
		for _, id := range p.supers.IDs() {
			p.mach.Refresh(self, id, now, &p.ep)
		}
	}
	// Retry or abandon Phase 1 requests whose deadline passed.
	if p.mach.PendingRequests() > 0 {
		r, d := p.mach.ExpirePending(p.selfLocked(now), now, &p.ep)
		p.net.reqRetries.Add(uint64(r))
		p.net.reqDrops.Add(uint64(d))
	}
}

// decide is a round's decision half: the machine's decision step
// (Machine.Decide, the simulator's too), whose layer switch it executes.
func (p *Peer) decide() {
	if p.gone.Load() {
		return
	}
	cfg := &p.net.cfg
	now := p.net.nowUnits()
	var res protocol.EvalResult
	p.mu.Lock()
	decided := p.mach.Decide(p.selfLocked(now), now, float64(cfg.M)*cfg.Eta, cfg.Eta, p.rng, &res)
	p.mu.Unlock()

	if hook := p.net.onDecision; hook != nil && decided {
		hook(p.ID, now, res)
	}
	switch res.Action {
	case protocol.ActionPromote:
		p.promote(now)
	case protocol.ActionDemote:
		p.demote(now)
	}
}

// repairLinks restores the peer's super-degree target with the
// simulator's budget and rule: a draw that hits a super already linked
// uses up an attempt. Each new link runs the event-driven exchange.
func (p *Peer) repairLinks() {
	for range overlay.RepairAttempts(p.wantDegree()) {
		p.mu.Lock()
		var q *Peer
		if p.supers.Len() < p.wantDegree() {
			q = p.net.randomSuper(p.ID, p.rng)
		}
		linked := q != nil && p.supers.Contains(q.ID)
		p.mu.Unlock()
		if q == nil {
			return
		}
		if !linked {
			p.connect(q)
		}
	}
}

// wantDegree returns the peer's super-degree target: M for a leaf, KS for
// a super.
func (p *Peer) wantDegree() int {
	if p.Layer() == overlay.LayerSuper {
		return p.net.cfg.KS
	}
	return p.net.cfg.M
}

// lockPair takes both peers' locks, lower ID first: the one lock order
// of every section that holds two peers.
func lockPair(p, q *Peer) {
	if q.ID < p.ID {
		p, q = q, p
	}
	p.mu.Lock()
	q.mu.Lock()
}

// unlockPair releases what lockPair took.
func unlockPair(p, q *Peer) {
	p.mu.Unlock()
	q.mu.Unlock()
}

// connect links p to the super-peer q (idempotent) and, when p is a leaf,
// runs the Phase 1 exchange under both locks.
func (p *Peer) connect(q *Peer) {
	if q.ID == p.ID || q.gone.Load() || p.gone.Load() {
		return
	}
	lockPair(p, q)
	defer unlockPair(p, q)
	if q.Layer() != overlay.LayerSuper || p.supers.Contains(q.ID) {
		return
	}
	p.supers.Append(q.ID, nil)
	if p.Layer() == overlay.LayerSuper {
		q.supers.Append(p.ID, nil)
		return
	}
	q.leaves.Append(p.ID, nil)
	now := p.net.nowUnits()
	protocol.Exchange(p.mach, &p.ep, q.mach, &q.ep, p.ID, q.selfLocked(now), now)
}

// promote moves the peer to the super-layer: its super links persist as
// super-super links (paper Figure 2) and its DLM state resets.
func (p *Peer) promote(now protocol.Time) {
	n := p.net
	p.mu.Lock()
	n.mu.Lock()
	ok := !n.closed && !p.gone.Load() && !n.supers.Contains(p.ID)
	if ok {
		n.supers.Append(p.ID, nil)
	}
	n.mu.Unlock()
	if !ok {
		p.mu.Unlock()
		return
	}
	p.layer.Store(uint32(overlay.LayerSuper))
	p.mach.Reset(now)
	p.searchSt = nil // a fresh flood ring for the new layer
	links := slices.Clone(p.supers.IDs())
	p.mu.Unlock()

	for _, id := range links {
		if q := n.peer(id); q != nil {
			q.mu.Lock()
			if q.leaves.Remove(p.ID) {
				q.supers.Append(p.ID, nil)
			}
			q.mach.Drop(p.ID)
			q.mu.Unlock()
		}
	}
}

// demote moves the peer to the leaf-layer by the simulator's rule
// (overlay.KeepOnDemotion): it keeps M uniformly drawn super links, cuts
// the rest, orphans its leaves and resets its DLM state. An orphan
// replaces the link on its next tick, as the simulator does under
// overlay.Config.DeferredReconnect.
func (p *Peer) demote(now protocol.Time) {
	n := p.net
	p.mu.Lock()
	n.mu.Lock()
	// Never demote the last super-peer.
	ok := n.supers.Len() > 1 && !p.gone.Load() && n.supers.Remove(p.ID)
	n.mu.Unlock()
	if !ok {
		p.mu.Unlock()
		return
	}
	p.layer.Store(uint32(overlay.LayerLeaf))
	p.mach.Reset(now)
	p.searchSt = nil // a fresh flood ring for the new layer
	links := slices.Clone(p.supers.IDs())
	keep := overlay.KeepOnDemotion(links, n.cfg.M, p.rng)
	for _, id := range links[keep:] {
		p.supers.Remove(id)
	}
	orphans := slices.Clone(p.leaves.IDs())
	p.leaves.Clear(nil)
	p.mu.Unlock()

	for i, id := range links {
		q := n.peer(id)
		if q == nil {
			continue
		}
		if i >= keep {
			q.mu.Lock()
			q.supers.Remove(p.ID)
			q.mu.Unlock()
			continue
		}
		// The kept link is logically a fresh leaf-super connection: re-run
		// the event-driven exchange on it.
		lockPair(p, q)
		if q.supers.Remove(p.ID) {
			q.leaves.Append(p.ID, nil)
			protocol.Exchange(p.mach, &p.ep, q.mach, &q.ep, p.ID, q.selfLocked(now), now)
		}
		unlockPair(p, q)
	}
	for _, id := range orphans {
		// The orphan keeps p in G(l), as every leaf keeps the supers it
		// contacted.
		if q := n.peer(id); q != nil {
			q.mu.Lock()
			q.supers.Remove(p.ID)
			q.mu.Unlock()
		}
	}
}
