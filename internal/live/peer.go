package live

import (
	"time"

	"dlm/internal/msg"
	"dlm/internal/overlay"
	"dlm/internal/protocol"
)

// liveEndpoint binds a peer's protocol.Machine to the channel transport.
// The machine invokes it while the owning peer's mutex is held: Send
// resolves the target from the link maps (already guarded) and enqueues
// on the target's channel without taking any other peer's lock, so no
// lock-ordering hazard arises.
type liveEndpoint struct{ p *Peer }

// Send implements protocol.Endpoint; callers hold p.mu.
func (ep *liveEndpoint) Send(m msg.Message) {
	ep.p.net.deliver(ep.p.peerRef(m.To), m)
}

// IsLeafNeighbor implements protocol.Endpoint; callers hold p.mu.
func (ep *liveEndpoint) IsLeafNeighbor(id msg.PeerID) bool {
	_, ok := ep.p.leaves[id]
	return ok
}

// deliverNow encodes m and enqueues it on q's inbox, dropping on overflow
// (the live plane is lossy, like the UDP paths real overlays use).
func (n *Net) deliverNow(q *Peer, m msg.Message) {
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

// send delivers m to q on p's behalf; the search plane uses it directly.
func (p *Peer) send(q *Peer, m msg.Message) {
	p.net.deliver(q, m)
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
		LeafDegree: len(p.leaves),
	}
}

// peerRef resolves a neighbor reference from either link map; callers
// hold p.mu.
func (p *Peer) peerRef(id msg.PeerID) *Peer {
	if q, ok := p.supers[id]; ok {
		return q
	}
	return p.leaves[id]
}

// tick is one maintenance round: link repair, the periodic information
// refresh, the super-layer l_nn smoothing pass, then a staggered DLM
// evaluation.
func (p *Peer) tick() {
	if p.gone.Load() {
		return
	}
	p.repairLinks()
	now := p.net.nowUnits()
	p.refresh(now)
	p.mu.Lock()
	if p.Layer() == overlay.LayerSuper {
		// The sim engine advances every super's l_nn EWMA once per tick on
		// top of the advance inside Evaluate; mirror that here so both
		// planes trace identical smoothed sequences.
		p.mach.SmoothLnn(float64(len(p.leaves)))
	}
	// Retry or abandon Phase 1 requests whose deadline passed; the
	// endpoint resolves targets from the link maps under the same lock,
	// so a retry toward a vanished neighbor is silently absorbed.
	if p.mach.PendingRequests() > 0 {
		r, d := p.mach.ExpirePending(p.selfLocked(now), now, &p.ep)
		if r > 0 {
			p.net.reqRetries.Add(uint64(r))
		}
		if d > 0 {
			p.net.reqDrops.Add(uint64(d))
		}
	}
	p.mu.Unlock()
	if !protocol.Bernoulli(p.rng, p.net.cfg.Params.EvalProbability) {
		return
	}
	p.evaluate(now)
}

// refresh re-requests l_nn and values from a leaf's current supers every
// RefreshInterval units, so μ tracks the network instead of the state at
// connection time.
func (p *Peer) refresh(now protocol.Time) {
	if p.Layer() != overlay.LayerLeaf {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if !p.mach.RefreshDue(now) {
		return
	}
	for _, q := range p.supers {
		p.mach.Refresh(p.ID, q.ID, now, &p.ep)
	}
}

// repairLinks restores the peer's super-degree target and triggers the
// event-driven information exchange on each new link.
func (p *Peer) repairLinks() {
	want := p.net.cfg.M
	if p.Layer() == overlay.LayerSuper {
		want = p.net.cfg.KS
	}
	for i := 0; i < 2*want; i++ {
		p.mu.Lock()
		deficit := want - len(p.supers)
		p.mu.Unlock()
		if deficit <= 0 {
			return
		}
		q := p.net.randomSuper(p.ID, p.rng)
		if q == nil {
			return
		}
		p.connect(q)
	}
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
	if q == nil || q.ID == p.ID || q.gone.Load() || p.gone.Load() {
		return
	}
	lockPair(p, q)
	defer unlockPair(p, q)
	if q.Layer() != overlay.LayerSuper {
		return
	}
	if _, dup := p.supers[q.ID]; dup {
		return
	}
	p.supers[q.ID] = q
	if p.Layer() == overlay.LayerSuper {
		q.supers[p.ID] = p
		return
	}
	q.leaves[p.ID] = p
	protocol.Exchange(p.mach, &p.ep, q.mach, &q.ep, p.ID, q.ID, p.net.nowUnits())
}

// evaluate runs DLM Phases 2-4 through the peer's machine and executes
// whatever layer switch it requests.
func (p *Peer) evaluate(now protocol.Time) {
	cfg := &p.net.cfg
	kl := float64(cfg.M) * cfg.Eta

	p.mu.Lock()
	res := p.mach.Evaluate(p.selfLocked(now), now, kl, cfg.Eta, p.rng)
	p.mu.Unlock()

	if hook := p.net.onDecision; hook != nil && (res.Evaluated || res.Action != protocol.ActionNone) {
		hook(p.ID, now, res)
	}
	switch res.Action {
	case protocol.ActionPromote:
		p.promote(now)
	case protocol.ActionDemote:
		p.demote(now)
	}
}

// promote moves the peer to the super-layer: its super links persist as
// super-super links (paper Figure 2) and its DLM state resets.
func (p *Peer) promote(now protocol.Time) {
	n := p.net
	n.mu.Lock()
	if n.closed || p.gone.Load() {
		n.mu.Unlock()
		return
	}
	n.supers[p.ID] = p
	n.mu.Unlock()

	p.mu.Lock()
	p.layer.Store(uint32(overlay.LayerSuper))
	p.mach.Reset(now)
	p.searchSt = nil // a fresh flood ring for the new layer
	neighbors := make([]*Peer, 0, len(p.supers))
	for _, q := range p.supers {
		neighbors = append(neighbors, q)
	}
	p.mu.Unlock()

	for _, q := range neighbors {
		q.mu.Lock()
		if _, ok := q.leaves[p.ID]; ok {
			delete(q.leaves, p.ID)
			q.supers[p.ID] = p
		}
		q.mach.Drop(p.ID)
		q.mu.Unlock()
	}
}

// demote moves the peer to the leaf-layer: it keeps at most M super
// links, drops its leaves (each repairs itself with one replacement
// connection — the PAO), and resets its DLM state.
func (p *Peer) demote(now protocol.Time) {
	n := p.net
	n.mu.Lock()
	if len(n.supers) <= 1 || p.gone.Load() {
		n.mu.Unlock()
		return // never demote the last super-peer
	}
	delete(n.supers, p.ID)
	n.mu.Unlock()

	p.mu.Lock()
	p.layer.Store(uint32(overlay.LayerLeaf))
	p.mach.Reset(now)
	p.searchSt = nil // a fresh flood ring for the new layer
	kept := make([]*Peer, 0, n.cfg.M)
	cut := make([]*Peer, 0, len(p.supers))
	for _, q := range p.supers {
		if len(kept) < n.cfg.M {
			kept = append(kept, q)
		} else {
			cut = append(cut, q)
		}
	}
	orphans := make([]*Peer, 0, len(p.leaves))
	for _, q := range p.leaves {
		orphans = append(orphans, q)
	}
	p.supers = make(map[msg.PeerID]*Peer, len(kept))
	for _, q := range kept {
		p.supers[q.ID] = q
	}
	p.leaves = make(map[msg.PeerID]*Peer)
	p.mu.Unlock()

	for _, q := range kept {
		// The kept link is logically a fresh leaf-super connection: re-run
		// the event-driven exchange on it.
		lockPair(p, q)
		delete(q.supers, p.ID)
		q.leaves[p.ID] = p
		protocol.Exchange(p.mach, &p.ep, q.mach, &q.ep, p.ID, q.ID, now)
		unlockPair(p, q)
	}
	for _, q := range cut {
		q.mu.Lock()
		delete(q.supers, p.ID)
		delete(q.leaves, p.ID)
		q.mu.Unlock()
	}
	for _, q := range orphans {
		// The orphan keeps p in G(l), as every leaf keeps the supers it
		// contacted; its own repair restores its degree on its next tick.
		q.mu.Lock()
		delete(q.supers, p.ID)
		q.mu.Unlock()
	}
}
