package core

import (
	"cmp"
	"math"
	"slices"

	"dlm/internal/msg"
	"dlm/internal/overlay"
	"dlm/internal/protocol"
	"dlm/internal/sim"
)

// Manager is the DLM layer-management policy, plugged into an
// overlay.Network. One Manager instance serves the whole simulated
// population, but all of its state is partitioned per peer — one
// protocol.Machine each, in the arena slot of the peer's slab slot — and
// every decision uses only that peer's local information, the
// distributed discipline the paper requires.
type Manager struct {
	P Params

	// ep is the reusable endpoint bound to whichever peer is currently
	// handling a message, and the one the exchanges send through; a
	// per-delivery struct here would be one allocation per message on the
	// exchange hot path.
	ep simEndpoint

	// laneEP is ep's counterpart for batched message handling
	// (HandleMessageLane), which buffers its sends and so never re-enters.
	laneEP laneEndpoint

	// lanes is the per-lane state of the tick's parallel passes: one
	// persistent RNG stream, the collect lists and one result buffer per
	// overlay lane (see overlay.NumLanes and the execution model in Tick).
	// Initialized on first Tick; the buffers are reused every tick.
	lanes []laneState

	// evalLane and collectLane are the tick's two lane callbacks, built
	// once by ensureLanes: sim.ForLanes hands its callback to goroutines
	// when sharded, so a closure built per tick would be a heap object
	// every tick even on a serial engine. They read the tick's inputs
	// from tick, which Tick and collect set before the fan-outs.
	evalLane, collectLane func(lane int)
	tick                  struct {
		n          *overlay.Network
		now        sim.Time
		kl, eta    float64
		refreshing bool
	}

	// due is the collect phase's merge buffer: one of the lanes' collect
	// lists at a time, sorted into slot order (see collect).
	due []*overlay.Peer

	// mach is the machine arena: one protocol.Machine per slab slot,
	// stored inline in append-only chunks so the tick's slot-order walks
	// read machines sequentially instead of chasing one heap pointer per
	// peer — and, since a leaf-sized machine holds its three sets in its
	// own arrays, read nothing else. A chunk is 2048 machines of eight
	// cache lines each, so every machine starts on a line boundary. A
	// peer's machine is the one at its slab slot (see state); chunks are
	// never reallocated, so its address is stable, and it survives slot
	// recycling: the next tenant's InitialLayer resets it. Growth happens
	// only on the serial join path (InitialLayer), never inside a
	// parallel lane.
	mach [][]protocol.Machine

	// spares is the arena's store of released machine storage (see
	// protocol.Spares): a reset machine's heap slices and index wait here
	// for the next machine that spills. Every arena machine is bound to
	// it; the tick's parallel evaluate pass never touches it.
	spares protocol.Spares

	// OnDecision, when set, observes every evaluation the machine
	// actually ran (cooldowns passed, enough evidence) and every
	// requested action (including the empty-G demotion, which skips the
	// comparison), before the action executes. The cross-plane
	// equivalence test uses it to capture the decision sequence.
	OnDecision func(p *overlay.Peer, now sim.Time, res protocol.EvalResult)

	// RequestRetries and RequestDrops aggregate the population's Phase 1
	// timeout activity (see protocol.Machine.ExpirePending): requests
	// re-sent after their deadline, and requests abandoned after the
	// retry budget. Both stay zero on a lossless zero-latency transport.
	RequestRetries uint64
	RequestDrops   uint64
}

// NewManager returns a DLM manager; it panics on invalid params
// (construction bug).
func NewManager(p Params) *Manager {
	if err := p.Validate(); err != nil {
		panic(err)
	}
	return &Manager{P: p}
}

// Name implements overlay.Manager.
func (m *Manager) Name() string { return "dlm" }

// InitialLayer implements overlay.Manager: under DLM every peer joins as a
// leaf and earns promotion (paper §5: "the new peer is always assigned to
// leaf layer first"). Peer structs are recycled by the overlay's slab
// store, so a machine left behind by the slot's previous tenant is reset
// here — at the join instant — rather than allowed to leak stale protocol
// state into the new session. A slot past the arena grows it by whole
// chunks, each machine bound to the manager's params and store as its
// chunk is allocated; this runs on the serial join path only.
func (m *Manager) InitialLayer(n *overlay.Network, p *overlay.Peer) overlay.Layer {
	for int(p.Slot())>>machChunkShift >= len(m.mach) {
		chunk := make([]protocol.Machine, 1<<machChunkShift)
		for i := range chunk {
			chunk[i].Init(&m.P, 0, &m.spares)
		}
		m.mach = append(m.mach, chunk)
	}
	m.state(p).Reset(protocol.Time(n.Now()))
	return overlay.LayerLeaf
}

// machChunkShift sizes the machine-arena chunks: 2048 machines, 768 KB.
// Chunks are allocated whole and never moved, so machine addresses stay
// valid as the arena grows; the paper's own population (n = 2000) fits
// one, and a sweep makes a manager per trial, so a larger chunk is paid
// in every paper2k trial's peak RSS.
const machChunkShift = 11

// state returns the peer's protocol machine: the arena machine at its slab
// slot, which InitialLayer reset at Join. It is called from parallel lanes
// and never allocates.
func (m *Manager) state(p *overlay.Peer) *protocol.Machine {
	s := int(p.Slot())
	return &m.mach[s>>machChunkShift][s&(1<<machChunkShift-1)]
}

// laneState is one lane's slice of the tick's parallel passes.
type laneState struct {
	// rng is the lane's persistent random stream, derived once from the
	// engine's "dlm" stream by lane index. Peer-to-lane assignment is a
	// fixed function of the slab layout (never of the worker count), so
	// the draw sequence each peer observes is identical for any Shards
	// setting — the determinism contract of the sharded tick.
	rng *sim.Source
	// evals buffers the lane's decision results for the serial commit
	// phase, in the lane's slot order.
	evals []laneEval
	// refresh and expire are the lane's collect lists, in the lane's slot
	// order: the leaves whose refresh fell due this tick, and the
	// machines with Phase 1 requests outstanding.
	refresh, expire []*overlay.Peer
}

// laneEval is one buffered evaluation awaiting commit.
type laneEval struct {
	p   *overlay.Peer
	res protocol.EvalResult
}

// ensureLanes builds the per-lane RNG streams and the lane callbacks on
// first use.
func (m *Manager) ensureLanes(n *overlay.Network) {
	if m.lanes != nil {
		return
	}
	root := n.Engine().Rand().Stream("dlm")
	m.lanes = make([]laneState, overlay.NumLanes)
	for i := range m.lanes {
		m.lanes[i].rng = root.StreamN(int64(i))
	}
	m.evalLane, m.collectLane = m.evaluateLane, m.scanLane
}

// selfView builds the machine's per-call view of a peer. It uses the
// *reported* capacity and age: for an honest peer these are bit-identical
// to the true values, and for a misreporting peer (adversarial scenarios)
// the lie is consistent — the peer's outgoing ValueResponses and its own
// promotion evaluations both use the inflated figures, which is exactly
// the capture mechanism the liar scenarios measure.
func selfView(p *overlay.Peer, now sim.Time) protocol.Self {
	return protocol.Self{
		ID:         p.ID,
		Capacity:   p.ReportedCapacity(),
		Age:        p.ReportedAge(now),
		IsSuper:    p.Layer == overlay.LayerSuper,
		LeafDegree: p.LeafDegree(),
	}
}

// simEndpoint implements protocol.Endpoint over the overlay network.
type simEndpoint struct {
	n    *overlay.Network
	self *overlay.Peer
}

// Send implements protocol.Endpoint; the overlay routes by m.To.
func (e *simEndpoint) Send(mm msg.Message) { e.n.Send(mm) }

// IsLeafNeighbor implements protocol.Endpoint.
func (e *simEndpoint) IsLeafNeighbor(id msg.PeerID) bool {
	if !e.self.HasLink(id) {
		return false
	}
	q := e.n.Peer(id)
	return q != nil && q.Layer == overlay.LayerLeaf
}

// laneEndpoint implements protocol.Endpoint for batched message
// handling: sends are buffered into the batch's output slice instead of
// entering the overlay, and the overlay replays them — in firing order —
// at the batch commit. IsLeafNeighbor is simEndpoint's, a pure read of
// state nothing mutates during a batch's eval half.
type laneEndpoint struct {
	simEndpoint
	out *[]msg.Message
}

// Send implements protocol.Endpoint.
func (e *laneEndpoint) Send(mm msg.Message) { *e.out = append(*e.out, mm) }

// OnConnect implements overlay.Manager: under the event-driven policy, a
// new leaf-super link triggers Phase 1 information collection
// (protocol.Exchange).
func (m *Manager) OnConnect(n *overlay.Network, a, b *overlay.Peer) {
	if m.P.Exchange != protocol.EventDriven {
		return
	}
	leaf, super := overlay.LeafSuper(a, b)
	if leaf == nil {
		return // super-super link: G sets are cross-layer only
	}
	m.exchange(n, leaf, super)
}

// exchange runs protocol.Exchange for one leaf-super pair. Both sides send
// through m.ep: the overlay routes by the frame's To field, so one
// endpoint serves either sender.
func (m *Manager) exchange(n *overlay.Network, leaf, super *overlay.Peer) {
	m.ep.n = n
	now := n.Now()
	protocol.Exchange(m.state(leaf), &m.ep, m.state(super), &m.ep, selfView(leaf, now), selfView(super, now), protocol.Time(now))
}

// OnDisconnect implements overlay.Manager. A super forgets a departed
// leaf (G(s) is its *current* leaf neighbors); a leaf keeps the super in
// G(l) — the paper keeps every super contacted since join — subject to
// window pruning at decision time.
func (m *Manager) OnDisconnect(n *overlay.Network, a, b *overlay.Peer) {
	leaf, super := overlay.LeafSuper(a, b)
	if leaf == nil {
		return
	}
	if super.Alive() {
		m.state(super).Drop(leaf.ID)
	}
}

// OnLayerChange implements overlay.Manager. The related set's semantics
// differ per layer, so the machine is reset; the peer then re-collects
// information from its surviving links as if they were fresh connections.
func (m *Manager) OnLayerChange(n *overlay.Network, p *overlay.Peer, old overlay.Layer) {
	now := protocol.Time(n.Now())
	m.state(p).Reset(now)

	switch p.Layer {
	case overlay.LayerSuper:
		// Promotion: previous super connections became super-super links;
		// the former supers must forget p as a leaf.
		for _, id := range p.SuperLinks() {
			if q := n.Peer(id); q != nil {
				m.state(q).Drop(p.ID)
			}
		}
	case overlay.LayerLeaf:
		// Demotion: the kept links are now leaf-to-super connections —
		// logically new, so run the event-driven exchange on them.
		if m.P.Exchange == protocol.EventDriven {
			for _, id := range p.SuperLinks() {
				if q := n.Peer(id); q != nil {
					m.exchange(n, p, q)
				}
			}
		}
	}
}

// HandleMessage implements overlay.Manager by forwarding to the peer's
// machine (Phase 1 message processing). The endpoint is saved and
// restored around the call: at zero latency the overlay delivers
// synchronously, so a response sent by the machine re-enters
// HandleMessage for another peer before this call returns.
func (m *Manager) HandleMessage(n *overlay.Network, to *overlay.Peer, mm *msg.Message) {
	now := n.Now()
	ma := m.state(to)
	saved := m.ep
	m.ep = simEndpoint{n: n, self: to}
	ma.HandleMessage(selfView(to, now), mm, protocol.Time(now), &m.ep)
	m.ep = saved
}

// HandleMessageLane implements overlay.ParallelManager: the lane-local
// half of a batched delivery. It touches only the target's machine and
// the output buffer; the machine's message handling draws no randomness
// (protocol purity), so deferring the sends to the commit is
// unobservable.
func (m *Manager) HandleMessageLane(n *overlay.Network, to *overlay.Peer, mm *msg.Message, lane int, out *[]msg.Message) {
	now := n.Now()
	ma := m.state(to)
	ep := &m.laneEP
	ep.n, ep.self, ep.out = n, to, out
	ma.HandleMessage(selfView(to, now), mm, protocol.Time(now), ep)
	ep.self, ep.out = nil, nil
}

// Tick implements overlay.Manager: one maintenance round for the whole
// population, shaped like a live peer's round (collect, then decide),
// under a tick-window barrier:
//
//   - Collect: Phase 1 information collection (see collect). Its answers
//     land, inline at zero latency, before any evaluation reads them.
//   - Evaluate (lane-parallel): the population is partitioned into the
//     overlay's fixed lanes; each lane walks its slab pages in slot
//     order, runs each machine's decision step (protocol.Machine.Decide)
//     with the lane's own RNG stream, and buffers the result. Everything
//     a machine decision touches is peer-local (its own related set,
//     smoothing state and cooldowns — see internal/protocol), and the
//     shared overlay state is only read, so lanes race on nothing.
//   - Commit (serial): the buffered results are applied in (lane, slot)
//     order — counters, OnDecision, and the Promote/Demote surgery with
//     its message fan-out. Every evaluation therefore sees the overlay as
//     it stood at the start of the pass, and cross-peer effects land in a
//     fixed order that no worker schedule can perturb.
//
// Lane count, lane assignment and lane RNG streams are all independent
// of the engine's Shards setting, so a K-worker tick is byte-identical
// to a serial one for any K.
func (m *Manager) Tick(n *overlay.Network, now sim.Time) {
	m.ensureLanes(n)
	cfg := n.Config()
	m.tick.n, m.tick.now, m.tick.kl, m.tick.eta = n, now, cfg.KL(), cfg.Eta
	m.collect(n, now)

	// Decision phase, pass 1: lane-parallel evaluation. No membership
	// snapshot is needed — layer sets mutate only in the commit pass.
	sim.ForLanes(n.Engine().Shards(), overlay.NumLanes, m.evalLane)

	// Decision phase, pass 2: serial commit in (lane, slot) order.
	for l := range m.lanes {
		evals := m.lanes[l].evals
		for i := range evals {
			m.commit(n, &evals[i], now)
		}
	}
}

// evaluateLane is the evaluate pass over one lane: each peer's decision
// step, buffering the results there is something to commit for.
func (m *Manager) evaluateLane(lane int) {
	ls, t := &m.lanes[lane], &m.tick
	ls.evals = ls.evals[:0]
	pnow := protocol.Time(t.now)
	var res protocol.EvalResult
	t.n.WalkLane(lane, func(p *overlay.Peer) {
		if m.state(p).Decide(selfView(p, t.now), pnow, t.kl, t.eta, ls.rng, &res) {
			ls.evals = append(ls.evals, laneEval{p: p, res: res})
		}
	})
}

// collect is the tick's information half, in a live peer's order: the
// periodic exchange when one falls due, the freshness refreshes that fell
// due, then the retry or abandonment of Phase 1 requests whose deadline
// passed.
//
// A lane-parallel scan finds the work. Each lane lists its leaves for
// which Machine.RefreshDue holds — the call stamps the leaf's own
// machine, a lane-local write like Evaluate's — and its machines with
// requests outstanding. The sends run serially after the barrier: first
// every due leaf's Refresh toward each super link, then every listed
// machine's ExpirePending, each list merged into slot order, so frames
// and their fault draws depart as a serial population walk would send
// them, for any shard count. The expiry list is read before the
// refreshes: a machine whose first outstanding requests come from this
// tick's refresh is missing from it, but their deadlines lie in the
// future, so its expiry would do nothing. Expiry consumes no RNG and
// sends nothing while the tables are empty (every lossless zero-latency
// run).
func (m *Manager) collect(n *overlay.Network, now sim.Time) {
	if m.P.Exchange == protocol.Periodic && math.Mod(float64(now), float64(m.P.PeriodicInterval)) == 0 {
		m.exchangeAll(n)
	}
	m.tick.refreshing = m.P.Exchange == protocol.EventDriven && m.P.RefreshInterval > 0
	if !m.tick.refreshing && m.P.RequestTimeout <= 0 {
		return
	}
	pnow := protocol.Time(now)
	sim.ForLanes(n.Engine().Shards(), overlay.NumLanes, m.collectLane)

	m.ep.n = n
	for _, leaf := range m.bySlot(func(ls *laneState) []*overlay.Peer { return ls.refresh }) {
		m.refresh(n, leaf, pnow)
	}
	for _, p := range m.bySlot(func(ls *laneState) []*overlay.Peer { return ls.expire }) {
		r, d := m.state(p).ExpirePending(p.ID, pnow, &m.ep)
		m.RequestRetries += uint64(r)
		m.RequestDrops += uint64(d)
	}
}

// scanLane is the collect scan over one lane: the leaves whose refresh
// fell due (RefreshDue stamps the leaf's own machine) and the machines
// with requests outstanding.
func (m *Manager) scanLane(lane int) {
	ls, t := &m.lanes[lane], &m.tick
	ls.refresh, ls.expire = ls.refresh[:0], ls.expire[:0]
	pnow := protocol.Time(t.now)
	t.n.WalkLane(lane, func(p *overlay.Peer) {
		ma := m.state(p)
		if t.refreshing && p.Layer == overlay.LayerLeaf && ma.RefreshDue(pnow) {
			ls.refresh = append(ls.refresh, p)
		}
		if ma.PendingRequests() > 0 {
			ls.expire = append(ls.expire, p)
		}
	})
}

// bySlot gathers one collect list from every lane into the manager's
// merge buffer, sorted by slab slot — the order a serial population walk
// visits the peers in.
func (m *Manager) bySlot(list func(*laneState) []*overlay.Peer) []*overlay.Peer {
	due := m.due[:0]
	for l := range m.lanes {
		due = append(due, list(&m.lanes[l])...)
	}
	slices.SortFunc(due, func(a, b *overlay.Peer) int { return cmp.Compare(a.Slot(), b.Slot()) })
	m.due = due
	return due
}

// refresh sends a due leaf's freshness requests toward each of its live
// super links (the leaf's RefreshDue already stamped its clock).
func (m *Manager) refresh(n *overlay.Network, leaf *overlay.Peer, now protocol.Time) {
	lm := m.state(leaf)
	m.ep.n = n
	for _, sid := range leaf.SuperLinks() {
		if super := n.Peer(sid); super != nil && super.Alive() {
			lm.Refresh(leaf.ID, super.ID, now, &m.ep)
		}
	}
}

// commit applies one buffered evaluation: the OnDecision observer, then
// the requested role change (overlay.Counters tallies it). The Promote/Demote
// guards make a stale action safe by construction, but within one tick a
// peer's layer cannot have changed between its evaluation and its commit
// — only its own buffered action moves it, and each peer is buffered at
// most once per tick.
func (m *Manager) commit(n *overlay.Network, ev *laneEval, now sim.Time) {
	if m.OnDecision != nil {
		m.OnDecision(ev.p, now, ev.res)
	}
	switch ev.res.Action {
	case protocol.ActionPromote:
		n.Promote(ev.p)
	case protocol.ActionDemote:
		n.Demote(ev.p)
	}
}

// exchangeAll runs one periodic information-collection round over every
// current leaf-super link, in the population's slot order.
func (m *Manager) exchangeAll(n *overlay.Network) {
	// Direct iteration is safe: information exchange only sends messages,
	// and message handling never mutates membership or links.
	n.WalkPeers(func(leaf *overlay.Peer) {
		if leaf.Layer != overlay.LayerLeaf {
			return
		}
		for _, sid := range leaf.SuperLinks() {
			super := n.Peer(sid)
			if super == nil || !super.Alive() {
				continue
			}
			m.exchange(n, leaf, super)
		}
	})
}
