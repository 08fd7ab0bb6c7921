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
// protocol.Machine each, stored in overlay.Peer.State — and every
// decision uses only that peer's local information, the distributed
// discipline the paper requires.
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

	// lanes is the per-lane state of the tick's parallel decision phase:
	// one persistent RNG stream and one result buffer per overlay lane
	// (see overlay.NumLanes and the execution model in Tick). Initialized
	// on first Tick; the buffers are reused every tick.
	lanes []laneState

	// Refresh calendar: instead of scanning every peer every tick for
	// "lastRefresh older than RefreshInterval" — an O(N)-per-tick walk
	// that was a top-three serial cost at N=1M — leaves are bucketed by
	// the integer tick at which their refresh next comes due. refreshCal
	// maps a due tick to the IDs enrolled for it; refreshTick holds, per
	// slab slot, the tick the slot's peer is currently enrolled for (0 =
	// none), so a peer re-enrolled after a layer change lazily invalidates
	// its old bucket entry. Indexing by slot sizes it by the population,
	// not by the joins ever made; a departed tenant's entries cannot be
	// mistaken for its successor's because the drain resolves each ID
	// first. calProcessed is the last due tick already drained.
	// TestRefreshCalendarComplete pins that no live leaf is ever left
	// without a booking.
	refreshCal   map[int64][]msg.PeerID
	refreshTick  []int32
	calPool      [][]msg.PeerID
	calDue       []*overlay.Peer
	calProcessed int64

	// mach is the machine arena: one protocol.Machine per slab slot,
	// stored inline in append-only chunks so the tick's slot-order walks
	// read machines sequentially instead of chasing one heap pointer per
	// peer — and, since a leaf-sized machine holds its three sets in its
	// own arrays, read nothing else. A chunk is 2048 machines of eight
	// cache lines each, so every machine starts on a line boundary.
	// Peer.State caches the element's address — stable, because chunks
	// are never reallocated — and the machine survives slot recycling:
	// the next tenant's InitialLayer resets it. Growth happens only on
	// the serial join path (InitialLayer), never inside a parallel lane.
	mach [][]protocol.Machine

	// spares is the arena's store of released machine storage (see
	// protocol.Spares): a reset machine's heap slices and index wait here
	// for the next machine that spills. Every arena machine is bound to
	// it; the tick's parallel evaluate pass never touches it.
	spares protocol.Spares

	// pendingLive is a conservative "some request may be outstanding"
	// hint: set whenever a request survives its exchange inline, cleared
	// when the expiry scan finds every table empty. While false, Tick
	// skips the per-peer expiry scan — which on a lossless zero-latency
	// transport is every tick.
	pendingLive bool

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
// state into the new session.
func (m *Manager) InitialLayer(n *overlay.Network, p *overlay.Peer) overlay.Layer {
	if ma, ok := p.State.(*protocol.Machine); ok {
		ma.Reset(protocol.Time(n.Now()))
	} else {
		p.State = m.machineFor(p.Slot(), protocol.Time(n.Now()))
	}
	// Enroll the newcomer in the refresh calendar (lastRefresh == 0, so
	// its first refresh comes due once the clock passes RefreshInterval).
	// The overlay may still bootstrap-override the layer to super; the
	// entry then dies at its due tick's layer check.
	if m.P.Exchange == protocol.EventDriven && m.P.RefreshInterval > 0 {
		m.calEnroll(p, m.calKey(0))
	}
	return overlay.LayerLeaf
}

// machChunkShift sizes the machine-arena chunks: 2048 machines, 1 MB.
// Chunks are allocated whole and never moved, so machine addresses stay
// valid as the arena grows; the paper's own population (n = 2000) fits
// one, and a sweep makes a manager per trial — at 4096 machines a chunk
// paper2k's peak RSS read 30.3 MB, at 2048 it reads 24.4 to 25.2 (28.9
// with the 240-byte machines this arena held before the sets moved in).
const machChunkShift = 11

// machineFor returns the arena machine for slot, initialized for a first
// tenant joining at joined. Callers run on the serial membership path
// only — growth appends to the shared chunk list.
func (m *Manager) machineFor(slot int32, joined protocol.Time) *protocol.Machine {
	c := int(slot) >> machChunkShift
	for c >= len(m.mach) {
		m.mach = append(m.mach, make([]protocol.Machine, 1<<machChunkShift))
	}
	ma := &m.mach[c][int(slot)&(1<<machChunkShift-1)]
	ma.Init(&m.P, joined, &m.spares)
	return ma
}

// state returns the peer's protocol machine: the arena machine
// InitialLayer bound at Join. It is called from parallel lanes and never
// allocates.
func (m *Manager) state(p *overlay.Peer) *protocol.Machine {
	return p.State.(*protocol.Machine)
}

// laneState is one lane's slice of the parallel decision phase.
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
	// due is the lane's scratch for the expiry scan's collect phase.
	due []*overlay.Peer
}

// laneEval is one buffered evaluation awaiting commit.
type laneEval struct {
	p   *overlay.Peer
	res protocol.EvalResult
}

// ensureLanes builds the per-lane RNG streams on first use.
func (m *Manager) ensureLanes(n *overlay.Network) {
	if m.lanes != nil {
		return
	}
	root := n.Engine().Rand().Stream("dlm")
	m.lanes = make([]laneState, overlay.NumLanes)
	for i := range m.lanes {
		m.lanes[i].rng = root.StreamN(int64(i))
	}
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
	lm, sm := m.state(leaf), m.state(super)
	m.ep.n = n
	protocol.Exchange(lm, &m.ep, sm, &m.ep, leaf.ID, super.ID, protocol.Time(n.Now()))
	// On a lossless zero-latency transport every response arrived inline
	// and settled its entry; only when something is still outstanding does
	// the per-tick expiry scan have work to do.
	if lm.PendingRequests() > 0 || sm.PendingRequests() > 0 {
		m.pendingLive = true
	}
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
		// Promotion: supers never refresh; any pending calendar entry
		// turns stale (it skips on the enrollment-tick mismatch).
		if int(p.Slot()) < len(m.refreshTick) {
			m.refreshTick[p.Slot()] = 0
		}
		// Previous super connections became super-super links; the former
		// supers must forget p as a leaf.
		for _, id := range p.SuperLinks() {
			if q := n.Peer(id); q != nil {
				m.state(q).Drop(p.ID)
			}
		}
	case overlay.LayerLeaf:
		// Demotion: the kept links are now leaf-to-super connections —
		// logically new, so run the event-driven exchange on them. The
		// reset above zeroed lastRefresh, so the peer re-enters the
		// calendar exactly as a newcomer would.
		if m.P.Exchange == protocol.EventDriven {
			if m.P.RefreshInterval > 0 {
				m.calEnroll(p, m.calKey(0))
			}
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

// Tick implements overlay.Manager: periodic/refresh exchange, then
// Phase 2-4 evaluation for a staggered subset of peers.
//
// The decision phase runs under a tick-window barrier in two passes:
//
//   - Evaluate (lane-parallel): the population is partitioned into the
//     overlay's fixed lanes; each lane walks its slab pages in slot
//     order, advances each super's l_nn EWMA, draws the staggering
//     Bernoulli from the lane's own RNG stream, runs the machine
//     evaluation, and buffers the result. Everything a machine evaluation
//     touches is peer-local (its own related set, smoothing state and
//     cooldowns — see internal/protocol), and the shared overlay state is
//     only read, so lanes race on nothing.
//   - Commit (serial): the buffered results are applied in (lane, slot)
//     order — counters, OnDecision, and the Promote/Demote surgery with
//     its message fan-out. Every evaluation therefore sees the overlay as
//     it stood at the start of the tick, and cross-peer effects land in a
//     fixed order that no worker schedule can perturb.
//
// Lane count, lane assignment and lane RNG streams are all independent
// of the engine's Shards setting, so a K-worker tick is byte-identical
// to a serial one for any K.
func (m *Manager) Tick(n *overlay.Network, now sim.Time) {
	// Information collection for the non-event-driven paths.
	if m.P.Exchange == protocol.Periodic && math.Mod(float64(now), float64(m.P.PeriodicInterval)) == 0 {
		m.exchangeAll(n)
	} else if m.P.Exchange == protocol.EventDriven && m.P.RefreshInterval > 0 {
		m.refreshDue(n, now)
	}

	// Retry or abandon Phase 1 requests whose deadline has passed. This
	// runs before the decision phase so a retry's inline response can
	// still inform this tick's evaluations; it consumes no RNG, so it is
	// invisible to the determinism baselines whenever the tables are
	// empty (every lossless zero-latency run).
	// pendingLive is a conservative reachability hint: it is set whenever
	// a request survives its exchange, and recomputed by the scan itself,
	// so skipping the scan while it is false is behavior-identical — the
	// scan would visit only empty tables.
	if m.P.RequestTimeout > 0 && m.pendingLive {
		m.pendingLive = m.expireAll(n, now) > 0
	}

	// Decision phase, pass 1: lane-parallel evaluation. No membership
	// snapshot is needed — layer sets mutate only in the commit pass.
	m.ensureLanes(n)
	cfg := n.Config()
	kl, eta := cfg.KL(), cfg.Eta
	pnow := protocol.Time(now)
	sim.ForLanes(n.Engine().Shards(), overlay.NumLanes, func(lane int) {
		ls := &m.lanes[lane]
		ls.evals = ls.evals[:0]
		n.WalkLane(lane, func(p *overlay.Peer) {
			ma := m.state(p)
			if p.Layer == overlay.LayerSuper {
				// Advance the l_nn EWMA once per tick, decisions or
				// not, so the smoothing cadence is uniform.
				ma.SmoothLnn(float64(p.LeafDegree()))
			}
			if !ls.rng.Bernoulli(m.P.EvalProbability) {
				return
			}
			res := ma.Evaluate(selfView(p, now), pnow, kl, eta, ls.rng)
			if res.Evaluated || res.Action != protocol.ActionNone {
				ls.evals = append(ls.evals, laneEval{p: p, res: res})
			}
		})
	})

	// Decision phase, pass 2: serial commit in (lane, slot) order.
	for l := range m.lanes {
		evals := m.lanes[l].evals
		for i := range evals {
			m.commit(n, &evals[i], now)
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

// calKey returns the calendar bucket — the integer tick — at which a
// machine whose lastRefresh is last next comes due: the first tick t with
// t - last >= RefreshInterval that has not already been processed. With
// last == 0 (fresh or reset machines) that is the first tick past the
// interval itself, matching RefreshDue's arithmetic exactly.
func (m *Manager) calKey(last protocol.Time) int64 {
	k := int64(math.Ceil(float64(last) + float64(m.P.RefreshInterval)))
	if min := m.calProcessed + 1; k < min {
		k = min
	}
	return k
}

// calEnroll books p into the bucket for tick key. A peer is enrolled in
// at most one live bucket: refreshTick records the booking, and an entry
// whose bucket no longer matches it (the peer was re-enrolled or cleared
// since) is skipped unprocessed when its bucket drains.
func (m *Manager) calEnroll(p *overlay.Peer, key int64) {
	slot := int(p.Slot())
	if slot >= len(m.refreshTick) {
		grown := make([]int32, slot+1+len(m.refreshTick)/2)
		copy(grown, m.refreshTick)
		m.refreshTick = grown
	}
	m.refreshTick[slot] = int32(key)
	if m.refreshCal == nil {
		m.refreshCal = make(map[int64][]msg.PeerID)
	}
	b, ok := m.refreshCal[key]
	if !ok {
		if l := len(m.calPool); l > 0 {
			b = m.calPool[l-1][:0]
			m.calPool = m.calPool[:l-1]
		}
	}
	m.refreshCal[key] = append(b, p.ID)
}

// refreshDue re-runs the exchange for leaves whose last refresh is older
// than RefreshInterval, keeping μ estimates fresh on long-lived links.
// Due leaves come from the refresh calendar, not a population walk: each
// drained bucket is filtered (dead, re-enrolled, or promoted peers skip),
// sorted by slab slot — the order a full population walk would visit
// them in, so frames depart in an order no bucket history can perturb.
// Every surviving leaf re-enrolls for its next due tick, so per-tick work
// is proportional to the leaves actually due, not to the population.
func (m *Manager) refreshDue(n *overlay.Network, now sim.Time) {
	pnow := protocol.Time(now)
	last := int64(math.Floor(float64(now)))
	for m.calProcessed < last {
		// Advance before draining, so re-enrollments from inside the
		// drain land strictly after the bucket being drained.
		m.calProcessed++
		key := m.calProcessed
		bucket, ok := m.refreshCal[key]
		if !ok {
			continue
		}
		delete(m.refreshCal, key)
		due := m.calDue[:0]
		for _, id := range bucket {
			// A dead peer's slot may hold a successor's booking; resolving
			// the ID first leaves that booking alone.
			p := n.Peer(id)
			if p == nil || m.refreshTick[p.Slot()] != int32(key) {
				continue
			}
			m.refreshTick[p.Slot()] = 0
			if p.Layer == overlay.LayerLeaf {
				due = append(due, p)
			}
		}
		m.calPool = append(m.calPool, bucket)
		slices.SortFunc(due, bySlot)
		m.calDue = due
		for _, leaf := range due {
			m.refreshOne(n, leaf, pnow)
		}
	}
}

// bySlot orders peers by slab slot; slots are unique, so the order is
// total and any sort yields the same result.
func bySlot(a, b *overlay.Peer) int { return cmp.Compare(a.Slot(), b.Slot()) }

// refreshOne runs one leaf's refresh exchange and re-enrolls the leaf
// for its next due tick.
func (m *Manager) refreshOne(n *overlay.Network, leaf *overlay.Peer, pnow protocol.Time) {
	lm := m.state(leaf)
	if !lm.RefreshDue(pnow) {
		// Stamped more recently than the booking (defensive; bookings are
		// invalidated on re-enrollment, so this should not trigger).
		m.calEnroll(leaf, m.calKey(lm.RefreshAt()))
		return
	}
	m.ep.n = n
	for _, sid := range leaf.SuperLinks() {
		if super := n.Peer(sid); super != nil && super.Alive() {
			lm.Refresh(leaf.ID, super.ID, pnow, &m.ep)
		}
	}
	if lm.PendingRequests() > 0 {
		m.pendingLive = true
	}
	m.calEnroll(leaf, m.calKey(lm.RefreshAt()))
}

// expireAll runs the pending-request expiry for every machine with
// outstanding requests, returning the number of requests still
// outstanding afterwards (the caller's pendingLive recomputation).
//
// The scan half — finding machines with outstanding requests, a pure
// read — fans out over the lanes; the expiries themselves (which re-send
// request frames) then run serially. Merging the per-lane candidate
// lists by slab slot reconstructs exactly the slot order the serial
// full-population walk used, so the retry frames depart in the same
// order for any shard count.
func (m *Manager) expireAll(n *overlay.Network, now sim.Time) int {
	m.ensureLanes(n)
	sim.ForLanes(n.Engine().Shards(), overlay.NumLanes, func(lane int) {
		ls := &m.lanes[lane]
		ls.due = ls.due[:0]
		n.WalkLane(lane, func(p *overlay.Peer) {
			if ma, ok := p.State.(*protocol.Machine); ok && ma.PendingRequests() > 0 {
				ls.due = append(ls.due, p)
			}
		})
	})
	due := m.calDue[:0]
	for l := range m.lanes {
		due = append(due, m.lanes[l].due...)
	}
	slices.SortFunc(due, bySlot)
	m.calDue = due

	live := 0
	for _, p := range due {
		ma := p.State.(*protocol.Machine)
		saved := m.ep
		m.ep = simEndpoint{n: n, self: p}
		r, d := ma.ExpirePending(selfView(p, now), protocol.Time(now), &m.ep)
		m.ep = saved
		m.RequestRetries += uint64(r)
		m.RequestDrops += uint64(d)
		live += ma.PendingRequests()
	}
	return live
}
