package overlay

import (
	"fmt"
	"math"

	"dlm/internal/flatidx"
	"dlm/internal/msg"
	"dlm/internal/sim"
	"dlm/internal/stats"
)

// Config carries the structural parameters of the overlay (paper §3 and
// Table 2).
type Config struct {
	// M is the number of super-peer connections each leaf maintains.
	M int
	// KS is the target number of super-layer neighbors per super-peer.
	KS int
	// Eta is the protocol-wide target layer size ratio η = n_l / n_s;
	// every peer knows it (paper assumption).
	Eta float64
	// MaxLeafDegree caps a super-peer's leaf neighbors; 0 means no cap
	// (the paper relies on the randomness of neighbor selection).
	MaxLeafDegree int
	// Latency is the one-hop message delivery delay; 0 delivers inline.
	Latency sim.Duration
	// DeferredReconnect makes leaves orphaned by a super-peer's death or
	// demotion wait for the next repair round instead of reconnecting
	// instantly. This models the discovery/handshake delay of finding a
	// replacement super-peer and exposes the search-blackout window that
	// the leaf redundancy m exists to cover (the reliability study).
	DeferredReconnect bool
	// Link is the fault model applied at the delivery point: loss,
	// jitter, duplication, reordering (see link.go). The zero value is a
	// perfect link and leaves the message plane byte-identical to a
	// config without the field.
	Link Link
}

// KL returns k_l = m·η, the optimal average leaf degree of a super-peer
// (paper Equation a).
func (c Config) KL() float64 { return float64(c.M) * c.Eta }

// Validate reports a descriptive error for out-of-range parameters.
func (c Config) Validate() error {
	switch {
	case c.M <= 0:
		return fmt.Errorf("overlay: M = %d, want > 0", c.M)
	case c.KS <= 0:
		return fmt.Errorf("overlay: KS = %d, want > 0", c.KS)
	case c.Eta <= 0 || math.IsNaN(c.Eta) || math.IsInf(c.Eta, 0):
		return fmt.Errorf("overlay: Eta = %v, want finite > 0", c.Eta)
	case c.MaxLeafDegree < 0:
		return fmt.Errorf("overlay: MaxLeafDegree = %d, want >= 0", c.MaxLeafDegree)
	case c.Latency < 0:
		return fmt.Errorf("overlay: Latency = %v, want >= 0", c.Latency)
	}
	return c.Link.Validate()
}

// Counters tallies lifecycle and connection-overhead events. The PAO/NLCO
// analysis of the paper's Table 3 reads these.
type Counters struct {
	Joins  uint64 // peers that entered the network
	Leaves uint64 // peers that departed (lifetime expiry)

	Promotions uint64 // leaf -> super transitions
	Demotions  uint64 // super -> leaf transitions

	// DemotionDisconnects counts leaf-peers disconnected by a demotion;
	// each needs exactly one replacement connection, so this is the PAO
	// numerator in connection units.
	DemotionDisconnects uint64
	// NewLeafConnections counts connections created by joining leaves
	// (m per join): the NLCO denominator.
	NewLeafConnections uint64
	// ChurnReconnects counts leaf connections re-created because a
	// super-peer died (ordinary churn, not PAO).
	ChurnReconnects uint64
	// RepairConnections counts links added by per-tick degree repair.
	RepairConnections uint64

	// PartitionDrops counts messages discarded because sender and
	// destination were on different sides of an active network partition
	// (see Network.SetPartition). Always zero without a partition.
	PartitionDrops uint64

	// LinkDrops and LinkDups count, per message kind, messages lost to
	// and duplicated by the Config.Link fault model. Always zero on a
	// perfect link.
	LinkDrops [msg.NumKinds]uint64
	LinkDups  [msg.NumKinds]uint64
}

// TotalLinkDrops sums the fault-model drops across message kinds.
func (c Counters) TotalLinkDrops() uint64 {
	var total uint64
	for _, v := range c.LinkDrops {
		total += v
	}
	return total
}

// TotalLinkDups sums the fault-model duplications across message kinds.
func (c Counters) TotalLinkDups() uint64 {
	var total uint64
	for _, v := range c.LinkDups {
		total += v
	}
	return total
}

// PAOOverNLCO returns the paper's PAO/NLCO percentage: demotion-caused
// replacement connections relative to join-caused connections.
func (c Counters) PAOOverNLCO() float64 {
	if c.NewLeafConnections == 0 {
		return 0
	}
	return 100 * float64(c.DemotionDisconnects) / float64(c.NewLeafConnections)
}

// MessageHandler consumes delivered protocol messages of one kind.
type MessageHandler func(n *Network, to *Peer, m *msg.Message)

// Network is the overlay state: all peers in a dense slab store, both
// layer membership sets, the repair deficit set, the message plane, and
// the lifecycle/overhead counters.
type Network struct {
	cfg Config
	eng *sim.Engine
	mgr Manager
	rng *sim.Source
	// linkRng feeds the Link fault model only. It is a separate named
	// stream so that enabling faults does not perturb the draws the
	// structural machinery (neighbor selection, shuffles) observes, and a
	// perfect link never touches it.
	linkRng *sim.Source

	store peerStore
	// spares keeps the heap slices and position indexes that cleared link
	// sets give back, for the next set that spills, regrows or indexes.
	// Only the serial membership path (Join, Leave, the layer surgery,
	// Connect and Disconnect) mutates link sets.
	spares flatidx.Store
	supers layerSet
	leaves layerSet
	nextID msg.PeerID
	// linkActive caches cfg.Link.Active() — checked on every Send, and
	// the config is immutable after New.
	linkActive bool
	// partition, when non-nil, assigns each peer to a side; Send drops
	// messages whose endpoints map to different sides (see SetPartition).
	partition func(msg.PeerID) uint8

	// deficit tracks peers below their layer's super-degree repair target
	// (M for leaves, KS for supers), maintained at every point that moves
	// a super-degree or a layer threshold — so per-tick Repair visits only
	// the peers with work, not the population.
	deficit deficitSet

	traffic  stats.Traffic
	counters Counters

	handlers  [msg.NumKinds]MessageHandler
	observers []Observer

	// parMgr is mgr when it also implements ParallelManager; nil
	// otherwise. Cached at construction — checked on every queued
	// delivery's Batchable.
	parMgr ParallelManager

	// deliverPool recycles delivery events so the message plane stays
	// zero-alloc. It is refilled deliverBlock carriers at a time and never
	// shrinks: it holds at most the most carriers ever in flight at once,
	// rounded up to a block.
	deliverPool []*deliverEvent

	// batchSend buffers the messages produced by batched message handling
	// (ParallelManager.HandleMessageLane); each deliverEvent records its
	// [lo,hi) range and the commit replays them in firing order.
	// batchEpoch (an Engine.BatchID) clears the buffer at its first use in
	// each batch.
	batchSend  []msg.Message
	batchEpoch uint64
	// repairScratch is reused by Repair's membership snapshots (repair
	// runs every tick; the snapshot guards against set reordering while
	// links are added, and must not cost an allocation each round).
	// linkScratch and orphanScratch play the same role for the link
	// surgery in Leave and Demote; neither routine is reentrant (link
	// teardown never triggers another leave or demotion inline).
	repairScratch []msg.PeerID
	linkScratch   []msg.PeerID
	orphanScratch []msg.PeerID
}

// ParallelManager is a Manager whose message handling splits into a
// lane-confined half and a replay: HandleMessageLane must mutate only the
// target peer's own protocol state, draw no randomness, and append
// outgoing messages to out instead of sending them — the overlay replays
// the buffered sends, in firing order, at the batch's commit. Managers
// that implement it let queued deliveries to different peers at one
// timestamp fire as a sim.LaneEvent batch.
type ParallelManager interface {
	Manager
	HandleMessageLane(n *Network, to *Peer, m *msg.Message, lane int, out *[]msg.Message)
}

// deliverBlock is how many carriers an empty deliverPool is refilled
// with, in one allocation.
const deliverBlock = 64

// deliverEvent carries one in-flight message; it implements sim.Event for
// latency-delayed delivery and sim.LaneEvent for same-timestamp batched
// delivery. lane is the lane it was scheduled under (the target's lane at
// send time, or sim.GlobalLane for targets already dead then); lo/hi
// bound its buffered sends in batchSend between EvalLane and CommitLane.
type deliverEvent struct {
	n      *Network
	m      msg.Message
	lane   int32
	lo, hi int32
}

// Fire implements sim.Event.
func (d *deliverEvent) Fire(*sim.Engine) {
	n := d.n
	n.deliver(&d.m)
	n.putDeliver(d)
}

// Batchable reports whether this delivery may fire in split
// eval/commit form: the manager must support lane handling and the kind
// must not have a custom handler (query-plane handlers mutate cross-peer
// flood state). Fault-model and partition draws all happen at Send time
// — original or buffered-commit — so they never constrain batching.
func (d *deliverEvent) Batchable() bool {
	return d.n.parMgr != nil && d.n.handlers[d.m.Kind] == nil
}

// EvalLane runs the lane-local half: the target's protocol state machine
// consumes the message, appending any responses to the batch's send
// buffer. The target is re-looked-up exactly as in Fire — it may have
// died since send; the delivery then evaluates to nothing.
func (d *deliverEvent) EvalLane(e *sim.Engine, lane int) {
	n := d.n
	if n.batchEpoch != e.BatchID() {
		n.batchEpoch = e.BatchID()
		n.batchSend = n.batchSend[:0]
	}
	d.lo = int32(len(n.batchSend))
	if to := n.store.get(d.m.To); to != nil {
		n.parMgr.HandleMessageLane(n, to, &d.m, lane, &n.batchSend)
	}
	d.hi = int32(len(n.batchSend))
}

// CommitLane replays the buffered sends through the ordinary Send path —
// traffic accounting, fault draws and scheduling happen here, in exactly
// the order the serial firing would have produced them.
func (d *deliverEvent) CommitLane(*sim.Engine) {
	n := d.n
	for _, m := range n.batchSend[d.lo:d.hi] {
		n.Send(m)
	}
	d.lo, d.hi = 0, 0
	n.putDeliver(d)
}

// getDeliver returns a pooled carrier stamped with lane, refilling the
// pool with a new block when it is empty.
func (n *Network) getDeliver(lane int32) *deliverEvent {
	if len(n.deliverPool) == 0 {
		block := make([]deliverEvent, deliverBlock)
		for i := range block {
			block[i].n = n
			n.deliverPool = append(n.deliverPool, &block[i])
		}
	}
	l := len(n.deliverPool) - 1
	d := n.deliverPool[l]
	n.deliverPool = n.deliverPool[:l]
	d.lane = lane
	return d
}

func (n *Network) putDeliver(d *deliverEvent) { n.deliverPool = append(n.deliverPool, d) }

// New creates an empty overlay bound to the engine. It panics on an
// invalid config (construction-time bug).
func New(eng *sim.Engine, cfg Config, mgr Manager) *Network {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	if mgr == nil {
		mgr = NopManager{}
	}
	nw := &Network{
		cfg:        cfg,
		eng:        eng,
		mgr:        mgr,
		rng:        eng.Rand().Stream("overlay"),
		linkRng:    eng.Rand().Stream("overlay.link"),
		linkActive: cfg.Link.Active(),
	}
	nw.parMgr, _ = mgr.(ParallelManager)
	return nw
}

// Config returns the overlay parameters.
func (n *Network) Config() Config { return n.cfg }

// Engine returns the simulation engine the overlay is bound to.
func (n *Network) Engine() *sim.Engine { return n.eng }

// Manager returns the layer-management policy.
func (n *Network) Manager() Manager { return n.mgr }

// Now returns the current virtual time.
func (n *Network) Now() sim.Time { return n.eng.Now() }

// Rand returns the overlay's random stream.
func (n *Network) Rand() *sim.Source { return n.rng }

// Counters returns a copy of the lifecycle counters.
func (n *Network) Counters() Counters { return n.counters }

// ResetCounters zeroes the lifecycle counters (used to start a measurement
// window after warm-up).
func (n *Network) ResetCounters() { n.counters = Counters{} }

// Traffic returns a snapshot of the message tallies.
func (n *Network) Traffic() stats.Traffic { return n.traffic.Snapshot() }

// Size returns the number of live peers.
func (n *Network) Size() int { return n.store.Len() }

// NumSupers returns the super-layer size n_s.
func (n *Network) NumSupers() int { return n.supers.Len() }

// NumLeaves returns the leaf-layer size n_l.
func (n *Network) NumLeaves() int { return n.leaves.Len() }

// Ratio returns the current layer size ratio η = n_l/n_s, or +Inf when the
// super-layer is empty.
func (n *Network) Ratio() float64 {
	if n.supers.Len() == 0 {
		return math.Inf(1)
	}
	return float64(n.leaves.Len()) / float64(n.supers.Len())
}

// Peer returns the live peer with the given ID, or nil.
func (n *Network) Peer(id msg.PeerID) *Peer { return n.store.get(id) }

// MaxPeerID returns the highest peer ID handed out so far. IDs are drawn
// from a monotonic counter, so every live peer's ID is in (0, MaxPeerID];
// dense per-peer state can be sized from this bound.
func (n *Network) MaxPeerID() msg.PeerID { return n.nextID }

// SuperIDs returns the super-layer membership in deterministic order.
// The slice is shared; callers must not mutate it.
func (n *Network) SuperIDs() []msg.PeerID { return n.supers.items }

// LeafIDs returns the leaf-layer membership in deterministic order.
// The slice is shared; callers must not mutate it.
func (n *Network) LeafIDs() []msg.PeerID { return n.leaves.items }

// RandomPeer returns a uniformly random live peer, or nil when empty.
func (n *Network) RandomPeer() *Peer {
	total := n.supers.Len() + n.leaves.Len()
	if total == 0 {
		return nil
	}
	if n.rng.Intn(total) < n.supers.Len() {
		id, _ := n.supers.Random(n.rng)
		return n.store.get(id)
	}
	id, _ := n.leaves.Random(n.rng)
	return n.store.get(id)
}

// Observe registers an observer for structural-change notifications.
func (n *Network) Observe(o Observer) { n.observers = append(n.observers, o) }

// SetPartition installs (or, with nil, heals) a network partition: side
// assigns every peer ID to a partition side, and Send discards any
// message whose endpoints are on different sides, counting it in
// Counters.PartitionDrops. Only message delivery is severed — structural
// operations (join, repair, promotion surgery) are overlay bookkeeping,
// not network traffic, and proceed as usual; messages already in flight
// when the partition rises were "on the wire" and still deliver. The
// check draws no randomness, so runs with a nil partition are
// byte-identical to runs built before the switch existed. The side
// function must be deterministic and is called on the message-plane hot
// path; keep it trivial (the scenario pack bisects by ID parity).
func (n *Network) SetPartition(side func(msg.PeerID) uint8) { n.partition = side }

// Handle registers a message handler for one kind. Kinds without an
// explicit handler are dispatched to the Manager.
func (n *Network) Handle(k msg.Kind, h MessageHandler) {
	if !k.Valid() {
		panic(fmt.Sprintf("overlay: handler for invalid kind %v", k))
	}
	n.handlers[k] = h
}

// Send records and delivers a protocol message. The sender spends the
// bandwidth whether or not the message arrives, so it is recorded first;
// then the partition check, then the Link fault model, which is drawn only
// on an active link — a perfect link sends one copy with no extra delay
// and no draw. Link.Draw makes every draw before any copy is delivered,
// since inline delivery can re-enter Send. Delivery is dropped when the
// destination has left the network. Each copy rides a pooled carrier, so
// steady-state sending does not allocate; handlers must not retain the
// *Message past the handler call.
func (n *Network) Send(m msg.Message) {
	n.traffic.Record(&m)
	if n.partition != nil && n.partition(m.From) != n.partition(m.To) {
		// The partition severs link delivery only, and draws nothing: a
		// nil partition leaves the message plane byte-identical.
		n.counters.PartitionDrops++
		return
	}
	copies, extra := 1, [2]sim.Duration{}
	if n.linkActive {
		copies, extra = n.cfg.Link.Draw(n.linkRng)
		switch copies {
		case 0:
			n.counters.LinkDrops[m.Kind]++
			return
		case 2:
			n.counters.LinkDups[m.Kind]++
		}
	}
	for i := 0; i < copies; i++ {
		// Even an inline copy rides a pooled carrier: deliver's manager
		// call is an interface call, so &m would escape and put every Send
		// on the heap. An inline carrier never enters the event plane, so
		// its lane tag is moot.
		delay, lane := n.cfg.Latency+extra[i], int32(sim.GlobalLane)
		if delay > 0 {
			lane = n.laneFor(m.To)
		}
		d := n.getDeliver(lane)
		d.m = m
		switch {
		case delay <= 0:
			d.Fire(n.eng)
		case extra[i] == 0:
			// One constant delay on a clock that never runs backwards:
			// these copies arrive in the order they were sent, so they
			// queue in the engine's FIFO ring and stay out of the heap.
			n.eng.AfterFIFO(int(lane), delay, d)
		default:
			// Jittered copies form no sorted run; the heap orders them.
			n.eng.AfterLane(int(lane), delay, d)
		}
	}
}

// laneFor returns the event lane for a message addressed to id: the
// target's lane, so a batched delivery evaluates on the lane that owns
// the target's state — or sim.GlobalLane when the target is already gone
// (the delivery fires into nothing and has no owner).
func (n *Network) laneFor(id msg.PeerID) int32 {
	if p := n.store.get(id); p != nil {
		return int32(n.LaneOf(p))
	}
	return sim.GlobalLane
}

func (n *Network) deliver(m *msg.Message) {
	to := n.store.get(m.To)
	if to == nil {
		return
	}
	if h := n.handlers[m.Kind]; h != nil {
		h(n, to, m)
		return
	}
	n.mgr.HandleMessage(n, to, m)
}

// Join adds a peer with the given endowment. The manager chooses the
// initial layer, except during bootstrap: while the super-layer is empty,
// the joining peer becomes a super-peer so the network has a backbone.
// It returns the new peer.
func (n *Network) Join(capacity, lifetime float64, objects []msg.ObjectID) *Peer {
	n.nextID++
	p := n.store.acquire(n.nextID)
	p.Capacity = capacity
	p.Lifetime = lifetime
	p.JoinTime = n.eng.Now()
	p.Objects = objects
	p.alive = true
	n.counters.Joins++

	layer := n.mgr.InitialLayer(n, p)
	if n.supers.Len() == 0 {
		layer = LayerSuper // bootstrap: the network needs a backbone
	}
	p.Layer = layer
	if layer == LayerSuper {
		n.supers.Add(p)
		n.connectToRandomSupers(p, n.cfg.KS, nil)
	} else {
		n.leaves.Add(p)
		added := n.connectToRandomSupers(p, n.cfg.M, nil)
		n.counters.NewLeafConnections += uint64(added)
	}
	// The connects above tracked the deficit link by link, but a join that
	// created none (bootstrap super, exhausted candidates) has not been
	// classified yet.
	n.updateDeficit(p)
	for _, o := range n.observers {
		o.OnJoin(n, p)
	}
	return p
}

// Leave removes the peer from the network, tearing down its links. Leaf
// neighbors of a dying super-peer immediately reconnect to one replacement
// super each (ordinary churn reconnection).
func (n *Network) Leave(p *Peer) {
	if !p.alive {
		return
	}
	p.alive = false
	n.counters.Leaves++

	n.linkScratch = append(n.linkScratch[:0], p.superLinks.IDs()...)
	for _, id := range n.linkScratch {
		n.unlink(p, n.store.get(id))
	}
	orphans := append(n.orphanScratch[:0], p.leafLinks.IDs()...)
	n.orphanScratch = orphans
	for _, id := range orphans {
		n.unlink(p, n.store.get(id))
	}
	// The unlinks emptied both sets; their storage goes to the store.
	p.superLinks.Clear(&n.spares)
	p.leafLinks.Clear(&n.spares)
	if p.Layer == LayerSuper {
		n.supers.Remove(p, &n.store)
	} else {
		n.leaves.Remove(p, &n.store)
	}
	// The unlinks above evicted p from the deficit set via updateDeficit
	// (dead peers never qualify), but a peer that died with no super links
	// was never visited; evict explicitly so no dead ID lingers.
	n.deficit.remove(p, &n.store)
	n.store.release(p)

	for _, o := range n.observers {
		o.OnLeave(n, p)
	}

	// Reconnect stranded leaves now that p is out of the candidate set
	// (or leave them for the next repair round under DeferredReconnect).
	if n.cfg.DeferredReconnect {
		return
	}
	for _, id := range orphans {
		q := n.store.get(id)
		if q == nil || !q.alive {
			continue
		}
		if q.SuperDegree() < n.cfg.M {
			if n.connectToRandomSupers(q, q.SuperDegree()+1, nil) > 0 {
				n.counters.ChurnReconnects++
			}
		}
	}
}

// Promote moves a leaf to the super-layer. Its existing super connections
// are kept and become super-layer links (paper Figure 2). Promoting a
// non-leaf is a no-op. No peer is disconnected, so promotion causes no
// PAO.
func (n *Network) Promote(p *Peer) {
	if !p.alive || p.Layer != LayerLeaf {
		return
	}
	old := p.Layer
	n.leaves.Remove(p, &n.store)
	p.Layer = LayerSuper
	n.supers.Add(p)
	// Observers hear the flip before any link moves (see Observer); the
	// manager hears it below, on the rewired topology.
	for _, o := range n.observers {
		o.OnLayerChange(n, p, old)
	}
	for _, id := range p.superLinks.IDs() {
		q := n.store.get(id)
		q.leafLinks.Remove(p.ID)
		q.superLinks.Append(p.ID, &n.spares)
		n.updateDeficit(q)
	}
	// p's degree did not move, but its repair target rose from M to KS.
	n.updateDeficit(p)
	n.counters.Promotions++
	n.mgr.OnLayerChange(n, p, old)
}

// Demote moves a super-peer to the leaf-layer (paper Figure 3): it keeps
// at most M of its super links (which become its leaf-to-super
// connections), drops the rest, and drops all leaf neighbors. Each
// dropped leaf immediately creates one replacement connection; these are
// the Peer Adjustment Overhead. Demoting the last super-peer is refused —
// the overlay must keep a backbone. It reports whether the demotion
// happened.
func (n *Network) Demote(p *Peer) bool {
	if !p.alive || p.Layer != LayerSuper {
		return false
	}
	if n.supers.Len() <= 1 {
		return false
	}
	old := p.Layer
	n.supers.Remove(p, &n.store)
	p.Layer = LayerLeaf
	n.leaves.Add(p)
	// Observers hear the flip before any link moves (see Observer); the
	// manager hears it below, on the rewired topology.
	for _, o := range n.observers {
		o.OnLayerChange(n, p, old)
	}

	// Keep at most M super links, chosen uniformly; the kept neighbors
	// re-classify p as a leaf on their side.
	links := append(n.linkScratch[:0], p.superLinks.IDs()...)
	n.linkScratch = links
	keep := KeepOnDemotion(links, n.cfg.M, n.rng)
	for i, id := range links {
		q := n.store.get(id)
		if i < keep {
			q.superLinks.Remove(p.ID)
			q.leafLinks.Append(p.ID, &n.spares)
			n.updateDeficit(q)
			continue
		}
		n.unlink(p, q)
	}
	// p's repair target dropped from KS to M and its kept links changed.
	n.updateDeficit(p)

	// Drop all leaves; each reconnects once (PAO).
	orphans := append(n.orphanScratch[:0], p.leafLinks.IDs()...)
	n.orphanScratch = orphans
	for _, id := range orphans {
		n.unlink(p, n.store.get(id))
	}
	p.leafLinks.Clear(&n.spares)
	n.counters.Demotions++
	for _, id := range orphans {
		q := n.store.get(id)
		if q == nil || !q.alive {
			continue
		}
		n.counters.DemotionDisconnects++
		if !n.cfg.DeferredReconnect {
			n.connectToRandomSupers(q, q.SuperDegree()+1, p)
		}
	}
	n.mgr.OnLayerChange(n, p, old)
	return true
}

// KeepOnDemotion is the kept-link rule of a demotion (paper Figure 3),
// shared by both planes: it shuffles a demoted super's super links with r
// and returns how many of the leading ones stay, as leaf-to-super links:
// min(m, len(links)). The rest are cut.
func KeepOnDemotion(links []msg.PeerID, m int, r *sim.Source) int {
	r.Shuffle(len(links), func(i, j int) { links[i], links[j] = links[j], links[i] })
	return min(m, len(links))
}

// Connect creates a link between p and q (order irrelevant). It reports
// whether a new link was created. Self-links and duplicate links are
// rejected; linking two leaves is a structural error and panics.
func (n *Network) Connect(p, q *Peer) bool {
	if p == nil || q == nil || p == q || !p.alive || !q.alive {
		return false
	}
	if p.Layer == LayerLeaf && q.Layer == LayerLeaf {
		panic(fmt.Sprintf("overlay: leaf-leaf link %d-%d", p.ID, q.ID))
	}
	if p.HasLink(q.ID) {
		return false
	}
	n.linkInto(p, q)
	n.linkInto(q, p)
	n.mgr.OnConnect(n, p, q)
	for _, o := range n.observers {
		o.OnConnect(n, p, q)
	}
	return true
}

// wantDegree returns p's super-degree repair target: every leaf maintains
// M super connections, every super KS super-layer neighbors.
func (n *Network) wantDegree(p *Peer) int {
	if p.Layer == LayerSuper {
		return n.cfg.KS
	}
	return n.cfg.M
}

// updateDeficit reconciles p's membership in the repair deficit set with
// its current degree, layer and liveness. It is idempotent and O(1), so
// every mutation point below calls it unconditionally.
func (n *Network) updateDeficit(p *Peer) {
	if p.alive && p.SuperDegree() < n.wantDegree(p) {
		n.deficit.add(p)
	} else {
		n.deficit.remove(p, &n.store)
	}
}

// linkInto records q in p's link sets; the caller (Connect) has already
// established that no p<->q link exists.
func (n *Network) linkInto(p, q *Peer) {
	if q.Layer == LayerSuper {
		p.superLinks.Append(q.ID, &n.spares)
		n.updateDeficit(p)
	} else {
		p.leafLinks.Append(q.ID, &n.spares)
	}
}

// unlink removes the p<->q link; either side may already be gone.
func (n *Network) unlink(p, q *Peer) {
	if p == nil || q == nil {
		return
	}
	if p.superLinks.Remove(q.ID) {
		n.updateDeficit(p)
	}
	p.leafLinks.Remove(q.ID)
	if q.superLinks.Remove(p.ID) {
		n.updateDeficit(q)
	}
	q.leafLinks.Remove(p.ID)
	n.mgr.OnDisconnect(n, p, q)
	for _, o := range n.observers {
		o.OnDisconnect(n, p, q)
	}
}

// Disconnect tears down the p<->q link if present.
func (n *Network) Disconnect(p, q *Peer) { n.unlink(p, q) }

// RepairAttempts is the draw budget, shared by both planes, of raising a
// peer's super-degree toward want: each draw picks a uniformly random
// super, and one that is the peer itself or already linked uses up a draw.
func RepairAttempts(want int) int { return 8 * (want + 1) }

// connectToRandomSupers raises p's super-degree toward want by linking to
// uniformly random super-peers (excluding p itself, existing neighbors,
// the optional avoid peer, and supers at their leaf-degree cap when p is a
// leaf). It returns the number of links created.
func (n *Network) connectToRandomSupers(p *Peer, want int, avoid *Peer) int {
	created := 0
	attempts := 0
	maxAttempts := RepairAttempts(want)
	for p.SuperDegree() < want && attempts < maxAttempts {
		attempts++
		id, ok := n.supers.Random(n.rng)
		if !ok {
			break
		}
		q := n.store.get(id)
		if q == p || (avoid != nil && q == avoid) || p.HasLink(id) {
			continue
		}
		if p.Layer == LayerLeaf && n.cfg.MaxLeafDegree > 0 && q.LeafDegree() >= n.cfg.MaxLeafDegree {
			continue
		}
		if n.Connect(p, q) {
			created++
		}
	}
	return created
}

// Repair performs one round of degree maintenance: every leaf below M
// super links and every super below KS super links connects to random
// supers. Repair links are counted separately from join and PAO links.
//
// The candidates come from the incrementally maintained deficit set, not
// a population walk: in steady state almost every peer is at target, so
// the full-population scan of earlier revisions paid O(N) per tick — with
// ID-indexed random access on top — to find a handful of deficient peers.
// That scan was the dominant serial cost of million-peer runs. The set is
// snapshotted first because the connects mutate it (and can add newly
// capped peers); a peer whose deficit was filled mid-round (as the
// partner of an earlier candidate) is skipped by the re-check.
func (n *Network) Repair() {
	n.repairScratch = append(n.repairScratch[:0], n.deficit.items...)
	for _, id := range n.repairScratch {
		p := n.store.get(id)
		if p == nil || !p.alive {
			continue
		}
		if want := n.wantDegree(p); p.SuperDegree() < want {
			n.counters.RepairConnections += uint64(n.connectToRandomSupers(p, want, nil))
		}
	}
}

// Tick runs one maintenance round: repair, then the manager's decisions.
func (n *Network) Tick() {
	n.Repair()
	n.mgr.Tick(n, n.eng.Now())
}
