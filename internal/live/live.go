// Package live runs the DLM protocol over real goroutines: every peer is
// a goroutine with an inbox of encoded protocol messages, links are the
// simulator's ordered ID sets, a frame goes to its addressee's inbox by
// ID, and time is wall-clock (one protocol "time unit" is a configurable
// real duration). It validates the claim that every DLM
// decision is computable from peer-local state under true concurrency —
// each peer drives the same protocol.Machine as the discrete-event
// simulation plane (a claim the cross-plane equivalence test makes
// executable), with none of the engine's global ordering.
//
// The discrete-event simulator (internal/overlay + internal/core) remains
// the measurement instrument; this runtime is the existence proof and a
// natural fit for Go's concurrency model.
package live

import (
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"dlm/internal/flatidx"
	"dlm/internal/msg"
	"dlm/internal/overlay"
	"dlm/internal/protocol"
	"dlm/internal/sim"
)

// Config parameterizes a live network.
type Config struct {
	// M is the super connections per leaf; KS the super-layer degree
	// target; Eta the protocol-wide target ratio.
	M, KS int
	Eta   float64
	// Params are the DLM tunables (zero value: protocol.DefaultParams()).
	Params protocol.Params
	// Unit is the real-time length of one protocol time unit.
	Unit time.Duration
	// InboxSize bounds each peer's mailbox; full mailboxes drop (as UDP
	// would).
	InboxSize int
	// Seed derives per-peer RNG streams.
	Seed int64
	// Link is the fault model every delivery draws from (see faults.go),
	// as on the simulation plane; its delays are in protocol time units,
	// scaled by Unit at delivery. The zero value is a perfect link.
	Link overlay.Link
}

func (c *Config) defaults() {
	if c.M <= 0 {
		c.M = 2
	}
	if c.KS <= 0 {
		c.KS = 3
	}
	if c.Eta <= 0 {
		c.Eta = 10
	}
	if c.Unit <= 0 {
		c.Unit = 10 * time.Millisecond
	}
	if c.InboxSize <= 0 {
		c.InboxSize = 256
	}
	if (c.Params == protocol.Params{}) {
		c.Params = protocol.DefaultParams()
	}
}

// Net is a live peer-to-peer network.
//
// Locks: a peer's mutex guards its link sets, machine and RNG; n.mu
// guards the peer table and the super-layer set and is the innermost
// lock. A peer may take n.mu while it holds its own mutex, and nothing
// that holds n.mu takes a peer's mutex. Two peer mutexes are only ever
// taken together by lockPair.
type Net struct {
	cfg Config

	// start anchors the protocol clock; nowFn is swappable so the
	// equivalence test can drive the plane on a virtual clock.
	start time.Time
	nowFn func() time.Time

	mu sync.Mutex
	// peers holds every peer by ID (IDs are dense from 1, so peers[0] is
	// the absent msg.NoPeer); a departed peer's entry is nil.
	peers  []*Peer
	supers flatidx.Set // the super layer; like every live set, storeless
	closed bool

	wg sync.WaitGroup

	msgs        [msg.NumKinds]atomic.Uint64
	droppedKind [msg.NumKinds]atomic.Uint64
	decodeErrs  atomic.Uint64

	// rng roots the plane's random streams and never draws itself: peer
	// id draws from rng.StreamN(id), the link model from linkRng.
	rng *sim.Source
	// linkRng draws cfg.Link's faults; every sender goroutine shares it,
	// so linkMu guards it. faultDrops/faultDups tally the draws per kind.
	linkMu     sync.Mutex
	linkRng    *sim.Source
	faultDrops [msg.NumKinds]atomic.Uint64
	faultDups  [msg.NumKinds]atomic.Uint64
	// reqRetries/reqDrops aggregate the Phase 1 timeout activity across
	// all peers (see protocol.Machine.ExpirePending).
	reqRetries atomic.Uint64
	reqDrops   atomic.Uint64

	// manual suppresses the per-peer goroutines; the equivalence test
	// drives peers synchronously instead.
	manual bool
	// onDecision observes every machine evaluation that ran or requested
	// an action; the cross-plane equivalence test captures the decision
	// sequence through it.
	onDecision func(id msg.PeerID, now protocol.Time, res protocol.EvalResult)

	// Search plane: pending locally issued queries and the query-ID
	// counter.
	nextQuery atomic.Uint64
	pending   sync.Map // msg.QueryID -> *pendingQuery
}

// NewNet creates a live network; Stop must be called to release it. It
// panics on invalid Params or Link, or a periodic Exchange (construction bug).
func NewNet(cfg Config) *Net {
	cfg.defaults()
	if err := cfg.Params.Validate(); err != nil {
		panic(err)
	}
	if cfg.Params.Exchange != protocol.EventDriven {
		panic("live: Params.Exchange must be event-driven (a live peer runs no periodic round)")
	}
	if err := cfg.Link.Validate(); err != nil {
		panic(err)
	}
	rng := sim.NewSource(cfg.Seed)
	return &Net{
		cfg:     cfg,
		start:   time.Now(),
		nowFn:   time.Now,
		peers:   []*Peer{nil},
		rng:     rng,
		linkRng: rng.Stream("link"),
	}
}

// peer returns the live peer with the given ID, or nil: the one lookup
// every frame, link and neighbor walk goes through.
func (n *Net) peer(id msg.PeerID) *Peer {
	n.mu.Lock()
	defer n.mu.Unlock()
	if int(id) < len(n.peers) {
		return n.peers[id]
	}
	return nil
}

// nowUnits returns the current protocol time: real time elapsed since
// the network started, in units of cfg.Unit.
func (n *Net) nowUnits() protocol.Time {
	return protocol.Time(float64(n.nowFn().Sub(n.start)) / float64(n.cfg.Unit))
}

// Peer is one live participant. All of its protocol state lives in a
// protocol.Machine private to it and guarded by its own mutex; the layer
// is additionally atomic so other goroutines can classify it cheaply.
type Peer struct {
	ID       msg.PeerID
	Capacity float64
	// Objects is the peer's shared content (immutable for the session).
	Objects []msg.ObjectID

	net    *Net
	inbox  chan []byte
	quit   chan struct{}
	joined protocol.Time
	layer  atomic.Uint32 // an overlay.Layer
	gone   atomic.Bool

	// mu guards the link sets (ordered, as the simulator's), the machine,
	// the RNG stream (every draw happens under it) and the search state.
	mu       sync.Mutex
	supers   flatidx.Set
	leaves   flatidx.Set
	mach     *protocol.Machine
	ep       liveEndpoint
	rng      *sim.Source
	searchSt *searchState
}

// Layer returns the peer's current layer.
func (p *Peer) Layer() overlay.Layer { return overlay.Layer(p.layer.Load()) }

// AgeUnits returns the peer's age in protocol time units.
func (p *Peer) AgeUnits() float64 {
	return float64(p.net.nowUnits() - p.joined)
}

// Join spawns a new peer goroutine sharing objects on the search plane
// (nil for none). While the super-layer is empty the joining peer
// bootstraps it; otherwise it joins as a leaf and connects to M random
// super-peers. It returns nil once the network is stopped.
func (n *Net) Join(capacity float64, objects []msg.ObjectID) *Peer {
	now := n.nowUnits()
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return nil
	}
	id := msg.PeerID(len(n.peers))
	p := &Peer{
		ID:       id,
		Capacity: capacity,
		Objects:  objects,
		net:      n,
		inbox:    make(chan []byte, n.cfg.InboxSize),
		quit:     make(chan struct{}),
		joined:   now,
		mach:     protocol.NewMachine(&n.cfg.Params, now),
		rng:      n.rng.StreamN(int64(id)),
	}
	p.ep = liveEndpoint{p: p}
	n.peers = append(n.peers, p)
	bootstrap := n.supers.Len() == 0
	if bootstrap {
		p.layer.Store(uint32(overlay.LayerSuper))
		n.supers.Append(id, nil)
	}
	manual := n.manual
	n.mu.Unlock()

	if !bootstrap {
		p.repairLinks()
	}
	if !manual {
		n.wg.Add(1)
		go p.run()
	}
	return p
}

// Leave removes the peer from the network and stops its goroutine.
func (n *Net) Leave(p *Peer) {
	if !p.gone.CompareAndSwap(false, true) {
		return
	}
	n.mu.Lock()
	n.peers[p.ID] = nil
	n.supers.Remove(p.ID)
	n.mu.Unlock()
	close(p.quit)

	// Detach from neighbors; their repair loops restore degree.
	p.mu.Lock()
	neighbors := append(slices.Clone(p.supers.IDs()), p.leaves.IDs()...)
	p.supers.Clear(nil)
	p.leaves.Clear(nil)
	p.mu.Unlock()
	for _, id := range neighbors {
		q := n.peer(id)
		if q == nil {
			continue
		}
		q.mu.Lock()
		q.supers.Remove(p.ID)
		// A super forgets a departed leaf (G(s) is its current leaves); a
		// leaf keeps a departed super in G(l) until LeafWindow prunes it.
		if q.leaves.Remove(p.ID) {
			q.mach.Drop(p.ID)
		}
		q.mu.Unlock()
	}
}

// Stop terminates every peer, in join order, and waits for all
// goroutines.
func (n *Net) Stop() {
	n.mu.Lock()
	n.closed = true
	peers := slices.Clone(n.peers)
	n.mu.Unlock()
	for _, p := range peers {
		if p != nil {
			n.Leave(p)
		}
	}
	n.wg.Wait()
}

// Messages returns the count of messages delivered for a kind.
func (n *Net) Messages(k msg.Kind) uint64 {
	if !k.Valid() {
		return 0
	}
	return n.msgs[k].Load()
}

// Dropped returns the number of messages dropped on full inboxes.
func (n *Net) Dropped() uint64 { return sum(&n.droppedKind) }

// DroppedByKind returns the number of messages of one kind dropped on
// full inboxes.
func (n *Net) DroppedByKind(k msg.Kind) uint64 {
	if !k.Valid() {
		return 0
	}
	return n.droppedKind[k].Load()
}

// DecodeErrors returns the number of inbox payloads that failed to
// decode (and were therefore discarded before reaching the protocol).
func (n *Net) DecodeErrors() uint64 { return n.decodeErrs.Load() }

// RequestRetries returns the population's cumulative Phase 1 timeout
// retries (requests re-sent after their deadline passed).
func (n *Net) RequestRetries() uint64 { return n.reqRetries.Load() }

// RequestDrops returns the population's cumulative abandoned Phase 1
// requests (retry budget spent without an answer).
func (n *Net) RequestDrops() uint64 { return n.reqDrops.Load() }

// Snapshot summarizes both layers in the simulator's terms, Time in
// protocol units; each peer is read under its own mutex.
func (n *Net) Snapshot() overlay.LayerStats {
	now := n.nowUnits()
	n.mu.Lock()
	peers := slices.Clone(n.peers)
	n.mu.Unlock()
	s := overlay.LayerStats{Time: float64(now)}
	for _, p := range peers {
		if p == nil {
			continue
		}
		p.mu.Lock()
		s.Add(p.Layer() == overlay.LayerSuper, p.Capacity, float64(now-p.joined), p.supers.Len(), p.leaves.Len())
		p.mu.Unlock()
	}
	s.Finish()
	return s
}

// randomSuper picks a uniformly random super-peer other than exclude, or
// nil. The caller holds its own mutex, which guards rng.
func (n *Net) randomSuper(exclude msg.PeerID, rng *sim.Source) *Peer {
	n.mu.Lock()
	defer n.mu.Unlock()
	k, skip := n.supers.Len(), n.supers.Index(exclude)
	if skip >= 0 {
		k--
	}
	if k <= 0 {
		return nil
	}
	i := rng.Intn(k)
	if skip >= 0 && i >= skip {
		i++
	}
	return n.peers[n.supers.IDs()[i]]
}
