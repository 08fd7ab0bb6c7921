package live

import (
	"fmt"
	"slices"
	"testing"
	"time"

	"dlm/internal/core"
	"dlm/internal/msg"
	"dlm/internal/overlay"
	"dlm/internal/protocol"
	"dlm/internal/sim"
)

// TestCrossPlaneEquivalence drives the same scripted scenario through
// both adapters of the protocol core — the discrete-event simulation
// plane (internal/core on internal/overlay) and the goroutine plane
// (this package, on a virtual clock in manual mode) — and requires the
// two decision sequences to be identical: same peers, same times, same
// μ, Y and l_nn values, same promotions and demotions; and the final
// topologies to be identical link for link.
//
// The scenario is built so that no RNG draw ever decides anything. On
// the decision path, EvalProbability = 1 and RateLimit = false both skip
// their Bernoulli draw by the no-draw-at-boundary rule. Every link choice
// has a single candidate: every join happens while peer 1 is the only
// super, M = KS = 1, and peer 1 (far the largest and oldest) never
// demotes, so every other super is a promoted leaf whose one link is its
// super link to peer 1, and every demotion keeps that link and orphans
// no leaf. The refresh clock and the leaf window draw nothing either, so
// leaves refresh and prune on both planes. All times are small integers
// (exact in float64), and message hand-off granularity matches: the live
// side drains every inbox to empty after each join and after each peer's
// collect and decide half, which reproduces the simulator's inline
// (zero-latency) delivery.
//
// Timeline: 24 peers join at t = 0, peer 1 bootstrapping the super
// layer, and 8 more at t = 1. Leaves that saw a long leaf list at peer 1
// promote; a promoted peer holds no leaves, so the empty-G rule demotes
// it again, and the kept link re-runs the exchange. One leaf departs at
// t = 6.
type decRec struct {
	id        msg.PeerID
	now       float64
	evaluated bool
	action    protocol.Action
	mu        float64
	yCapa     float64
	yAge      float64
	lnn       float64
}

func makeRec(id msg.PeerID, now float64, res protocol.EvalResult) decRec {
	return decRec{
		id:        id,
		now:       now,
		evaluated: res.Evaluated,
		action:    res.Action,
		mu:        res.Decision.Mu,
		yCapa:     res.Decision.YCapa,
		yAge:      res.Decision.YAge,
		lnn:       res.Lnn,
	}
}

// equivParams returns the scenario's parameters with leaf window w.
// Refresh and pruning draw nothing, so both stay on: leaves refresh every
// 4 units, and a window of 6 keeps a refreshed super in G(l) through the
// l_nn re-stamp while a window of 2 prunes it between rounds, so the next
// round asks for its values again.
func equivParams(w protocol.Duration) protocol.Params {
	p := protocol.DefaultParams()
	p.EvalProbability = 1 // every peer evaluates every tick, no draw
	p.RateLimit = false   // eligible switches always execute, no draw
	p.RefreshInterval = 4
	p.LnnSmoothing = 0
	p.DecisionCooldown = 1
	p.DemotionCooldown = 3
	p.EmptyGDemoteAfter = 3
	p.LeafWindow = w
	return p
}

// equivTicks runs refresh rounds at t = 4, 8, …, 24, all after the last
// join at t = 1.
const equivTicks = 24

// equivEvent is one scripted membership change, made at the start of tick
// t (t = 0: before the first tick): a join with capacity cap, or, when cap
// is 0, the departure of peer leave.
type equivEvent struct {
	t     int
	cap   float64
	leave msg.PeerID
}

func equivScript() []equivEvent {
	script := []equivEvent{{t: 0, cap: 100}}
	for i := 1; i < 32; i++ {
		t := 0
		if i >= 24 {
			t = 1
		}
		script = append(script, equivEvent{t: t, cap: float64(1 + (i*37)%64)})
	}
	return append(script, equivEvent{t: 6, leave: 3})
}

// equivM, equivKS and equivEta are the structure both planes run:
// M = KS = 1, so a promoted leaf's one link meets its super degree.
const equivM, equivKS, equivEta = 1, 1, 4

func simDecisions(t *testing.T, p protocol.Params, seed int64, shards int) ([]decRec, []string) {
	t.Helper()
	eng := sim.NewEngine(seed)
	eng.SetShards(shards)
	mgr := core.NewManager(p)
	n := overlay.New(eng, overlay.Config{M: equivM, KS: equivKS, Eta: equivEta}, mgr)
	var recs []decRec
	mgr.OnDecision = func(p *overlay.Peer, now sim.Time, res protocol.EvalResult) {
		recs = append(recs, makeRec(p.ID, float64(now), res))
	}
	script := equivScript()
	apply := func(tick int) {
		for _, ev := range script {
			switch {
			case ev.t != tick:
			case ev.cap > 0:
				n.Join(ev.cap, 1000, nil)
			case n.Peer(ev.leave).Layer != overlay.LayerLeaf:
				t.Fatalf("t=%d: scripted departure of %d, a super", tick, ev.leave)
			default:
				n.Leave(n.Peer(ev.leave))
			}
		}
	}
	apply(0)
	for tick := 1; tick <= equivTicks; tick++ {
		eng.AfterFunc(sim.Duration(tick), func(*sim.Engine) {
			apply(tick)
			n.Tick()
		})
	}
	if err := eng.RunUntil(equivTicks + 1); err != nil {
		t.Fatalf("sim plane: %v", err)
	}
	var links []string
	for id := msg.PeerID(1); id <= n.MaxPeerID(); id++ {
		if p := n.Peer(id); p != nil {
			links = append(links, linkRec(id, p.Layer, p.SuperLinks(), p.LeafLinks()))
		}
	}
	return recs, links
}

// linkRec describes one peer's layer and link sets, order aside.
func linkRec(id msg.PeerID, l overlay.Layer, supers, leaves []msg.PeerID) string {
	supers, leaves = slices.Clone(supers), slices.Clone(leaves)
	slices.Sort(supers)
	slices.Sort(leaves)
	return fmt.Sprintf("%d %v supers %v leaves %v", id, l, supers, leaves)
}

// drainAll delivers queued messages until every inbox is empty, including
// the responses generated while draining.
func drainAll(peers []*Peer) {
	for {
		progress := false
		for _, p := range peers {
			for {
				select {
				case b := <-p.inbox:
					p.receive(b)
					progress = true
				default:
				}
				break
			}
		}
		if !progress {
			return
		}
	}
}

// manualNet returns a network in manual mode, with no goroutines, on a
// virtual clock that setClock moves to t units.
func manualNet(cfg Config) (n *Net, setClock func(t int)) {
	cfg.Unit = time.Second
	n = NewNet(cfg)
	n.manual = true
	var elapsed time.Duration
	base := n.start
	n.nowFn = func() time.Time { return base.Add(elapsed) }
	return n, func(t int) { elapsed = time.Duration(t) * cfg.Unit }
}

// tickAll runs one tick of a manual-mode network in the simulator's
// phases: every present peer's collect half, then every peer's decide
// half, each in join order, draining every inbox before the first call
// and after each, which reproduces the simulator's inline (zero-latency)
// delivery — a refresh is answered before any peer of the tick decides.
func (n *Net) tickAll() {
	peers := n.present()
	drainAll(peers)
	// Join order, mirroring the simulation manager's slot-order lane walk
	// (slots are assigned in join order here). The sim plane defers
	// promote/demote commits to the end of its tick while this loop
	// executes them at once; the scenarios keep the difference
	// unobservable.
	for _, half := range []func(*Peer){(*Peer).collect, (*Peer).decide} {
		for _, p := range peers {
			half(p)
			drainAll(peers)
		}
	}
}

// present returns the peers that have not left, in join order.
func (n *Net) present() []*Peer {
	n.mu.Lock()
	defer n.mu.Unlock()
	return slices.DeleteFunc(slices.Clone(n.peers), func(p *Peer) bool { return p == nil })
}

// liveDecisions also returns the NeighNum and Value requests delivered.
// Supers send no request on a perfect link, so these are the leaves'.
func liveDecisions(t *testing.T, p protocol.Params, seed int64) (recs []decRec, links []string, nn, vals uint64) {
	t.Helper()
	n, setClock := manualNet(Config{M: equivM, KS: equivKS, Eta: equivEta, Params: p, Seed: seed})
	defer n.Stop()
	n.onDecision = func(id msg.PeerID, now protocol.Time, res protocol.EvalResult) {
		recs = append(recs, makeRec(id, float64(now), res))
	}
	script := equivScript()
	apply := func(tick int) {
		for _, ev := range script {
			switch {
			case ev.t != tick:
			case ev.cap > 0:
				// The simulator runs a join's exchange inline.
				n.Join(ev.cap, nil)
				drainAll(n.present())
			default:
				n.Leave(n.peer(ev.leave))
			}
		}
	}
	apply(0)
	for tick := 1; tick <= equivTicks; tick++ {
		setClock(tick)
		apply(tick)
		n.tickAll()
	}
	return recs, liveLinks(n), n.Messages(msg.KindNeighNumRequest), n.Messages(msg.KindValueRequest)
}

// liveLinks describes every live peer's layer and link sets, by ID.
func liveLinks(n *Net) []string {
	var links []string
	for _, p := range n.peers {
		if p != nil {
			links = append(links, linkRec(p.ID, p.Layer(), p.supers.IDs(), p.leaves.IDs()))
		}
	}
	return links
}

func TestCrossPlaneEquivalence(t *testing.T) {
	// The decision path is draw-free by construction, so the trace must
	// agree for every seed and window.
	for _, seed := range []int64{7, 21, 99} {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			for _, w := range []protocol.Duration{6, 2} {
				t.Run(fmt.Sprintf("window%v", w), func(t *testing.T) {
					checkEquivalence(t, equivParams(w), seed)
				})
			}
		})
	}
}

// checkEquivalence runs the scenario on both planes with p and seed and
// compares the decision traces and final topologies.
func checkEquivalence(t *testing.T, p protocol.Params, seed int64) {
	// The sim plane runs both serial and lane-parallel (4 workers over the
	// fixed lanes): the goroutine plane must match the sharded simulator
	// too, not just the serial one.
	simRecs, simLinks := simDecisions(t, p, seed, 1)
	shardedRecs, shardedLinks := simDecisions(t, p, seed, 4)
	liveRecs, liveLinks, nn, vals := liveDecisions(t, p, seed)

	if !slices.Equal(simRecs, shardedRecs) || !slices.Equal(simLinks, shardedLinks) {
		t.Fatalf("the sim plane differs across shard counts:\nserial:  %+v\n%v\nsharded: %+v\n%v",
			simRecs, simLinks, shardedRecs, shardedLinks)
	}
	if len(simRecs) != len(liveRecs) {
		t.Fatalf("decision counts differ: sim %d, live %d\nsim:  %+v\nlive: %+v",
			len(simRecs), len(liveRecs), simRecs, liveRecs)
	}
	for i := range simRecs {
		if simRecs[i] != liveRecs[i] {
			t.Errorf("decision %d differs:\nsim:  %+v\nlive: %+v", i, simRecs[i], liveRecs[i])
		}
	}
	if !slices.Equal(simLinks, liveLinks) {
		t.Errorf("final topologies differ:\nsim:  %v\nlive: %v", simLinks, liveLinks)
	}

	// The scenario must actually exercise both role switches and refresh;
	// a silently empty trace would make the equality above vacuous.
	var promotions, demotions int
	for _, r := range simRecs {
		switch r.action {
		case protocol.ActionPromote:
			promotions++
		case protocol.ActionDemote:
			demotions++
		}
	}
	if promotions == 0 || demotions == 0 {
		t.Fatalf("scenario exercised %d promotions and %d demotions, want >= 1 of each:\n%+v",
			promotions, demotions, simRecs)
	}
	// An exchange sends no request, and on the perfect link no push is
	// lost, so nothing is retried: every NeighNum request and every Value
	// request is a refresh's.
	if nn+vals == 0 {
		t.Fatal("no refresh went out")
	}
}
