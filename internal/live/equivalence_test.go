package live

import (
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
// μ, Y and l_nn values, same promotions and demotions.
//
// The scenario is built so that no RNG draw ever happens on the decision
// path (EvalProbability = 1 and RateLimit = false both skip their
// Bernoulli draw by the no-draw-at-boundary rule), all times are small
// integers (exact in float64), and message hand-off granularity matches:
// the live driver drains every inbox to empty at the start of each tick,
// which reproduces the simulator's inline (zero-latency) delivery at
// tick granularity — extrapolated ages agree because both planes infer
// the same join times.
//
// Timeline (capacities: id1 = 10 bootstrap super, id2 = 50 leaf, both
// joining at t = 0):
//
//	t=1  id2 evaluates and promotes (l_nn = 1 > k_l = 0.5, μ = ln 2)
//	t=3  id1 demotes via the empty-G rule (an action without a full
//	     evaluation: its related set emptied when id2 left the leaf layer)
//	t=4+ both peers evaluate every tick and hold their roles
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

func equivParams() protocol.Params {
	p := protocol.DefaultParams()
	p.EvalProbability = 1 // every peer evaluates every tick, no draw
	p.RateLimit = false   // eligible switches always execute, no draw
	p.RefreshInterval = 0
	p.LnnSmoothing = 0
	p.DecisionCooldown = 1
	p.DemotionCooldown = 3
	p.EmptyGDemoteAfter = 3
	p.LeafWindow = 0
	return p
}

const equivTicks = 8

func simDecisions(t *testing.T, seed int64, shards int) []decRec {
	t.Helper()
	eng := sim.NewEngine(seed)
	eng.SetShards(shards)
	mgr := core.NewManager(equivParams())
	n := overlay.New(eng, overlay.Config{M: 1, KS: 3, Eta: 0.5}, mgr)
	var recs []decRec
	mgr.OnDecision = func(p *overlay.Peer, now sim.Time, res protocol.EvalResult) {
		recs = append(recs, makeRec(p.ID, float64(now), res))
	}
	n.Join(10, 1000, nil) // bootstrap super, id 1
	n.Join(50, 1000, nil) // leaf, id 2
	for tick := 1; tick <= equivTicks; tick++ {
		eng.AfterFunc(sim.Duration(tick), func(*sim.Engine) { n.Tick() })
	}
	if err := eng.RunUntil(equivTicks + 1); err != nil {
		t.Fatalf("sim plane: %v", err)
	}
	return recs
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

func liveDecisions(t *testing.T, seed int64) []decRec {
	t.Helper()
	unit := time.Second
	n := NewNet(Config{M: 1, KS: 3, Eta: 0.5, Params: equivParams(), Unit: unit, Seed: seed})
	defer n.Stop()
	// Manual mode: no goroutines; this test is the scheduler and the
	// clock, so tick times are exact integers like the simulator's.
	n.manual = true
	var elapsed time.Duration
	base := n.start
	n.nowFn = func() time.Time { return base.Add(elapsed) }
	var recs []decRec
	n.onDecision = func(id msg.PeerID, now protocol.Time, res protocol.EvalResult) {
		recs = append(recs, makeRec(id, float64(now), res))
	}
	a := n.Join(10, nil) // bootstrap super, id 1
	b := n.Join(50, nil) // leaf, id 2
	peers := []*Peer{a, b}
	for tick := 1; tick <= equivTicks; tick++ {
		elapsed = time.Duration(tick) * unit
		drainAll(peers)
		// Join order, mirroring the simulation manager's slot-order lane
		// walk (slots are assigned in join order here). The sim plane
		// defers promote/demote commits to the end of its tick while this
		// loop executes them immediately, but the difference is
		// unobservable: a peer's tick reads only its own state plus
		// messages drained at the *next* tick, so no peer can see a
		// same-tick role change of another.
		for _, p := range peers {
			p.tick()
		}
	}
	return recs
}

func TestCrossPlaneEquivalence(t *testing.T) {
	// The decision path is draw-free by construction, so the trace must
	// agree for every seed.
	tests := []struct {
		name string
		seed int64
	}{
		{name: "seed7", seed: 7},
		{name: "seed21", seed: 21},
		{name: "seed99", seed: 99},
	}
	for _, tc := range tests {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			// The sim plane runs both serial and lane-parallel (4 workers
			// over the fixed lanes): the goroutine plane must match the
			// sharded simulator too, not just the serial one.
			simRecs := simDecisions(t, tc.seed, 1)
			shardedRecs := simDecisions(t, tc.seed, 4)
			liveRecs := liveDecisions(t, tc.seed)

			if len(simRecs) != len(shardedRecs) {
				t.Fatalf("decision counts differ across shard counts: serial %d, sharded %d",
					len(simRecs), len(shardedRecs))
			}
			for i := range simRecs {
				if simRecs[i] != shardedRecs[i] {
					t.Errorf("decision %d differs across shard counts:\nserial:  %+v\nsharded: %+v",
						i, simRecs[i], shardedRecs[i])
				}
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

			// The scenario must actually exercise both role switches; a
			// silently empty trace would make the equality above vacuous.
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
		})
	}
}
