package main

import (
	"fmt"
	"sort"
	"time"

	"dlm/internal/msg"
	"dlm/internal/overlay"
	"dlm/internal/protocol"
	"dlm/internal/sim"
	"dlm/internal/workload"
)

// Layer probes: internal/sim, the transport shell of internal/overlay and
// internal/protocol have no seam the harness can wrap from outside, so
// their public functions are timed directly, on fixed inputs built from
// the seed. Each probe reports the median ns/op over probeChunks equal
// slices of its time budget and checks its own output.

const (
	probeDepth  = 100_000
	probeChunks = 8
)

// probe is one timed function. op runs n operations; check runs once at the
// end and returns an error if the probe's output is wrong.
type probe struct {
	name  string
	op    func(n int)
	check func() error
}

// timeProbe runs p for about seconds and returns its median ns/op.
func timeProbe(p probe, seconds float64) (float64, error) {
	// Size a chunk from a short calibration pass, which also warms caches.
	const calibrate = 2000
	start := time.Now()
	p.op(calibrate)
	per := time.Since(start).Seconds() / calibrate
	n := int(seconds / probeChunks / per)
	if n < calibrate {
		n = calibrate
	}
	nsPerOp := make([]float64, probeChunks)
	for i := range nsPerOp {
		start := time.Now()
		p.op(n)
		nsPerOp[i] = float64(time.Since(start).Nanoseconds()) / float64(n)
	}
	if err := p.check(); err != nil {
		return 0, fmt.Errorf("probe %s: %w", p.name, err)
	}
	sort.Float64s(nsPerOp)
	return (nsPerOp[probeChunks/2-1] + nsPerOp[probeChunks/2]) / 2, nil
}

// runProbes times every layer probe for seconds each.
func runProbes(seed int64, seconds float64) (map[string]float64, error) {
	probes, err := buildProbes(seed)
	if err != nil {
		return nil, err
	}
	out := map[string]float64{}
	for _, p := range probes {
		v, err := timeProbe(p, seconds)
		if err != nil {
			return nil, err
		}
		out[p.name] = v
	}
	return out, nil
}

func buildProbes(seed int64) ([]probe, error) {
	probes := []probe{
		stepProbe("sim.step_ns", seed, 1),
		stepProbe("sim.step_lanes_ns", seed, sim.NumLanes),
	}
	overlay, err := overlayProbes(seed)
	if err != nil {
		return nil, fmt.Errorf("probe network: %w", err)
	}
	probes = append(probes, overlay...)
	return append(probes, protocolProbes(seed)...), nil
}

// stepProbe times Schedule+Step at a constant queue depth of probeDepth,
// spread over the given number of live lanes: one lane rides the engine's
// sole-queue fast path, 64 resolve the tournament tree on every pop.
func stepProbe(name string, seed int64, lanes int) probe {
	eng := sim.NewEngine(seed)
	rng := sim.NewSource(seed).Stream("probe.step")
	nop := sim.EventFunc(func(*sim.Engine) {})
	// Offsets are drawn once; every event lands within one time unit of
	// the clock, like the churn and delivery timers of a run.
	offsets := make([]sim.Duration, 4096)
	for i := range offsets {
		offsets[i] = sim.Duration(rng.Float64())
	}
	lane := func(i int) int {
		if lanes == 1 {
			return sim.GlobalLane
		}
		return i % lanes
	}
	for i := 0; i < probeDepth; i++ {
		eng.ScheduleLane(lane(i), sim.Time(offsets[i%len(offsets)]), nop)
	}
	var ops uint64
	return probe{
		name: name,
		op: func(n int) {
			for i := 0; i < n; i++ {
				eng.AfterLane(lane(i), offsets[i%len(offsets)], nop)
				eng.Step()
			}
			ops += uint64(n)
		},
		check: func() error {
			if eng.Pending() != probeDepth || eng.EventsFired() != ops {
				return fmt.Errorf("pending %d fired %d, want %d and %d", eng.Pending(), eng.EventsFired(), probeDepth, ops)
			}
			return nil
		},
	}
}

// probeNetwork grows a probeDepth-peer network under the no-op manager and
// promotes the table-2 share of supers, so link sets have a run's shape.
func probeNetwork(seed int64, latency sim.Duration) (*overlay.Network, error) {
	eng := sim.NewEngine(seed)
	n := overlay.New(eng, overlay.Config{M: 2, KS: 3, Eta: 40, Latency: latency}, overlay.NopManager{})
	c := &overlay.Churn{
		Net: n,
		Profile: &workload.StaticProfile{
			Capacity: workload.SaroiuBandwidthMixture(),
			Lifetime: workload.Constant(1e9),
		},
		TargetSize: probeDepth,
		GrowthRate: probeDepth,
	}
	c.Start()
	if err := eng.RunUntil(1); err != nil {
		return nil, err
	}
	for n.NumSupers() < probeDepth/41 {
		n.Promote(n.Peer(n.LeafIDs()[0]))
	}
	n.Repair()
	return n, nil
}

// checkNetwork is the probes' common output check: the population is back
// at its starting size and the overlay's own invariants hold.
func checkNetwork(n *overlay.Network) error {
	if n.Size() != probeDepth {
		return fmt.Errorf("network size %d, want %d", n.Size(), probeDepth)
	}
	if bad := n.CheckInvariants(); len(bad) > 0 {
		return fmt.Errorf("%d invariant violations, first: %s", len(bad), bad[0])
	}
	return nil
}

func overlayProbes(seed int64) ([]probe, error) {
	inline, err := probeNetwork(seed, 0)
	if err != nil {
		return nil, err
	}
	delayed, err := probeNetwork(seed, 0.05)
	if err != nil {
		return nil, err
	}

	// Message endpoints: a fixed cycle of live peers drawn from the seed
	// (both networks grew from it, so they hold the same peers).
	ends := make([]msg.PeerID, 4096)
	for i := range ends {
		ends[i] = inline.RandomPeer().ID
	}
	sendOn := func(n *overlay.Network, step bool) func(int) {
		return func(k int) {
			eng := n.Engine()
			for i := 0; i < k; i++ {
				n.Send(msg.ValueRequest(ends[i%len(ends)], ends[(i+1)%len(ends)]))
				if step {
					eng.Step()
				}
			}
		}
	}
	var sentInline, sentDelayed uint64
	// The peers' death timers stay queued throughout; a delivered send
	// leaves nothing else behind.
	timers := delayed.Engine().Pending()
	return []probe{
		{
			name: "overlay.join_leave_ns",
			op: func(k int) {
				for i := 0; i < k; i++ {
					inline.Leave(inline.Join(50, 1e9, nil))
				}
			},
			check: func() error { return checkNetwork(inline) },
		},
		{
			name: "transport.send_inline_ns",
			op: func(k int) {
				sendOn(inline, false)(k)
				sentInline += uint64(k)
			},
			check: func() error {
				if got := inline.Traffic().Count(msg.KindValueRequest); got != sentInline {
					return fmt.Errorf("traffic recorded %d sends, want %d", got, sentInline)
				}
				return nil
			},
		},
		{
			name: "transport.send_scheduled_ns",
			op: func(k int) {
				sendOn(delayed, true)(k)
				sentDelayed += uint64(k)
			},
			check: func() error {
				eng := delayed.Engine()
				if got := delayed.Traffic().Count(msg.KindValueRequest); got != sentDelayed || eng.Pending() != timers {
					return fmt.Errorf("traffic recorded %d sends with %d undelivered, want %d and 0", got, eng.Pending()-timers, sentDelayed)
				}
				return checkNetwork(delayed)
			},
		},
	}, nil
}

// probeEndpoint is the protocol.Endpoint of the machine probes: it counts
// what the machine sends and vouches for every neighbour.
type probeEndpoint struct{ sent uint64 }

func (e *probeEndpoint) Send(msg.Message)               { e.sent++ }
func (e *probeEndpoint) IsLeafNeighbor(msg.PeerID) bool { return true }

// probeMachine builds a machine whose related set holds g peers, fed
// through the same messages a run delivers.
func probeMachine(p *protocol.Params, self protocol.Self, g int, rng *sim.Source, now protocol.Time) *protocol.Machine {
	ma := protocol.NewMachine(p, 0)
	ep := &probeEndpoint{}
	for i := 0; i < g; i++ {
		from := msg.PeerID(100 + i)
		v := msg.ValueResponse(from, self.ID, rng.Uniform(2, 800), rng.Uniform(1, 400))
		ma.HandleMessage(self, &v, now, ep)
		if !self.IsSuper {
			l := msg.NeighNumResponse(from, self.ID, 60+rng.Intn(40))
			ma.HandleMessage(self, &l, now, ep)
		}
	}
	return ma
}

func protocolProbes(seed int64) []probe {
	p := protocol.DefaultParams()
	rng := sim.NewSource(seed).Stream("probe.protocol")
	const now = protocol.Time(1000)
	kl, eta := 80.0, 40.0
	super := protocol.Self{ID: 1, Capacity: 120, Age: 300, IsSuper: true, LeafDegree: 80}
	leaf := protocol.Self{ID: 2, Capacity: 40, Age: 60}
	superM := probeMachine(&p, super, 80, rng, now)
	leafM := probeMachine(&p, leaf, 4, rng, now)
	handleM := probeMachine(&p, leaf, 4, rng, now)
	ep := &probeEndpoint{}

	evalProbe := func(name string, ma *protocol.Machine, self protocol.Self, g int) probe {
		var evaluated, ops uint64
		return probe{
			name: name,
			op: func(k int) {
				for i := 0; i < k; i++ {
					if ma.Evaluate(self, now, kl, eta, rng).Evaluated {
						evaluated++
					}
				}
				ops += uint64(k)
			},
			check: func() error {
				if evaluated != ops || ma.Size() != g {
					return fmt.Errorf("%d of %d evaluations ran the comparison over |G|=%d, want all over %d", evaluated, ops, ma.Size(), g)
				}
				if bad := ma.CheckInvariants(); bad != "" {
					return fmt.Errorf("machine invariants: %s", bad)
				}
				return nil
			},
		}
	}
	var requests uint64
	return []probe{
		evalProbe("protocol.evaluate_super_ns", superM, super, 80),
		evalProbe("protocol.evaluate_leaf_ns", leafM, leaf, 4),
		{
			// The Phase 1 traffic a leaf serves and consumes, alternating:
			// answer a ValueRequest, fold a ValueResponse into G.
			name: "protocol.handle_ns",
			op: func(k int) {
				for i := 0; i < k; i++ {
					from := msg.PeerID(100 + i/2%4)
					m := msg.ValueResponse(from, leaf.ID, 50, 100)
					if i%2 == 0 {
						m = msg.ValueRequest(from, leaf.ID)
						requests++
					}
					handleM.HandleMessage(leaf, &m, now, ep)
				}
			},
			check: func() error {
				if ep.sent != requests || handleM.Size() != 4 {
					return fmt.Errorf("machine answered %d of %d requests with |G|=%d, want all and 4", ep.sent, requests, handleM.Size())
				}
				return nil
			},
		},
	}
}
