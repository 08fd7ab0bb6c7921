package main

import (
	"dlm/internal/core"
	"dlm/internal/experiments"
	"dlm/internal/msg"
	"dlm/internal/overlay"
	"dlm/internal/protocol"
	"dlm/internal/query"
	"dlm/internal/sim"
	"dlm/internal/stats"
	"dlm/internal/workload"
)

// counts are the whole-run tallies taken at the seams the spans sit on.
type counts struct {
	joins, leaves, connects, disconnects, layerChanges uint64
	evals, promoteActions, demoteActions               uint64
	newPeers                                           uint64
	// growthNs is the host time from a trial's start until its population
	// first reached N, summed over the trials counted here.
	growthNs int64
}

// tracedManager decorates the DLM manager with a span around every hook
// the overlay calls. It implements overlay.ParallelManager, so the overlay
// batches deliveries exactly as it does for the bare manager.
type tracedManager struct {
	inner *core.Manager
	rec   *recorder
}

func (t *tracedManager) Name() string { return t.inner.Name() }

func (t *tracedManager) InitialLayer(n *overlay.Network, p *overlay.Peer) overlay.Layer {
	t.rec.push(kInitialLayer)
	l := t.inner.InitialLayer(n, p)
	t.rec.pop(kInitialLayer)
	return l
}

func (t *tracedManager) OnConnect(n *overlay.Network, a, b *overlay.Peer) {
	t.rec.push(kOnConnect)
	t.inner.OnConnect(n, a, b)
	t.rec.pop(kOnConnect)
}

func (t *tracedManager) OnDisconnect(n *overlay.Network, a, b *overlay.Peer) {
	t.rec.push(kOnDisconnect)
	t.inner.OnDisconnect(n, a, b)
	t.rec.pop(kOnDisconnect)
}

func (t *tracedManager) OnLayerChange(n *overlay.Network, p *overlay.Peer, old overlay.Layer) {
	t.rec.push(kOnLayerChange)
	t.inner.OnLayerChange(n, p, old)
	t.rec.pop(kOnLayerChange)
}

func (t *tracedManager) HandleMessage(n *overlay.Network, to *overlay.Peer, m *msg.Message) {
	timed := t.rec.enterHandle()
	t.inner.HandleMessage(n, to, m)
	t.rec.leaveHandle(timed)
}

func (t *tracedManager) HandleMessageLane(n *overlay.Network, to *overlay.Peer, m *msg.Message, lane int, out *[]msg.Message) {
	start := t.rec.enterLane(lane)
	t.inner.HandleMessageLane(n, to, m, lane, out)
	t.rec.leaveLane(lane, start)
}

func (t *tracedManager) Tick(n *overlay.Network, now sim.Time) {
	t.rec.push(kCoreTick)
	t.inner.Tick(n, now)
	t.rec.pop(kCoreTick)
}

// tracedProfile times the endowment draw and opens the join span the
// observer closes: everything between the draw and Observer.OnJoin is the
// join (object assignment, Network.Join and the exchanges it triggers).
type tracedProfile struct {
	inner workload.Profile
	rec   *recorder
	c     *counts
}

func (t *tracedProfile) NewPeer(now sim.Time, r *sim.Source) workload.PeerSample {
	t.rec.push(kNewPeer)
	s := t.inner.NewPeer(now, r)
	t.rec.pop(kNewPeer)
	t.c.newPeers++
	t.rec.push(kJoin)
	return s
}

type tracedAssigner struct {
	inner overlay.ObjectAssigner
	rec   *recorder
}

func (t *tracedAssigner) AssignObjects(count int, r *sim.Source) []msg.ObjectID {
	t.rec.push(kAssignObjects)
	o := t.inner.AssignObjects(count, r)
	t.rec.pop(kAssignObjects)
	return o
}

// tracedObserver counts structural changes over the whole run and closes
// the join span.
type tracedObserver struct {
	rec *recorder
	c   *counts
}

func (t *tracedObserver) OnJoin(*overlay.Network, *overlay.Peer) {
	t.c.joins++
	t.rec.pop(kJoin)
}
func (t *tracedObserver) OnConnect(*overlay.Network, *overlay.Peer, *overlay.Peer) { t.c.connects++ }
func (t *tracedObserver) OnDisconnect(*overlay.Network, *overlay.Peer, *overlay.Peer) {
	t.c.disconnects++
}
func (t *tracedObserver) OnLayerChange(*overlay.Network, *overlay.Peer, overlay.Layer) {
	t.c.layerChanges++
}
func (t *tracedObserver) OnLeave(*overlay.Network, *overlay.Peer) { t.c.leaves++ }

// tracedRun is experiments.RunOn rebuilt from the same public pieces, in
// the same order, with the decorators above at every seam. It must leave
// the simulation untouched: the harness checks its digest against the
// untraced run of the same seed.
func tracedRun(rec *recorder, c *counts, eng *sim.Engine, rc experiments.RunConfig) (*experiments.RunResult, error) {
	started := rec.now()
	rec.push(kRun)
	defer rec.pop(kRun)
	rec.push(kBuild)
	sc := rc.Scenario
	if err := sc.Validate(); err != nil {
		rec.pop(kBuild)
		return nil, err
	}
	eng.Reset(sc.Seed)
	eng.SetShards(rc.Shards)
	params := core.DefaultParams()
	if rc.DLMParams != nil {
		params = *rc.DLMParams
	}
	inner := core.NewManager(params)
	inner.OnDecision = func(_ *overlay.Peer, _ sim.Time, res protocol.EvalResult) {
		if res.Evaluated {
			c.evals++
		}
		switch res.Action {
		case protocol.ActionPromote:
			c.promoteActions++
		case protocol.ActionDemote:
			c.demoteActions++
		}
	}
	ocfg := sc.Overlay()
	ocfg.Latency = rc.Latency
	ocfg.MaxLeafDegree = rc.MaxLeafDegree
	ocfg.Link = rc.Link
	net := overlay.New(eng, ocfg, &tracedManager{inner: inner, rec: rec})

	var qe *query.Engine
	var cat *query.Catalog
	if rc.Queries && sc.QueryRate > 0 {
		cat = query.NewCatalog(sc.CatalogSize, 0.8, 0.8)
		qe = query.Attach(net, cat)
		qe.DefaultTTL = uint8(sc.TTL)
	}
	net.Observe(&tracedObserver{rec: rec, c: c})

	churn := &overlay.Churn{
		Net:        net,
		Profile:    &tracedProfile{inner: sc.BaseProfile(), rec: rec, c: c},
		TargetSize: sc.N,
		GrowthRate: sc.GrowthRate,
	}
	if cat != nil {
		churn.Catalog = &tracedAssigner{inner: cat, rec: rec}
	}
	churn.Start()

	if qe != nil {
		// query.Driver.Start, with a span around each issue.
		acc, until := 0.0, sim.Time(sc.Duration)
		eng.Ticker(1, func(e *sim.Engine) bool {
			acc += sc.QueryRate
			for acc >= 1 {
				acc--
				rec.push(kQueryIssue)
				qe.IssueRandomAsync(nil)
				rec.pop(kQueryIssue)
			}
			return e.Now() < until
		})
	}

	res := &experiments.RunResult{Series: &stats.SeriesSet{}, ManagerName: inner.Name()}
	ratio := res.Series.New("ratio")
	supers := res.Series.New("supers")
	leaves := res.Series.New("leaves")
	ageS := res.Series.New("age_super")
	ageL := res.Series.New("age_leaf")
	capS := res.Series.New("cap_super")
	capL := res.Series.New("cap_leaf")
	lnn := res.Series.New("lnn")

	warm := sim.Time(sc.Warmup)
	nextSample := 0.0
	warmed, grown := false, false
	eng.Ticker(1, func(e *sim.Engine) bool {
		rec.push(kOverlayTick)
		net.Tick()
		rec.pop(kOverlayTick)
		if !grown && net.Size() >= sc.N {
			grown = true
			c.growthNs += rec.now() - started
		}
		now := float64(e.Now())
		if !warmed && e.Now() >= warm {
			warmed = true
			net.ResetCounters()
			if qe != nil {
				qe.ResetStats()
			}
		}
		if now >= nextSample {
			nextSample = now + sc.SampleEvery
			rec.push(kSnapshot)
			s := net.Snapshot()
			rec.pop(kSnapshot)
			ratio.Add(now, s.Ratio)
			supers.Add(now, float64(s.NumSupers))
			leaves.Add(now, float64(s.NumLeaves))
			ageS.Add(now, s.AvgAgeSuper)
			ageL.Add(now, s.AvgAgeLeaf)
			capS.Add(now, s.AvgCapSuper)
			capL.Add(now, s.AvgCapLeaf)
			lnn.Add(now, s.AvgLeafDegree)
		}
		return e.Now() < sim.Time(sc.Duration)
	})
	rec.pop(kBuild)

	if err := eng.RunUntil(sim.Time(sc.Duration)); err != nil {
		return nil, err
	}

	rec.push(kCollect)
	res.Final = net.Snapshot()
	res.WindowCounters = net.Counters()
	res.Traffic = net.Traffic()
	res.Invariants = net.CheckInvariants()
	res.RequestRetries = inner.RequestRetries
	res.RequestDrops = inner.RequestDrops
	if qe != nil {
		res.QuerySuccess = qe.SuccessRate()
		res.QueryMsgsPer = qe.MsgsPer.Mean()
		res.QueryHops = qe.HopsHist.Mean()
		res.QueriesIssued = qe.Issued
	}
	rec.pop(kCollect)
	return res, nil
}
