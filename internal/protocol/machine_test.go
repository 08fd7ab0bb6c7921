package protocol

import (
	"testing"

	"dlm/internal/msg"
)

// captureEndpoint records sent frames and answers the leaf-neighbor
// query from a fixed set.
type captureEndpoint struct {
	sent          []msg.Message
	leafNeighbors map[msg.PeerID]bool
}

func (e *captureEndpoint) Send(m msg.Message) { e.sent = append(e.sent, m) }
func (e *captureEndpoint) IsLeafNeighbor(id msg.PeerID) bool {
	return e.leafNeighbors[id]
}

// fixedRand returns a constant draw and counts how often it was
// consulted.
type fixedRand struct {
	v     float64
	draws int
}

func (r *fixedRand) Float64() float64 { r.draws++; return r.v }

// report delivers id's l_nn report to the leaf machine ma at now, as a
// NeighNumResponse through the handler a host feeds.
func report(ma *Machine, id msg.PeerID, lnn int, now Time) {
	m := msg.NeighNumResponse(id, 0, lnn)
	ma.HandleMessage(Self{}, &m, now, nil)
}

func TestBernoulliDrawDiscipline(t *testing.T) {
	r := &fixedRand{v: 0.5}
	// The clamp boundaries must not consume a draw — the determinism
	// baselines of the simulation plane depend on it.
	if Bernoulli(r, 0) || Bernoulli(r, -1) {
		t.Fatal("p<=0 returned true")
	}
	if !Bernoulli(r, 1) || !Bernoulli(r, 2) {
		t.Fatal("p>=1 returned false")
	}
	if r.draws != 0 {
		t.Fatalf("boundary probabilities consumed %d draws", r.draws)
	}
	if !Bernoulli(r, 0.6) || Bernoulli(r, 0.4) {
		t.Fatal("interior probability compared wrong")
	}
	if r.draws != 2 {
		t.Fatalf("interior probabilities consumed %d draws, want 2", r.draws)
	}
}

func TestObserveUpdatesInPlace(t *testing.T) {
	p := DefaultParams()
	ma := NewMachine(&p, 0)
	ma.observe(1, 10, 5, 20, 0)
	ma.observe(1, 10, 8, 30, 0) // re-observation refreshes
	if ma.Size() != 1 {
		t.Fatalf("size = %d, want 1", ma.Size())
	}
	e := ma.rel()[ma.ids.Index(1)]
	if e.joinTime != 22 { // 30 - 8
		t.Fatalf("joinTime = %v, want 22", e.joinTime)
	}
	if e.lastSeen != 30 {
		t.Fatalf("lastSeen = %v", e.lastSeen)
	}
}

func TestFIFOEviction(t *testing.T) {
	p := DefaultParams()
	ma := NewMachine(&p, 0)
	for i := 0; i < 5; i++ {
		ma.observe(msg.PeerID(i+1), 1, 1, 0, 3)
	}
	if ma.Size() != 3 {
		t.Fatalf("size = %d, want cap 3", ma.Size())
	}
	if ma.Has(1) {
		t.Fatal("oldest entry not evicted")
	}
	if !ma.Has(5) {
		t.Fatal("newest entry missing")
	}
	// Re-observation of an existing entry must not evict.
	ma.observe(5, 2, 2, 1, 3)
	if ma.Size() != 3 {
		t.Fatal("re-observation changed size")
	}
	if bad := ma.CheckInvariants(); bad != "" {
		t.Fatal(bad)
	}
}

func TestDropKeepsOrderConsistent(t *testing.T) {
	p := DefaultParams()
	ma := NewMachine(&p, 0)
	for i := 1; i <= 4; i++ {
		ma.observe(msg.PeerID(i), 1, 1, 0, 0)
	}
	report(ma, 2, 7, 0)
	ma.Drop(2)
	if ma.Size() != 3 {
		t.Fatalf("size = %d", ma.Size())
	}
	if _, _, ok := ma.LnnReport(2); ok {
		t.Fatal("lnn report survived drop")
	}
	if bad := ma.CheckInvariants(); bad != "" {
		t.Fatal(bad)
	}
	// A report from a peer outside G is not kept.
	report(ma, 99, 1, 0)
	if _, _, ok := ma.LnnReport(99); ok || ma.Size() != 3 {
		t.Fatalf("report from a peer outside G: kept %v, size %d", ok, ma.Size())
	}
}

func TestPruneWindow(t *testing.T) {
	p := DefaultParams()
	ma := NewMachine(&p, 0)
	ma.observe(1, 1, 1, 10, 0)
	ma.observe(2, 1, 1, 50, 0)
	report(ma, 1, 5, 10)
	ma.prune(60, 20) // window 20: entry 1 (seen at 10) expires
	if ma.Size() != 1 {
		t.Fatalf("size = %d, want 1", ma.Size())
	}
	if !ma.Has(2) {
		t.Fatal("fresh entry pruned")
	}
	if _, _, ok := ma.LnnReport(1); ok {
		t.Fatal("pruned entry's report survived")
	}
	// Window 0 disables pruning.
	ma.prune(1e9, 0)
	if ma.Size() != 1 {
		t.Fatal("prune with window 0 removed entries")
	}
}

func TestAvgLnn(t *testing.T) {
	p := DefaultParams()
	ma := NewMachine(&p, 0)
	if _, ok := ma.AvgLnn(); ok {
		t.Fatal("empty machine reported lnn")
	}
	ma.observe(1, 1, 1, 0, 0)
	ma.observe(2, 1, 1, 0, 0)
	ma.observe(3, 1, 1, 0, 0)
	report(ma, 1, 10, 0)
	report(ma, 2, 30, 0)
	// Peer 3 has no report; average over available ones.
	got, ok := ma.AvgLnn()
	if !ok || got != 20 {
		t.Fatalf("AvgLnn = %v,%v want 20,true", got, ok)
	}
	// A report from outside G is dropped, not held until its sender joins.
	report(ma, 4, 100, 0)
	ma.observe(4, 1, 1, 0, 0)
	if got, ok := ma.AvgLnn(); !ok || got != 20 {
		t.Fatalf("AvgLnn after a report from outside G = %v,%v want 20,true", got, ok)
	}
	// Re-observation keeps a member's report.
	ma.observe(2, 5, 5, 1, 0)
	if lnn, when, ok := ma.LnnReport(2); !ok || lnn != 30 || when != 1 {
		t.Fatalf("LnnReport(2) after re-observation = %d,%v,%v want 30,1,true", lnn, when, ok)
	}
	// Reports whose entry was dropped don't count.
	ma.Drop(1)
	got, ok = ma.AvgLnn()
	if !ok || got != 30 {
		t.Fatalf("AvgLnn after drop = %v,%v want 30,true", got, ok)
	}
}

func TestSmoothLnn(t *testing.T) {
	p := DefaultParams()
	p.LnnSmoothing = 0.5
	ma := NewMachine(&p, 0)
	if got := ma.smoothLnn(10); got != 10 {
		t.Fatalf("first smoothed value = %v, want seed 10", got)
	}
	if got := ma.smoothLnn(20); got != 15 {
		t.Fatalf("EWMA step = %v, want 15", got)
	}
	// Alpha 0 disables: returns cur, no state change.
	p0 := DefaultParams()
	p0.LnnSmoothing = 0
	ma0 := NewMachine(&p0, 0)
	ma0.smoothLnn(10)
	if got := ma0.smoothLnn(30); got != 30 {
		t.Fatalf("disabled smoothing returned %v, want 30", got)
	}
}

func TestResetClearsState(t *testing.T) {
	p := DefaultParams()
	ma := NewMachine(&p, 0)
	ma.observe(1, 1, 1, 5, 0)
	report(ma, 1, 3, 5)
	ma.smoothLnn(10)
	ma.RefreshDue(100)
	ma.Reset(42)
	if _, _, ok := ma.LnnReport(1); ma.Size() != 0 || ok {
		t.Fatal("reset kept related state")
	}
	if ma.LastChange() != 42 {
		t.Fatalf("lastChange = %v, want 42", ma.LastChange())
	}
	if ma.hasSmooth {
		t.Fatal("reset kept the l_nn smoothing")
	}
	// The refresh clock restarts at the reset time.
	if ma.refreshAt != 42+p.RefreshInterval {
		t.Fatalf("next refresh due at %v, want %v", ma.refreshAt, 42+p.RefreshInterval)
	}
}

func TestHandleMessageRequests(t *testing.T) {
	p := DefaultParams()
	ma := NewMachine(&p, 0)
	ep := &captureEndpoint{}
	self := Self{ID: 1, Capacity: 40, Age: 12, IsSuper: true, LeafDegree: 7}

	nr := msg.NeighNumRequest(2, 1)
	ma.HandleMessage(self, &nr, 10, ep)
	vr := msg.ValueRequest(2, 1)
	ma.HandleMessage(self, &vr, 10, ep)

	if len(ep.sent) != 2 {
		t.Fatalf("sent %d frames, want 2", len(ep.sent))
	}
	if got := ep.sent[0]; got.Kind != msg.KindNeighNumResponse || got.To != 2 || got.NeighNum != 7 {
		t.Fatalf("neigh-num response = %+v", got)
	}
	if got := ep.sent[1]; got.Kind != msg.KindValueResponse || got.To != 2 || got.Capacity != 40 || got.Age != 12 || got.NeighNum != 7 {
		t.Fatalf("value response = %+v", got)
	}
}

func TestHandleMessageResponses(t *testing.T) {
	p := DefaultParams()
	ep := &captureEndpoint{leafNeighbors: map[msg.PeerID]bool{3: true}}

	// A leaf records values (FIFO-capped) and its members' l_nn reports.
	leaf := NewMachine(&p, 0)
	leafSelf := Self{ID: 1, Capacity: 10, Age: 5}
	vv := msg.ValueResponse(2, 1, 50, 20)
	leaf.HandleMessage(leafSelf, &vv, 10, ep)
	if cap, age, ok := leaf.Related(2, 10); !ok || cap != 50 || age != 20 {
		t.Fatalf("leaf related entry = %v,%v,%v", cap, age, ok)
	}
	nn := msg.NeighNumResponse(2, 1, 9)
	leaf.HandleMessage(leafSelf, &nn, 11, ep)
	if lnn, when, ok := leaf.LnnReport(2); !ok || lnn != 9 || when != 11 {
		t.Fatalf("leaf lnn report = %d,%v,%v", lnn, when, ok)
	}

	// A super ignores stale l_nn responses (sent while it was a leaf) and
	// value responses from peers that are no longer leaf neighbors.
	super := NewMachine(&p, 0)
	superSelf := Self{ID: 1, Capacity: 10, Age: 5, IsSuper: true}
	super.HandleMessage(superSelf, &nn, 10, ep)
	if _, _, ok := super.LnnReport(2); ok {
		t.Fatal("super recorded stale l_nn response")
	}
	super.HandleMessage(superSelf, &vv, 10, ep) // from 2: not a leaf neighbor
	if super.Has(2) {
		t.Fatal("super recorded value from non-neighbor")
	}
	vn := msg.ValueResponse(3, 1, 50, 20)
	super.HandleMessage(superSelf, &vn, 10, ep) // from 3: current leaf neighbor
	if !super.Has(3) {
		t.Fatal("super dropped value from current leaf neighbor")
	}

	// A ValueRequest is a bare ask: it is answered whoever sent it, and
	// admits nothing.
	ep.sent = nil
	super = NewMachine(&p, 0)
	for _, from := range []msg.PeerID{2, 3} {
		vr := msg.ValueRequest(from, 1)
		super.HandleMessage(superSelf, &vr, 10, ep)
	}
	if super.Size() != 0 {
		t.Fatalf("super admitted %v from bare requests", super.ids.IDs())
	}
	if len(ep.sent) != 2 || ep.sent[0] != msg.ValueResponse(1, 2, 10, 5) || ep.sent[1] != msg.ValueResponse(1, 3, 10, 5) {
		t.Fatalf("super answered %+v, want a ValueResponse to 2 and to 3", ep.sent)
	}

	// Non-DLM kinds are ignored.
	q := msg.NewQuery(2, 1, 7, 7, 3)
	leaf.HandleMessage(leafSelf, &q, 10, ep)
	if leaf.Size() != 1 {
		t.Fatal("query mutated related set")
	}
}

func TestRefreshScheduling(t *testing.T) {
	p := DefaultParams()
	p.RefreshInterval = 30
	ma := NewMachine(&p, 0)
	if ma.RefreshDue(10) {
		t.Fatal("refresh due before the interval elapsed")
	}
	if !ma.RefreshDue(30) {
		t.Fatal("refresh not due at the interval")
	}
	if ma.RefreshDue(45) {
		t.Fatal("refresh due again before the next interval")
	}
	if !ma.RefreshDue(60) {
		t.Fatal("refresh not due at the second interval")
	}
	// A role change restarts the refresh clock: the connect exchange has
	// just fetched l_nn, so the first refresh comes one interval later.
	notDueUntil := func(from, due Time) {
		t.Helper()
		for now := from + 1; now < due; now++ {
			if ma.RefreshDue(now) {
				t.Fatalf("refresh due at %v, before %v (clock started at %v)", now, due, from)
			}
		}
		if !ma.RefreshDue(due) {
			t.Fatalf("refresh not due at %v (clock started at %v)", due, from)
		}
	}
	ma.Reset(100)
	notDueUntil(100, 130)
	// So does a join past the first interval.
	ma.Init(&p, 50, nil)
	notDueUntil(50, 80)
	// Interval 0 disables refresh entirely.
	p0 := DefaultParams()
	p0.RefreshInterval = 0
	ma0 := NewMachine(&p0, 0)
	if ma0.RefreshDue(1e9) {
		t.Fatal("refresh fired with interval 0")
	}
}

// testEvalParams returns params whose gates are easy to reason about in
// the cooldown tests: deterministic switching, no smoothing.
func testEvalParams() Params {
	p := DefaultParams()
	p.RateLimit = false
	p.LnnSmoothing = 0
	p.DecisionCooldown = 5
	p.DemotionCooldown = 100
	p.EmptyGDemoteAfter = 30
	return p
}

func TestDecisionCooldownGatesLeaf(t *testing.T) {
	p := testEvalParams()
	ma := NewMachine(&p, 0)
	ma.observe(2, 1, 1, 1, 0) // one weak super in G
	report(ma, 2, 20, 1)
	self := Self{ID: 1, Capacity: 100, Age: 100}
	rng := &fixedRand{v: 0.5}

	if res := ma.Evaluate(self, 3, 20, 10, rng); res.Evaluated {
		t.Fatal("leaf evaluated inside DecisionCooldown")
	}
	res := ma.Evaluate(self, 10, 20, 10, rng)
	if !res.Evaluated || !res.Eligible || res.Action != ActionPromote {
		t.Fatalf("strong leaf after cooldown: %+v", res)
	}
}

func TestDemotionCooldownGatesSuper(t *testing.T) {
	p := testEvalParams()
	ma := NewMachine(&p, 0)
	// A weak super among strong leaves: eligible to demote on the
	// comparison whenever the evaluation is allowed to run.
	for i := 0; i < 5; i++ {
		ma.observe(msg.PeerID(10+i), 100, 100, 1, 0)
	}
	self := Self{ID: 1, Capacity: 1, Age: 1, IsSuper: true, LeafDegree: 20}
	rng := &fixedRand{v: 0.5}

	// Past DecisionCooldown but inside DemotionCooldown: no evaluation.
	res := ma.Evaluate(self, 50, 20, 10, rng)
	if res.Evaluated || res.Action != ActionNone {
		t.Fatalf("super evaluated inside DemotionCooldown: %+v", res)
	}
	// Past DemotionCooldown: the comparison runs and demotes.
	res = ma.Evaluate(self, 150, 20, 10, rng)
	if !res.Evaluated || !res.Eligible || res.Action != ActionDemote {
		t.Fatalf("weak super after DemotionCooldown: %+v", res)
	}
	// A role change restarts the clock.
	ma.Reset(200)
	for i := 0; i < 5; i++ {
		ma.observe(msg.PeerID(10+i), 100, 100, 201, 0)
	}
	if res := ma.Evaluate(self, 250, 20, 10, rng); res.Evaluated {
		t.Fatal("DemotionCooldown did not restart after Reset")
	}
	if rng.draws != 0 {
		t.Fatalf("deterministic evaluations consumed %d draws", rng.draws)
	}
}

func TestEmptyGDemotion(t *testing.T) {
	p := testEvalParams()
	ma := NewMachine(&p, 0)
	rng := &fixedRand{v: 0.5}
	self := Self{ID: 1, Capacity: 1, Age: 1, IsSuper: true, LeafDegree: 0}

	// Inside the grace period: nothing.
	if res := ma.Evaluate(self, 20, 20, 10, rng); res.Action != ActionNone {
		t.Fatal("empty-G demotion fired inside the grace period")
	}
	// Past it: demote outright, without counting as an evaluation.
	res := ma.Evaluate(self, 40, 20, 10, rng)
	if res.Action != ActionDemote || res.Evaluated || res.Eligible {
		t.Fatalf("empty-G demotion: %+v", res)
	}
	// A super that still has leaf links is spared (G raced empty).
	busy := Self{ID: 1, Capacity: 1, Age: 1, IsSuper: true, LeafDegree: 3}
	if res := ma.Evaluate(busy, 40, 20, 10, rng); res.Action != ActionNone {
		t.Fatal("empty-G demotion fired despite live leaf links")
	}
}

func TestEvaluateRateLimitDraw(t *testing.T) {
	p := testEvalParams()
	p.RateLimit = true
	p.RateGain = 1
	p.SelectionSharpness = 0
	p.EvalProbability = 1
	ma := NewMachine(&p, 0)
	ma.observe(2, 1, 1, 1, 0)
	report(ma, 2, 30, 1) // r=1.5 -> prob (r-1)/eta = 0.05
	self := Self{ID: 1, Capacity: 100, Age: 100}

	low := &fixedRand{v: 0.01}
	if res := ma.Evaluate(self, 10, 20, 10, low); !res.Eligible || res.Action != ActionPromote {
		t.Fatalf("low draw should promote: %+v", res)
	}
	if low.draws != 1 {
		t.Fatalf("rate limit consumed %d draws, want 1", low.draws)
	}
	high := &fixedRand{v: 0.99}
	if res := ma.Evaluate(self, 11, 20, 10, high); !res.Eligible || res.Action != ActionNone {
		t.Fatalf("high draw should suppress the switch: %+v", res)
	}
}

// seqRand returns its draws in order and counts how many were taken.
type seqRand struct {
	v     []float64
	draws int
}

func (r *seqRand) Float64() float64 { x := r.v[r.draws]; r.draws++; return x }

// TestDecideCadence pins the decision step both planes run each round: a
// super's l_nn EWMA advances whether or not it evaluates, the staggering
// draw is skipped at EvalProbability 1, and at p < 1 it comes first — one
// draw — before any draw of Evaluate's own.
func TestDecideCadence(t *testing.T) {
	t.Run("super smooths without evaluating", func(t *testing.T) {
		p := testEvalParams()
		p.LnnSmoothing = 0.5
		p.EvalProbability = 0.5
		ma := NewMachine(&p, 0)
		rng := &fixedRand{v: 0.99} // every stagger draw fails
		for _, deg := range []int{10, 20} {
			self := Self{ID: 1, Capacity: 1, Age: 1, IsSuper: true, LeafDegree: deg}
			var res EvalResult
			if ma.Decide(self, 200, 20, 10, rng, &res) || res != (EvalResult{}) {
				t.Fatalf("failed stagger draw left %+v, want nothing decided", res)
			}
		}
		if rng.draws != 2 {
			t.Fatalf("two rounds took %d draws, want 2", rng.draws)
		}
		if !ma.hasSmooth || ma.lnnSmooth != 15 {
			t.Fatalf("EWMA after degrees 10, 20 = %v (seeded %v), want 15", ma.lnnSmooth, ma.hasSmooth)
		}
	})
	t.Run("probability one takes no draw", func(t *testing.T) {
		p := testEvalParams()
		p.EvalProbability = 1
		ma := NewMachine(&p, 0)
		rng := &fixedRand{v: 0.5}
		// Inside DecisionCooldown, so Evaluate itself draws nothing.
		self := Self{ID: 1, Capacity: 100, Age: 100}
		var res EvalResult
		if ma.Decide(self, 3, 20, 10, rng, &res) || rng.draws != 0 {
			t.Fatalf("Decide at EvalProbability 1: %+v after %d draws, want no evaluation and 0 draws", res, rng.draws)
		}
	})
	t.Run("leaf draws the stagger first", func(t *testing.T) {
		p := testEvalParams()
		p.RateLimit = true
		p.RateGain = 1
		p.SelectionSharpness = 0
		p.EvalProbability = 0.5
		for _, c := range []struct {
			draws     []float64
			taken     int
			evaluated bool
			action    Action
		}{
			{[]float64{0.6}, 1, false, ActionNone},         // stagger fails: no evaluation
			{[]float64{0.4, 0.01}, 2, true, ActionPromote}, // stagger, then the rate limit (0.1) passes
			{[]float64{0.4, 0.99}, 2, true, ActionNone},    // the rate limit holds the switch back
		} {
			ma := NewMachine(&p, 0)
			ma.observe(2, 1, 1, 1, 0)
			report(ma, 2, 30, 1) // r=1.5 -> prob (r-1)/eta/EvalProbability = 0.1
			rng := &seqRand{v: c.draws}
			var res EvalResult
			decided := ma.Decide(Self{ID: 1, Capacity: 100, Age: 100}, 10, 20, 10, rng, &res)
			if rng.draws != c.taken || decided != c.evaluated || res.Evaluated != c.evaluated || res.Action != c.action {
				t.Errorf("draws %v: took %d, evaluated %v, action %v; want %d, %v, %v",
					c.draws, rng.draws, res.Evaluated, res.Action, c.taken, c.evaluated, c.action)
			}
		}
	})
}
