package protocol

import (
	"math"
	"slices"
	"testing"

	"dlm/internal/msg"
)

// pendingParams returns params with an easy-to-reason-about timeout
// discipline: deadline 5 units out, one retry, small related-set cap.
func pendingParams() Params {
	p := DefaultParams()
	p.RequestTimeout = 5
	p.MaxRetries = 1
	p.MaxRelatedSet = 3 // pending cap 6
	return p
}

// sentFrame is one frame and the side it departed from.
type sentFrame struct {
	fromLeaf bool
	m        msg.Message
}

// pairNet wires a leaf machine and a super machine to one endpoint per
// side. Every frame is logged with its sending side; with inline set it is
// also handed at once to the addressed machine, the zero-latency
// simulation's re-entrant delivery, unless its sender loses frames of its
// kind (superLoses, leafLoses), and otherwise it is lost.
type pairNet struct {
	leaf, super           *Machine
	lSelf, sSelf          Self
	lep, sep              *sideEndpoint
	now                   Time
	inline                bool
	superLoses, leafLoses msg.Kind
	log                   []sentFrame
}

func newPairNet(p *Params, inline bool) *pairNet {
	n := &pairNet{
		leaf:   NewMachine(p, 0),
		super:  NewMachine(p, 0),
		lSelf:  Self{ID: 2, Capacity: 10, Age: 5},
		sSelf:  Self{ID: 1, Capacity: 40, Age: 8, IsSuper: true, LeafDegree: 1},
		now:    10,
		inline: inline,
	}
	n.lep = &sideEndpoint{n: n, leaf: true}
	n.sep = &sideEndpoint{n: n}
	return n
}

type sideEndpoint struct {
	n    *pairNet
	leaf bool
}

func (e *sideEndpoint) Send(m msg.Message) {
	n := e.n
	n.log = append(n.log, sentFrame{fromLeaf: e.leaf, m: m})
	switch {
	case !n.inline || !e.leaf && m.Kind == n.superLoses || e.leaf && m.Kind == n.leafLoses:
	case e.leaf:
		n.super.HandleMessage(n.sSelf, &m, n.now, n.sep)
	default:
		n.leaf.HandleMessage(n.lSelf, &m, n.now, n.lep)
	}
}

// IsLeafNeighbor implements Endpoint: the leaf is the super's one leaf.
func (e *sideEndpoint) IsLeafNeighbor(id msg.PeerID) bool {
	return !e.leaf && id == e.n.lSelf.ID
}

// checkLog compares the logged frames, with their sending sides, to want
// and clears the log.
func (n *pairNet) checkLog(t *testing.T, what string, want ...sentFrame) {
	t.Helper()
	if !slices.Equal(n.log, want) {
		t.Fatalf("%s sent %+v, want %+v", what, n.log, want)
	}
	n.log = nil
}

// valueOf is the Value frame a peer sends: its capacity, age and leaf
// degree. Built here rather than by the protocol, so the tests check the
// protocol's frames too.
func valueOf(from Self, to msg.PeerID) msg.Message {
	m := msg.ValueResponse(from.ID, to, from.Capacity, from.Age)
	m.NeighNum = uint32(from.LeafDegree)
	return m
}

// TestExchangeAndRefresh pins the request side of Phase 1: the frames
// Exchange and Refresh send, their order and sending side, and that every
// deadline is registered before the first frame departs — with inline
// answers nothing may stay pending, and with every frame lost exactly the
// unanswered rows stay pending and are the ones ExpirePending re-asks
// with a bare request. Exchange sends two frames, the super's Value frame,
// which carries l_nn, and then the leaf's. Refresh asks a super outside
// G(l) with a bare ValueRequest, whose answer brings values and l_nn, and
// one in G(l) for l_nn alone, whose response re-stamps the entry.
func TestExchangeAndRefresh(t *testing.T) {
	p := pendingParams()
	byLeaf := func(m msg.Message) sentFrame { return sentFrame{fromLeaf: true, m: m} }
	bySuper := func(m msg.Message) sentFrame { return sentFrame{m: m} }
	const l, s = 2, 1

	t.Run("exchange-inline", func(t *testing.T) {
		n := newPairNet(&p, true)
		Exchange(n.leaf, n.lep, n.super, n.sep, n.lSelf, n.sSelf, n.now)
		n.checkLog(t, "Exchange",
			bySuper(valueOf(n.sSelf, l)),
			byLeaf(valueOf(n.lSelf, s)))
		if a, b := n.leaf.PendingRequests(), n.super.PendingRequests(); a != 0 || b != 0 {
			t.Fatalf("inline answers left leaf %d and super %d requests pending", a, b)
		}
		if !n.leaf.Has(s) || !n.super.Has(l) {
			t.Fatal("the exchange did not admit each side to the other's related set")
		}
		if lnn, when, ok := n.leaf.LnnReport(s); !ok || lnn != 1 || when != n.now {
			t.Fatalf("leaf's l_nn report = %d, %v, %v; want 1 from %v", lnn, when, ok, n.now)
		}
	})

	t.Run("exchange-lost", func(t *testing.T) {
		n := newPairNet(&p, false)
		Exchange(n.leaf, n.lep, n.super, n.sep, n.lSelf, n.sSelf, n.now)
		n.checkLog(t, "Exchange",
			bySuper(valueOf(n.sSelf, l)),
			byLeaf(valueOf(n.lSelf, s)))
		if a, b := n.leaf.PendingRequests(), n.super.PendingRequests(); a != 1 || b != 1 {
			t.Fatalf("lost frames left leaf %d and super %d requests pending, want 1 and 1", a, b)
		}
		late := n.now + p.RequestTimeout
		if r, _ := n.leaf.ExpirePending(n.lSelf.ID, late, n.lep); r != 1 {
			t.Fatalf("leaf re-sent %d requests, want 1", r)
		}
		n.checkLog(t, "the leaf's expiry", byLeaf(msg.ValueRequest(l, s)))
		if r, _ := n.super.ExpirePending(n.sSelf.ID, late, n.sep); r != 1 {
			t.Fatalf("super re-sent %d requests, want 1", r)
		}
		n.checkLog(t, "the super's expiry", bySuper(msg.ValueRequest(s, l)))
	})

	t.Run("refresh-inline", func(t *testing.T) {
		n := newPairNet(&p, true)
		n.leaf.Refresh(l, s, n.now, n.lep)
		n.checkLog(t, "Refresh",
			byLeaf(msg.ValueRequest(l, s)),
			bySuper(valueOf(n.sSelf, l)))
		if a := n.leaf.PendingRequests(); a != 0 {
			t.Fatalf("inline answers left %d requests pending", a)
		}
		if lnn, _, ok := n.leaf.LnnReport(s); !ok || lnn != 1 {
			t.Fatalf("leaf's l_nn report = %d, %v; want 1", lnn, ok)
		}
	})

	t.Run("refresh-lost", func(t *testing.T) {
		n := newPairNet(&p, false)
		n.leaf.Refresh(l, s, n.now, n.lep)
		want := byLeaf(msg.ValueRequest(l, s))
		n.checkLog(t, "Refresh", want)
		if a := n.leaf.PendingRequests(); a != 1 {
			t.Fatalf("lost frames left %d requests pending, want 1", a)
		}
		if r, _ := n.leaf.ExpirePending(n.lSelf.ID, n.now+p.RequestTimeout, n.lep); r != 1 {
			t.Fatalf("leaf re-sent %d requests, want 1", r)
		}
		n.checkLog(t, "the leaf's expiry", want)
	})

	// known returns a pair whose leaf already holds s in G(l), the log
	// cleared and the clock moved on.
	known := func(inline bool) *pairNet {
		n := newPairNet(&p, true)
		Exchange(n.leaf, n.lep, n.super, n.sep, n.lSelf, n.sSelf, n.now)
		n.log, n.inline = nil, inline
		n.now += 30
		return n
	}

	t.Run("refresh-known", func(t *testing.T) {
		n := known(true)
		n.leaf.Refresh(l, s, n.now, n.lep)
		n.checkLog(t, "Refresh",
			byLeaf(msg.NeighNumRequest(l, s)),
			bySuper(msg.NeighNumResponse(s, l, 1)))
		if a := n.leaf.PendingRequests(); a != 0 {
			t.Fatalf("inline answers left %d requests pending", a)
		}
		if seen := n.leaf.rel()[n.leaf.ids.Index(s)].lastSeen; seen != n.now {
			t.Fatalf("the l_nn response left lastSeen at %v, want %v", seen, n.now)
		}
		if bad := n.leaf.CheckInvariants(); bad != "" {
			t.Fatal(bad)
		}
	})

	t.Run("refresh-known-lost", func(t *testing.T) {
		n := known(false)
		n.leaf.Refresh(l, s, n.now, n.lep)
		want := byLeaf(msg.NeighNumRequest(l, s))
		n.checkLog(t, "Refresh", want)
		if a := n.leaf.PendingRequests(); a != 1 {
			t.Fatalf("a lost frame left %d requests pending, want 1", a)
		}
		if r, _ := n.leaf.ExpirePending(n.lSelf.ID, n.now+p.RequestTimeout, n.lep); r != 1 {
			t.Fatalf("leaf re-sent %d requests, want 1", r)
		}
		n.checkLog(t, "the leaf's expiry", want)
	})

	t.Run("refresh-after-drop", func(t *testing.T) {
		n := known(true)
		n.leaf.Drop(s)
		n.leaf.Refresh(l, s, n.now, n.lep)
		n.checkLog(t, "Refresh",
			byLeaf(msg.ValueRequest(l, s)),
			bySuper(valueOf(n.sSelf, l)))
		if !n.leaf.Has(s) {
			t.Fatal("the Value frame did not re-admit s to G(l)")
		}
		if _, when, ok := n.leaf.LnnReport(s); !ok || when != n.now {
			t.Fatalf("leaf's l_nn report from %v, %v; want one from %v", when, ok, n.now)
		}
	})
}

// TestExchangeMatchesBothWayValuePairs pins what the two-push exchange
// keeps: after inline delivery both machines hold the G entries (their
// l_nn reports included), l_nn reports and AvgLnn that the six-frame
// exchange — a Value pair in each direction, then the leaf's l_nn
// request — leaves behind.
func TestExchangeMatchesBothWayValuePairs(t *testing.T) {
	p := pendingParams()
	const l, s = 2, 1
	got := newPairNet(&p, true)
	Exchange(got.leaf, got.lep, got.super, got.sep, got.lSelf, got.sSelf, got.now)

	want := newPairNet(&p, true)
	want.super.expect(l, pairValue, want.now)
	want.leaf.expect(s, pairValue, want.now)
	want.leaf.expect(s, pairNeighNum, want.now)
	want.sep.Send(msg.ValueRequest(s, l))
	want.lep.Send(msg.ValueRequest(l, s))
	want.lep.Send(msg.NeighNumRequest(l, s))
	if len(want.log) != 6 || len(got.log) != 2 {
		t.Fatalf("the exchanges sent %d and %d frames, want 6 and 2", len(want.log), len(got.log))
	}

	for _, side := range []struct {
		name      string
		got, want *Machine
		other     msg.PeerID
	}{{"leaf", got.leaf, want.leaf, s}, {"super", got.super, want.super, l}} {
		g, w := side.got, side.want
		if !slices.Equal(g.ids.IDs(), w.ids.IDs()) || !slices.Equal(g.rel(), w.rel()) {
			t.Errorf("%s: G = %v %+v, want %v %+v", side.name, g.ids.IDs(), g.rel(), w.ids.IDs(), w.rel())
		}
		gl, gw, gok := g.LnnReport(side.other)
		wl, ww, wok := w.LnnReport(side.other)
		if gl != wl || gw != ww || gok != wok {
			t.Errorf("%s: l_nn report %d,%v,%v, want %d,%v,%v", side.name, gl, gw, gok, wl, ww, wok)
		}
		ga, gaok := g.AvgLnn()
		wa, waok := w.AvgLnn()
		if math.Float64bits(ga) != math.Float64bits(wa) || gaok != waok {
			t.Errorf("%s: AvgLnn %v,%v, want %v,%v", side.name, ga, gaok, wa, waok)
		}
		if g.PendingRequests() != 0 || w.PendingRequests() != 0 {
			t.Errorf("%s: %d and %d requests left pending, want none", side.name, g.PendingRequests(), w.PendingRequests())
		}
	}
	if _, _, ok := got.leaf.LnnReport(s); !ok {
		t.Error("the exchange left the leaf without s's l_nn report")
	}
}

// TestExchangeRetriesLostValueRequest: each push is its receiver's only
// source of the sender's values, so when one is lost the receiver's
// Value row re-asks with a bare ValueRequest, and the counterpart's
// answer — its values at the retry's time, and the super's l_nn —
// admits the sender.
func TestExchangeRetriesLostValueRequest(t *testing.T) {
	p := pendingParams()
	const l, s = 2, 1

	t.Run("super-push-lost", func(t *testing.T) {
		n := newPairNet(&p, true)
		n.superLoses = msg.KindValueResponse
		Exchange(n.leaf, n.lep, n.super, n.sep, n.lSelf, n.sSelf, n.now)
		if n.leaf.Has(s) || !n.super.Has(l) {
			t.Fatalf("with the super's push lost: G(l) ∋ s %v, G(s) ∋ l %v; want false, true", n.leaf.Has(s), n.super.Has(l))
		}
		if a, b := n.leaf.PendingRequests(), n.super.PendingRequests(); a != 1 || b != 0 {
			t.Fatalf("leaf %d and super %d requests pending, want 1 and 0", a, b)
		}

		n.superLoses = msg.KindInvalid
		n.now += p.RequestTimeout
		n.sSelf.Age += float64(p.RequestTimeout)
		n.sSelf.LeafDegree = 4
		if r, d := n.leaf.ExpirePending(n.lSelf.ID, n.now, n.lep); r != 1 || d != 0 {
			t.Fatalf("leaf's expiry: %d retries, %d drops; want 1 and 0", r, d)
		}
		if capacity, age, ok := n.leaf.Related(s, n.now); !ok || capacity != n.sSelf.Capacity || age != n.sSelf.Age {
			t.Fatalf("leaf's entry for s after the retry = %v, %v, %v; want %v, %v, true",
				capacity, age, ok, n.sSelf.Capacity, n.sSelf.Age)
		}
		if lnn, when, ok := n.leaf.LnnReport(s); !ok || lnn != 4 || when != n.now {
			t.Fatalf("leaf's l_nn report after the retry = %d, %v, %v; want 4 from %v", lnn, when, ok, n.now)
		}
		if n.leaf.PendingRequests() != 0 {
			t.Fatalf("the retry's answer left the leaf %d pending", n.leaf.PendingRequests())
		}
	})

	t.Run("leaf-push-lost", func(t *testing.T) {
		n := newPairNet(&p, true)
		n.leafLoses = msg.KindValueResponse
		Exchange(n.leaf, n.lep, n.super, n.sep, n.lSelf, n.sSelf, n.now)
		if !n.leaf.Has(s) || n.super.Has(l) {
			t.Fatalf("with the leaf's push lost: G(l) ∋ s %v, G(s) ∋ l %v; want true, false", n.leaf.Has(s), n.super.Has(l))
		}
		if a, b := n.leaf.PendingRequests(), n.super.PendingRequests(); a != 0 || b != 1 {
			t.Fatalf("leaf %d and super %d requests pending, want 0 and 1", a, b)
		}

		n.leafLoses = msg.KindInvalid
		n.now += p.RequestTimeout
		n.lSelf.Age += float64(p.RequestTimeout)
		if r, d := n.super.ExpirePending(n.sSelf.ID, n.now, n.sep); r != 1 || d != 0 {
			t.Fatalf("super's expiry: %d retries, %d drops; want 1 and 0", r, d)
		}
		if capacity, age, ok := n.super.Related(l, n.now); !ok || capacity != n.lSelf.Capacity || age != n.lSelf.Age {
			t.Fatalf("super's entry for l after the retry = %v, %v, %v; want %v, %v, true",
				capacity, age, ok, n.lSelf.Capacity, n.lSelf.Age)
		}
		if n.super.PendingRequests() != 0 {
			t.Fatalf("the retry's answer left the super %d pending", n.super.PendingRequests())
		}
	})
}

// TestValueRequestDepartsFirst pins the order that keeps every l_nn report
// in its sender's G(l) entry: an exchange registers both Value rows, then
// sends the super's push before the leaf's, and a refresh toward a super
// outside G(l) registers and sends its Value request alone, which
// ExpirePending re-sends; over zero-latency delivery the leaf ends up
// holding the super's report either way.
func TestValueRequestDepartsFirst(t *testing.T) {
	p := pendingParams()
	const l, s = 2, 1
	holdsReport := func(t *testing.T, n *pairNet) {
		t.Helper()
		if lnn, when, ok := n.leaf.LnnReport(s); !ok || lnn != 1 || when != n.now {
			t.Fatalf("leaf's l_nn report = %d, %v, %v; want 1 from %v", lnn, when, ok, n.now)
		}
		if avg, ok := n.leaf.AvgLnn(); !ok || avg != 1 {
			t.Fatalf("leaf's AvgLnn = %v, %v; want 1", avg, ok)
		}
	}
	valueRow := func(t *testing.T, what string, ma *Machine, peer msg.PeerID) {
		t.Helper()
		if pend := ma.pend(); len(pend) != 1 || pend[0].pair != pairValue || pend[0].peer != peer {
			t.Fatalf("%s registered %+v, want one Value row toward %v", what, pend, peer)
		}
	}

	t.Run("exchange", func(t *testing.T) {
		lost := newPairNet(&p, false)
		Exchange(lost.leaf, lost.lep, lost.super, lost.sep, lost.lSelf, lost.sSelf, lost.now)
		valueRow(t, "the super", lost.super, l)
		valueRow(t, "the leaf", lost.leaf, s)
		if f := lost.log; len(f) != 2 || f[0].fromLeaf || !f[1].fromLeaf {
			t.Fatalf("Exchange sent %+v, want the super's Value frame, then the leaf's", f)
		}
		n := newPairNet(&p, true)
		Exchange(n.leaf, n.lep, n.super, n.sep, n.lSelf, n.sSelf, n.now)
		holdsReport(t, n)
	})

	t.Run("refresh", func(t *testing.T) {
		lost := newPairNet(&p, false)
		lost.leaf.Refresh(l, s, lost.now, lost.lep)
		valueRow(t, "Refresh", lost.leaf, s)
		if got := lost.kinds(); !slices.Equal(got, []msg.Kind{msg.KindValueRequest}) {
			t.Fatalf("Refresh sent %v, want one ValueRequest", got)
		}
		lost.leaf.ExpirePending(lost.lSelf.ID, lost.now+p.RequestTimeout, lost.lep)
		if got := lost.kinds(); !slices.Equal(got, []msg.Kind{msg.KindValueRequest}) {
			t.Fatalf("the expiry re-sent %v, want the ValueRequest", got)
		}
		n := newPairNet(&p, true)
		n.leaf.Refresh(l, s, n.now, n.lep)
		holdsReport(t, n)
	})
}

// kinds returns the kinds of the logged frames and clears the log.
func (n *pairNet) kinds() []msg.Kind {
	var k []msg.Kind
	for _, f := range n.log {
		k = append(k, f.m.Kind)
	}
	n.log = nil
	return k
}

// TestValueFrameReplacesReport: a leaf that re-observes a super it already
// holds — a reconnect re-runs the exchange — takes the l_nn the new Value
// frame carries, not the one it stored before.
func TestValueFrameReplacesReport(t *testing.T) {
	p := pendingParams()
	const s = 1
	n := newPairNet(&p, true)
	Exchange(n.leaf, n.lep, n.super, n.sep, n.lSelf, n.sSelf, n.now)
	n.now += 3
	n.sSelf.LeafDegree = 9
	Exchange(n.leaf, n.lep, n.super, n.sep, n.lSelf, n.sSelf, n.now)
	if lnn, when, ok := n.leaf.LnnReport(s); !ok || lnn != 9 || when != n.now {
		t.Fatalf("leaf's l_nn report after the second exchange = %d, %v, %v; want 9 from %v", lnn, when, ok, n.now)
	}
	if avg, ok := n.leaf.AvgLnn(); !ok || avg != 9 || n.leaf.Size() != 1 {
		t.Fatalf("leaf's AvgLnn = %v, %v over |G|=%d; want 9 over 1", avg, ok, n.leaf.Size())
	}
}

// TestSuperIgnoresReportedLnn: a super's G never stores the leaf degree a
// Value frame carries, whether the frame is a push, an answer or a
// re-observation.
func TestSuperIgnoresReportedLnn(t *testing.T) {
	p := pendingParams()
	const l = 2
	n := newPairNet(&p, true)
	n.lSelf.LeafDegree = 5 // a leaf's frame carries whatever its host reports
	Exchange(n.leaf, n.lep, n.super, n.sep, n.lSelf, n.sSelf, n.now)
	n.now++
	n.super.expect(l, pairValue, n.now)
	n.sep.Send(msg.ValueRequest(1, l))
	if !n.super.Has(l) || n.super.PendingRequests() != 0 {
		t.Fatalf("super: G(s) ∋ l %v with %d pending; want the leaf admitted, nothing pending", n.super.Has(l), n.super.PendingRequests())
	}
	if _, _, ok := n.super.LnnReport(l); ok {
		t.Fatal("the super stored the leaf's reported degree")
	}
	if avg, ok := n.super.AvgLnn(); ok {
		t.Fatalf("the super's AvgLnn = %v from stored reports, want none", avg)
	}
}

// TestReportFromOutsideGDropped: a NeighNumResponse from a peer outside
// G(l) settles its pending row — the peer answered — but stores nothing:
// G and AvgLnn are unchanged, and when the peer is admitted later its
// entry holds the report its Value frame carried, not the dropped one.
func TestReportFromOutsideGDropped(t *testing.T) {
	p := pendingParams()
	ma := NewMachine(&p, 0)
	ep := &captureEndpoint{}
	self := Self{ID: 1, Capacity: 10, Age: 5}
	ma.observe(3, 50, 20, 1, 0)
	report(ma, 3, 40, 1)
	before := slices.Clone(ma.rel())

	ma.expect(2, pairNeighNum, 2)
	nn := msg.NeighNumResponse(2, 1, 9)
	ma.HandleMessage(self, &nn, 2, ep)
	if ma.PendingRequests() != 0 {
		t.Fatalf("the response left %d requests pending, want its row settled", ma.PendingRequests())
	}
	if ma.Has(2) || !slices.Equal(ma.rel(), before) {
		t.Fatalf("the report changed G: %v %+v, want [3] %+v", ma.ids.IDs(), ma.rel(), before)
	}
	if avg, ok := ma.AvgLnn(); !ok || avg != 40 {
		t.Fatalf("AvgLnn = %v, %v; want 40 from the member's report alone", avg, ok)
	}
	vr := valueOf(Self{ID: 2, Capacity: 50, Age: 20, LeafDegree: 7}, 1)
	ma.HandleMessage(self, &vr, 3, ep)
	if lnn, _, ok := ma.LnnReport(2); !ok || lnn != 7 || !ma.Has(2) {
		t.Fatalf("after admission: member %v, report %d, %v; want a member reporting 7", ma.Has(2), lnn, ok)
	}
	if bad := ma.CheckInvariants(); bad != "" {
		t.Fatal(bad)
	}
}

// TestRefreshKeepsSuperInWindow pins what the l_nn re-stamp is for: when
// refreshes are a leaf's only contact with a super, which answers with
// l_nn alone, the super stays in G(l) across the leaf window for at least
// three refresh rounds.
func TestRefreshKeepsSuperInWindow(t *testing.T) {
	p := DefaultParams()
	p.LeafWindow = 60
	const l, s = 2, 1
	n := newPairNet(&p, true)
	Exchange(n.leaf, n.lep, n.super, n.sep, n.lSelf, n.sSelf, n.now)
	n.log = nil
	end := n.now + 3*p.RefreshInterval
	for ; n.now <= end; n.now++ {
		if n.leaf.RefreshDue(n.now) {
			n.leaf.Refresh(l, s, n.now, n.lep)
		}
		n.leaf.prune(n.now, p.LeafWindow)
		if !n.leaf.Has(s) {
			t.Fatalf("s left G(l) at t=%v", n.now)
		}
		if bad := n.leaf.CheckInvariants(); bad != "" {
			t.Fatalf("t=%v: %s", n.now, bad)
		}
	}
	// Three rounds, each a NeighNum request and its response.
	if len(n.log) != 6 {
		t.Fatalf("refresh sent %+v, want three l_nn rounds", n.log)
	}
}

// TestPendingFaultPatterns drives the pending-request table through the
// message-level fault patterns the adverse network produces: silence
// (drop), duplicated responses, responses racing a retry (reorder), and
// a refresh superseding an outstanding request.
func TestPendingFaultPatterns(t *testing.T) {
	self := Self{ID: 1, Capacity: 10, Age: 5}
	tests := []struct {
		name string
		run  func(t *testing.T, ma *Machine, ep *captureEndpoint)
	}{
		{
			// The response never arrives: the entry retries until the
			// budget is spent, then is abandoned, and each phase is
			// visible in the counts ExpirePending returns.
			name: "drop-all",
			run: func(t *testing.T, ma *Machine, ep *captureEndpoint) {
				ma.expect(2, pairNeighNum, 0)
				if r, d := ma.ExpirePending(self.ID, 4, ep); r != 0 || d != 0 {
					t.Fatalf("expired before deadline: retries=%d drops=%d", r, d)
				}
				if r, d := ma.ExpirePending(self.ID, 5, ep); r != 1 || d != 0 {
					t.Fatalf("first deadline: retries=%d drops=%d, want 1,0", r, d)
				}
				if len(ep.sent) != 1 || ep.sent[0] != msg.NeighNumRequest(1, 2) {
					t.Fatalf("retry frame = %+v", ep.sent)
				}
				if r, d := ma.ExpirePending(self.ID, 10, ep); r != 0 || d != 1 {
					t.Fatalf("budget spent: retries=%d drops=%d, want 0,1", r, d)
				}
				if ma.PendingRequests() != 0 {
					t.Fatal("abandoned entry still pending")
				}
			},
		},
		{
			// A duplicated response settles the entry once; the copy finds
			// no entry and must not disturb the table or the related set.
			name: "duplicate-response",
			run: func(t *testing.T, ma *Machine, ep *captureEndpoint) {
				ma.expect(2, pairValue, 0)
				vr := msg.ValueResponse(2, 1, 50, 20)
				ma.HandleMessage(self, &vr, 1, ep)
				if ma.PendingRequests() != 0 {
					t.Fatal("response did not settle the entry")
				}
				ma.HandleMessage(self, &vr, 1, ep) // the duplicate
				if ma.PendingRequests() != 0 || ma.Size() != 1 {
					t.Fatalf("duplicate disturbed state: pending=%d related=%d",
						ma.PendingRequests(), ma.Size())
				}
				// Nothing times out later: the settled pair stays settled.
				if r, d := ma.ExpirePending(self.ID, 100, ep); r != 0 || d != 0 {
					t.Fatalf("settled entry expired: retries=%d drops=%d", r, d)
				}
			},
		},
		{
			// The original response arrives after a retry already went out
			// (reordering): it settles the retried entry, and the eventual
			// duplicate answer to the retry is absorbed.
			name: "response-races-retry",
			run: func(t *testing.T, ma *Machine, ep *captureEndpoint) {
				ma.expect(2, pairNeighNum, 0)
				if r, _ := ma.ExpirePending(self.ID, 5, ep); r != 1 {
					t.Fatalf("retry not sent: %d", r)
				}
				nn := msg.NeighNumResponse(2, 1, 9)
				ma.HandleMessage(self, &nn, 6, ep) // late original answer
				if ma.PendingRequests() != 0 {
					t.Fatal("late response did not settle the retried entry")
				}
				ma.HandleMessage(self, &nn, 7, ep) // answer to the retry
				if ma.PendingRequests() != 0 {
					t.Fatal("duplicate answer re-created an entry")
				}
				if r, d := ma.ExpirePending(self.ID, 100, ep); r != 0 || d != 0 {
					t.Fatalf("ghost expiry: retries=%d drops=%d", r, d)
				}
			},
		},
		{
			// A refresh re-request supersedes the outstanding one: a single
			// entry with a fresh deadline and a fresh retry budget.
			name: "supersede",
			run: func(t *testing.T, ma *Machine, ep *captureEndpoint) {
				ma.expect(2, pairValue, 0)
				if r, _ := ma.ExpirePending(self.ID, 5, ep); r != 1 {
					t.Fatal("first deadline did not retry")
				}
				ma.expect(2, pairValue, 6) // refresh supersedes
				if ma.PendingRequests() != 1 {
					t.Fatalf("superseding expect stacked entries: %d",
						ma.PendingRequests())
				}
				// Budget was reset: the superseded entry retries again
				// instead of being abandoned.
				ep.sent = nil
				if r, d := ma.ExpirePending(self.ID, 11, ep); r != 1 || d != 0 {
					t.Fatalf("superseded entry: retries=%d drops=%d, want 1,0", r, d)
				}
				if len(ep.sent) != 1 || ep.sent[0].Kind != msg.KindValueRequest {
					t.Fatalf("resend frame = %+v", ep.sent)
				}
			},
		},
		{
			// Losing the peer clears both of its outstanding entries.
			name: "peer-drop-clears",
			run: func(t *testing.T, ma *Machine, ep *captureEndpoint) {
				ma.expect(2, pairNeighNum, 0)
				ma.expect(2, pairValue, 0)
				ma.expect(3, pairValue, 0)
				ma.Drop(2)
				if ma.PendingRequests() != 1 {
					t.Fatalf("pending after Drop(2) = %d, want 1",
						ma.PendingRequests())
				}
				if r, _ := ma.ExpirePending(self.ID, 5, ep); r != 1 {
					t.Fatal("survivor entry did not retry")
				}
				if ep.sent[0].To != 3 {
					t.Fatalf("retry addressed to %d, want 3", ep.sent[0].To)
				}
			},
		},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			p := pendingParams()
			ma := NewMachine(&p, 0)
			ep := &captureEndpoint{leafNeighbors: map[msg.PeerID]bool{2: true, 3: true}}
			tc.run(t, ma, ep)
			if bad := ma.CheckInvariants(); bad != "" {
				t.Fatal(bad)
			}
		})
	}
}

func TestPendingTableBounded(t *testing.T) {
	p := pendingParams() // MaxRelatedSet 3 -> cap 6
	ma := NewMachine(&p, 0)
	for i := 0; i < 20; i++ {
		ma.expect(msg.PeerID(i+1), pairNeighNum, Time(i))
		ma.expect(msg.PeerID(i+1), pairValue, Time(i))
	}
	if got := ma.PendingRequests(); got != 6 {
		t.Fatalf("pending = %d, want cap 6", got)
	}
	// FIFO: only the newest three peers survive.
	ep := &captureEndpoint{}
	ma.ExpirePending(1, 1000, ep)
	for _, m := range ep.sent {
		if m.To < 18 {
			t.Fatalf("evicted peer %d still pending", m.To)
		}
	}
	if bad := ma.CheckInvariants(); bad != "" {
		t.Fatal(bad)
	}
}

func TestPendingDisabledByZeroTimeout(t *testing.T) {
	p := pendingParams()
	p.RequestTimeout = 0
	ma := NewMachine(&p, 0)
	ma.expect(2, pairNeighNum, 0)
	if ma.PendingRequests() != 0 {
		t.Fatal("expect registered with RequestTimeout 0")
	}
	ep := &captureEndpoint{}
	if r, d := ma.ExpirePending(1, 1000, ep); r != 0 || d != 0 {
		t.Fatalf("disabled table expired: %d,%d", r, d)
	}
}

func TestPendingResetSemantics(t *testing.T) {
	p := pendingParams()
	ma := NewMachine(&p, 0)
	ep := &captureEndpoint{}
	ma.expect(2, pairNeighNum, 0)
	if r, d := ma.ExpirePending(1, 5, ep); r != 1 || d != 0 {
		t.Fatalf("first deadline: retries=%d drops=%d, want 1,0", r, d)
	}
	if r, d := ma.ExpirePending(1, 10, ep); r != 0 || d != 1 {
		t.Fatalf("budget spent: retries=%d drops=%d, want 0,1", r, d)
	}
	ma.expect(3, pairValue, 11)
	ma.Reset(12)
	// The table is protocol state and clears on a role change: nothing is
	// left to retry or abandon.
	if ma.PendingRequests() != 0 {
		t.Fatal("Reset kept pending entries")
	}
	if r, d := ma.ExpirePending(1, 100, ep); r != 0 || d != 0 {
		t.Fatalf("expiry after Reset: retries=%d drops=%d, want 0,0", r, d)
	}
	if bad := ma.CheckInvariants(); bad != "" {
		t.Fatal(bad)
	}
}

// TestPendingRelatedSetOracle cross-checks the two tables: responses that
// settle pending entries feed the related set through the normal handler
// path, so after a lossy-but-eventually-delivered conversation the
// related set holds exactly the peers that answered, regardless of
// duplication.
func TestPendingRelatedSetOracle(t *testing.T) {
	p := pendingParams()
	ma := NewMachine(&p, 0)
	ep := &captureEndpoint{}
	self := Self{ID: 1, Capacity: 10, Age: 5}

	answered := map[msg.PeerID]bool{2: true, 4: true}
	for _, id := range []msg.PeerID{2, 3, 4} {
		ma.expect(id, pairValue, 0)
	}
	for id := range answered {
		vr := msg.ValueResponse(id, 1, 50, 20)
		ma.HandleMessage(self, &vr, 1, ep)
		ma.HandleMessage(self, &vr, 1, ep) // duplicated delivery
	}
	if ma.PendingRequests() != 1 {
		t.Fatalf("pending = %d, want 1 (the silent peer)", ma.PendingRequests())
	}
	for _, id := range []msg.PeerID{2, 3, 4} {
		if ma.Has(id) != answered[id] {
			t.Fatalf("related set wrong for peer %d: has=%v want=%v",
				id, ma.Has(id), answered[id])
		}
	}
	if bad := ma.CheckInvariants(); bad != "" {
		t.Fatal(bad)
	}
}
