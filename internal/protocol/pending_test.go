package protocol

import (
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
// simulation's re-entrant delivery, unless the super sent it and it is of
// kind superLoses, and otherwise it is lost.
type pairNet struct {
	leaf, super  *Machine
	lSelf, sSelf Self
	lep, sep     *sideEndpoint
	now          Time
	inline       bool
	superLoses   msg.Kind
	log          []sentFrame
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
	case !n.inline || !e.leaf && m.Kind == n.superLoses:
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

// valueRequest is the ValueRequest a peer sends, carrying its capacity and
// age; built here rather than by request, so the tests check request too.
func valueRequest(from Self, to msg.PeerID) msg.Message {
	m := msg.ValueRequest(from.ID, to)
	m.Capacity, m.Age = from.Capacity, from.Age
	return m
}

// TestExchangeAndRefresh pins the request side of Phase 1: the frames
// Exchange and Refresh send, their order and sending side, and that every
// deadline is registered before the first frame departs — with inline
// answers nothing may stay pending, and with every frame lost exactly the
// unanswered requests stay pending and are the ones ExpirePending re-sends.
// Exchange sends two requests, the leaf's l_nn request and the super's
// ValueRequest, which carries the super's values. Refresh asks a super
// outside G(l) for l_nn and values, one in G(l) for l_nn alone, whose
// response re-stamps the entry.
func TestExchangeAndRefresh(t *testing.T) {
	p := pendingParams()
	byLeaf := func(m msg.Message) sentFrame { return sentFrame{fromLeaf: true, m: m} }
	bySuper := func(m msg.Message) sentFrame { return sentFrame{m: m} }
	const l, s = 2, 1

	t.Run("exchange-inline", func(t *testing.T) {
		n := newPairNet(&p, true)
		Exchange(n.leaf, n.lep, n.super, n.sep, l, n.sSelf, n.now)
		n.checkLog(t, "Exchange",
			byLeaf(msg.NeighNumRequest(l, s)),
			bySuper(msg.NeighNumResponse(s, l, 1)),
			bySuper(valueRequest(n.sSelf, l)),
			byLeaf(msg.ValueResponse(l, s, 10, 5)))
		if a, b := n.leaf.PendingRequests(), n.super.PendingRequests(); a != 0 || b != 0 {
			t.Fatalf("inline answers left leaf %d and super %d requests pending", a, b)
		}
		if !n.leaf.Has(s) || !n.super.Has(l) {
			t.Fatal("the exchange did not admit each side to the other's related set")
		}
		if lnn, _, ok := n.leaf.LnnReport(s); !ok || lnn != 1 {
			t.Fatalf("leaf's l_nn report = %d, %v; want 1", lnn, ok)
		}
	})

	t.Run("exchange-lost", func(t *testing.T) {
		n := newPairNet(&p, false)
		Exchange(n.leaf, n.lep, n.super, n.sep, l, n.sSelf, n.now)
		n.checkLog(t, "Exchange",
			byLeaf(msg.NeighNumRequest(l, s)),
			bySuper(valueRequest(n.sSelf, l)))
		if a, b := n.leaf.PendingRequests(), n.super.PendingRequests(); a != 1 || b != 1 {
			t.Fatalf("lost frames left leaf %d and super %d requests pending, want 1 and 1", a, b)
		}
		late := n.now + p.RequestTimeout
		if r, _ := n.leaf.ExpirePending(n.lSelf, late, n.lep); r != 1 {
			t.Fatalf("leaf re-sent %d requests, want 1", r)
		}
		n.checkLog(t, "the leaf's expiry", byLeaf(msg.NeighNumRequest(l, s)))
		if r, _ := n.super.ExpirePending(n.sSelf, late, n.sep); r != 1 {
			t.Fatalf("super re-sent %d requests, want 1", r)
		}
		n.checkLog(t, "the super's expiry", bySuper(valueRequest(n.sSelf, l)))
	})

	t.Run("refresh-inline", func(t *testing.T) {
		n := newPairNet(&p, true)
		n.leaf.Refresh(n.lSelf, s, n.now, n.lep)
		n.checkLog(t, "Refresh",
			byLeaf(msg.NeighNumRequest(l, s)),
			bySuper(msg.NeighNumResponse(s, l, 1)),
			byLeaf(valueRequest(n.lSelf, s)),
			bySuper(msg.ValueResponse(s, l, 40, 8)))
		if a := n.leaf.PendingRequests(); a != 0 {
			t.Fatalf("inline answers left %d requests pending", a)
		}
	})

	t.Run("refresh-lost", func(t *testing.T) {
		n := newPairNet(&p, false)
		n.leaf.Refresh(n.lSelf, s, n.now, n.lep)
		want := []sentFrame{byLeaf(msg.NeighNumRequest(l, s)), byLeaf(valueRequest(n.lSelf, s))}
		n.checkLog(t, "Refresh", want...)
		if a := n.leaf.PendingRequests(); a != 2 {
			t.Fatalf("lost frames left %d requests pending, want 2", a)
		}
		if r, _ := n.leaf.ExpirePending(n.lSelf, n.now+p.RequestTimeout, n.lep); r != 2 {
			t.Fatalf("leaf re-sent %d requests, want 2", r)
		}
		n.checkLog(t, "the leaf's expiry", want...)
	})

	// known returns a pair whose leaf already holds s in G(l), the log
	// cleared and the clock moved on.
	known := func(inline bool) *pairNet {
		n := newPairNet(&p, true)
		Exchange(n.leaf, n.lep, n.super, n.sep, l, n.sSelf, n.now)
		n.log, n.inline = nil, inline
		n.now += 30
		return n
	}

	t.Run("refresh-known", func(t *testing.T) {
		n := known(true)
		n.leaf.Refresh(n.lSelf, s, n.now, n.lep)
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
		n.leaf.Refresh(n.lSelf, s, n.now, n.lep)
		want := byLeaf(msg.NeighNumRequest(l, s))
		n.checkLog(t, "Refresh", want)
		if a := n.leaf.PendingRequests(); a != 1 {
			t.Fatalf("a lost frame left %d requests pending, want 1", a)
		}
		if r, _ := n.leaf.ExpirePending(n.lSelf, n.now+p.RequestTimeout, n.lep); r != 1 {
			t.Fatalf("leaf re-sent %d requests, want 1", r)
		}
		n.checkLog(t, "the leaf's expiry", want)
	})

	t.Run("refresh-after-drop", func(t *testing.T) {
		n := known(true)
		n.leaf.Drop(s)
		n.leaf.Refresh(n.lSelf, s, n.now, n.lep)
		n.checkLog(t, "Refresh",
			byLeaf(msg.NeighNumRequest(l, s)),
			bySuper(msg.NeighNumResponse(s, l, 1)),
			byLeaf(valueRequest(n.lSelf, s)),
			bySuper(msg.ValueResponse(s, l, 40, 8)))
		if !n.leaf.Has(s) {
			t.Fatal("the value response did not re-admit s to G(l)")
		}
	})
}

// TestExchangeMatchesBothWayValuePairs pins what the one-request
// completion keeps: after inline delivery both machines hold the G
// entries, l_nn report and l_nn sum and count that the exchange with a
// Value pair in each direction — its requests in the order that exchange
// sent them — leaves behind.
func TestExchangeMatchesBothWayValuePairs(t *testing.T) {
	p := pendingParams()
	const l, s = 2, 1
	got := newPairNet(&p, true)
	Exchange(got.leaf, got.lep, got.super, got.sep, l, got.sSelf, got.now)

	want := newPairNet(&p, true)
	want.leaf.expect(s, pairNeighNum, want.now)
	want.super.expect(l, pairValue, want.now)
	want.leaf.expect(s, pairValue, want.now)
	want.lep.Send(msg.NeighNumRequest(l, s))
	want.sep.Send(valueRequest(want.sSelf, l))
	want.lep.Send(valueRequest(want.lSelf, s))
	if len(want.log) != 6 || len(got.log) != 4 {
		t.Fatalf("the exchanges sent %d and %d frames, want 6 and 4", len(want.log), len(got.log))
	}

	for _, side := range []struct {
		name      string
		got, want *Machine
	}{{"leaf", got.leaf, want.leaf}, {"super", got.super, want.super}} {
		g, w := side.got, side.want
		if !slices.Equal(g.ids.IDs(), w.ids.IDs()) || !slices.Equal(g.rel(), w.rel()) {
			t.Errorf("%s: G = %v %+v, want %v %+v", side.name, g.ids.IDs(), g.rel(), w.ids.IDs(), w.rel())
		}
		if !slices.Equal(g.lnnIDs(), w.lnnIDs()) || !slices.Equal(g.lnnReps(), w.lnnReps()) {
			t.Errorf("%s: l_nn reports %v %+v, want %v %+v", side.name, g.lnnIDs(), g.lnnReps(), w.lnnIDs(), w.lnnReps())
		}
		if g.lnnSum != w.lnnSum || g.lnnCount != w.lnnCount {
			t.Errorf("%s: l_nn sum/count %d/%d, want %d/%d", side.name, g.lnnSum, g.lnnCount, w.lnnSum, w.lnnCount)
		}
		if g.PendingRequests() != 0 || w.PendingRequests() != 0 {
			t.Errorf("%s: %d and %d requests left pending, want none", side.name, g.PendingRequests(), w.PendingRequests())
		}
	}
}

// TestExchangeRetriesLostValueRequest: the super's ValueRequest is the
// leaf's only source of the super's values, so when it is lost the
// super's pending row re-sends it, carrying the super's values at the
// retry's time, and the retry admits the super to G(l).
func TestExchangeRetriesLostValueRequest(t *testing.T) {
	p := pendingParams()
	const l, s = 2, 1
	n := newPairNet(&p, true)
	n.superLoses = msg.KindValueRequest
	Exchange(n.leaf, n.lep, n.super, n.sep, l, n.sSelf, n.now)
	if n.leaf.Has(s) || n.super.Has(l) {
		t.Fatal("a side learned the other's values with the super's ValueRequest lost")
	}
	if a, b := n.leaf.PendingRequests(), n.super.PendingRequests(); a != 0 || b != 1 {
		t.Fatalf("leaf %d and super %d requests pending, want 0 and 1", a, b)
	}

	n.superLoses = msg.KindInvalid
	n.now += p.RequestTimeout
	n.sSelf.Age += float64(p.RequestTimeout)
	if r, d := n.super.ExpirePending(n.sSelf, n.now, n.sep); r != 1 || d != 0 {
		t.Fatalf("super's expiry: %d retries, %d drops; want 1 and 0", r, d)
	}
	if capacity, age, ok := n.leaf.Related(s, n.now); !ok || capacity != n.sSelf.Capacity || age != n.sSelf.Age {
		t.Fatalf("leaf's entry for s after the retry = %v, %v, %v; want %v, %v, true",
			capacity, age, ok, n.sSelf.Capacity, n.sSelf.Age)
	}
	if !n.super.Has(l) || n.super.PendingRequests() != 0 {
		t.Fatalf("the retry's answer left the super with G(s) ∋ l %v and %d pending", n.super.Has(l), n.super.PendingRequests())
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
	Exchange(n.leaf, n.lep, n.super, n.sep, l, n.sSelf, n.now)
	n.log = nil
	end := n.now + 3*p.RefreshInterval
	for ; n.now <= end; n.now++ {
		if n.leaf.RefreshDue(n.now) {
			n.leaf.Refresh(n.lSelf, s, n.now, n.lep)
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
				if r, d := ma.ExpirePending(self, 4, ep); r != 0 || d != 0 {
					t.Fatalf("expired before deadline: retries=%d drops=%d", r, d)
				}
				if r, d := ma.ExpirePending(self, 5, ep); r != 1 || d != 0 {
					t.Fatalf("first deadline: retries=%d drops=%d, want 1,0", r, d)
				}
				if len(ep.sent) != 1 || ep.sent[0] != msg.NeighNumRequest(1, 2) {
					t.Fatalf("retry frame = %+v", ep.sent)
				}
				if r, d := ma.ExpirePending(self, 10, ep); r != 0 || d != 1 {
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
				if r, d := ma.ExpirePending(self, 100, ep); r != 0 || d != 0 {
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
				if r, _ := ma.ExpirePending(self, 5, ep); r != 1 {
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
				if r, d := ma.ExpirePending(self, 100, ep); r != 0 || d != 0 {
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
				if r, _ := ma.ExpirePending(self, 5, ep); r != 1 {
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
				if r, d := ma.ExpirePending(self, 11, ep); r != 1 || d != 0 {
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
				if r, _ := ma.ExpirePending(self, 5, ep); r != 1 {
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
	ma.ExpirePending(Self{ID: 1}, 1000, ep)
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
	if r, d := ma.ExpirePending(Self{ID: 1}, 1000, ep); r != 0 || d != 0 {
		t.Fatalf("disabled table expired: %d,%d", r, d)
	}
}

func TestPendingResetSemantics(t *testing.T) {
	p := pendingParams()
	ma := NewMachine(&p, 0)
	ep := &captureEndpoint{}
	ma.expect(2, pairNeighNum, 0)
	if r, d := ma.ExpirePending(Self{ID: 1}, 5, ep); r != 1 || d != 0 {
		t.Fatalf("first deadline: retries=%d drops=%d, want 1,0", r, d)
	}
	if r, d := ma.ExpirePending(Self{ID: 1}, 10, ep); r != 0 || d != 1 {
		t.Fatalf("budget spent: retries=%d drops=%d, want 0,1", r, d)
	}
	ma.expect(3, pairValue, 11)
	ma.Reset(12)
	// The table is protocol state and clears on a role change: nothing is
	// left to retry or abandon.
	if ma.PendingRequests() != 0 {
		t.Fatal("Reset kept pending entries")
	}
	if r, d := ma.ExpirePending(Self{ID: 1}, 100, ep); r != 0 || d != 0 {
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
