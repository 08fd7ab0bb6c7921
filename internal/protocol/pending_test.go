package protocol

import (
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
				ma.Expect(2, msg.KindNeighNumRequest, 0)
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
				ma.Expect(2, msg.KindValueRequest, 0)
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
				ma.Expect(2, msg.KindNeighNumRequest, 0)
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
				ma.Expect(2, msg.KindValueRequest, 0)
				if r, _ := ma.ExpirePending(self, 5, ep); r != 1 {
					t.Fatal("first deadline did not retry")
				}
				ma.Expect(2, msg.KindValueRequest, 6) // refresh supersedes
				if ma.PendingRequests() != 1 {
					t.Fatalf("superseding Expect stacked entries: %d",
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
				ma.Expect(2, msg.KindNeighNumRequest, 0)
				ma.Expect(2, msg.KindValueRequest, 0)
				ma.Expect(3, msg.KindValueRequest, 0)
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
		ma.Expect(msg.PeerID(i+1), msg.KindNeighNumRequest, Time(i))
		ma.Expect(msg.PeerID(i+1), msg.KindValueRequest, Time(i))
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
	ma.Expect(2, msg.KindNeighNumRequest, 0)
	if ma.PendingRequests() != 0 {
		t.Fatal("Expect registered with RequestTimeout 0")
	}
	ep := &captureEndpoint{}
	if r, d := ma.ExpirePending(Self{ID: 1}, 1000, ep); r != 0 || d != 0 {
		t.Fatalf("disabled table expired: %d,%d", r, d)
	}
}

func TestPendingIgnoresNonRequestKinds(t *testing.T) {
	p := pendingParams()
	ma := NewMachine(&p, 0)
	ma.Expect(2, msg.KindNeighNumResponse, 0)
	ma.Expect(2, msg.KindQuery, 0)
	ma.Expect(2, msg.KindPing, 0)
	if ma.PendingRequests() != 0 {
		t.Fatal("non-request kind registered an entry")
	}
}

func TestPendingResetSemantics(t *testing.T) {
	p := pendingParams()
	ma := NewMachine(&p, 0)
	ep := &captureEndpoint{}
	ma.Expect(2, msg.KindNeighNumRequest, 0)
	if r, d := ma.ExpirePending(Self{ID: 1}, 5, ep); r != 1 || d != 0 {
		t.Fatalf("first deadline: retries=%d drops=%d, want 1,0", r, d)
	}
	if r, d := ma.ExpirePending(Self{ID: 1}, 10, ep); r != 0 || d != 1 {
		t.Fatalf("budget spent: retries=%d drops=%d, want 0,1", r, d)
	}
	ma.Expect(3, msg.KindValueRequest, 11)
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
		ma.Expect(id, msg.KindValueRequest, 0)
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
