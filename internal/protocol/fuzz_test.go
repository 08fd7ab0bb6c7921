package protocol

import (
	"testing"

	"dlm/internal/msg"
)

// FuzzMachineHandleMessage drives the Phase 1 handler with arbitrary
// decoded message streams, in both roles, and asserts the machine never
// panics and never corrupts its related-set invariants. It lives here
// rather than in internal/msg because msg cannot import protocol (the
// dependency points the other way).
func FuzzMachineHandleMessage(f *testing.F) {
	seedMsgs := []msg.Message{
		msg.NeighNumRequest(2, 1),
		msg.NeighNumResponse(2, 1, 80),
		msg.ValueRequest(2, 1),
		msg.ValueResponse(2, 1, 123.5, 42.25),
		msg.ValueResponse(3, 1, -1, 1e300),
		msg.NewQuery(5, 1, 99, 777, 7),
		{Kind: msg.KindPing, From: 7, To: 1},
	}
	var stream []byte
	for i := range seedMsgs {
		seed := msg.Encode(nil, &seedMsgs[i])
		f.Add(seed, false, uint16(10))
		f.Add(seed, true, uint16(500))
		stream = msg.Encode(stream, &seedMsgs[i])
	}
	f.Add(stream, false, uint16(100))
	f.Add(stream, true, uint16(100))
	f.Add([]byte{}, false, uint16(0))

	f.Fuzz(func(t *testing.T, data []byte, isSuper bool, nowRaw uint16) {
		p := DefaultParams()
		p.MaxRelatedSet = 4 // small cap so the fuzzer reaches eviction fast
		p.RequestTimeout = 3
		p.MaxRetries = 1
		ma := NewMachine(&p, 0)
		ep := &captureEndpoint{leafNeighbors: map[msg.PeerID]bool{2: true, 3: true}}
		self := Self{ID: 1, Capacity: 10, Age: 5, IsSuper: isSuper, LeafDegree: 3}
		now := Time(nowRaw)

		// Feed the whole stream of decodable frames through the handler,
		// advancing the clock so pruning and extrapolation paths run.
		// Interleave the pending-request lifecycle: register an expectation
		// toward the sender of each request frame and let the expiry scan
		// run every few frames so timeouts, retries, and abandonment all
		// mix with the deliveries.
		step := 0
		for len(data) > 0 {
			m, n, err := msg.Decode(data)
			if err != nil {
				break
			}
			data = data[n:]
			switch m.Kind {
			case msg.KindNeighNumRequest:
				ma.expect(m.From, pairNeighNum, now)
			case msg.KindValueRequest:
				ma.expect(m.From, pairValue, now)
			}
			ma.HandleMessage(self, &m, now, ep)
			if step%3 == 2 {
				ma.ExpirePending(self.ID, now, ep)
			}
			step++
			now++
		}
		ma.ExpirePending(self.ID, now+Time(p.RequestTimeout), ep)

		if bad := ma.CheckInvariants(); bad != "" {
			t.Fatalf("invariants violated: %s", bad)
		}
		if !isSuper && p.MaxRelatedSet > 0 && ma.Size() > p.MaxRelatedSet {
			t.Fatalf("related set %d exceeds cap %d", ma.Size(), p.MaxRelatedSet)
		}
		if ma.PendingRequests() > 2*p.MaxRelatedSet {
			t.Fatalf("pending table %d exceeds bound %d",
				ma.PendingRequests(), 2*p.MaxRelatedSet)
		}
		// The decision path must also tolerate whatever state the stream
		// built up.
		rng := &fixedRand{v: 0.5}
		_ = ma.Evaluate(self, now+Time(p.DemotionCooldown), 20, 10, rng)
		_, _ = ma.AvgLnn()
		if bad := ma.CheckInvariants(); bad != "" {
			t.Fatalf("invariants violated after evaluate: %s", bad)
		}
	})
}

// FuzzPendingFaults drives the pending-request table alone with an
// arbitrary op script — expectations, (possibly duplicated) responses,
// clock jumps, expiry scans, peer drops, and role resets — and asserts
// the table bookkeeping never desynchronizes and every expiry accounts
// for its rows: the abandoned ones leave the table, the retried ones
// stay. Each script byte is one op: the low 3 bits pick the op, the rest
// parameterize it.
func FuzzPendingFaults(f *testing.F) {
	f.Add([]byte{0x00, 0x01, 0x0a, 0x03, 0x1c, 0x05, 0x0e, 0x07})
	f.Add([]byte{0x00, 0x08, 0x10, 0x18, 0x03, 0x03, 0x03})
	f.Add([]byte{0x06, 0x00, 0x04, 0x02, 0x05})
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, script []byte) {
		p := DefaultParams()
		p.MaxRelatedSet = 3 // pending cap 6
		p.RequestTimeout = 4
		p.MaxRetries = 2
		ma := NewMachine(&p, 0)
		ep := &captureEndpoint{leafNeighbors: map[msg.PeerID]bool{1: true, 2: true, 3: true}}
		self := Self{ID: 1, Capacity: 10, Age: 5}
		now := Time(0)

		for _, op := range script {
			peer := msg.PeerID(op>>3&0x07) + 1
			switch op & 0x07 {
			case 0: // expect a NeighNum answer
				ma.expect(peer, pairNeighNum, now)
			case 1: // expect a Value answer
				ma.expect(peer, pairValue, now)
			case 2: // deliver a NeighNum response
				nn := msg.NeighNumResponse(peer, 1, int(op))
				ma.HandleMessage(self, &nn, now, ep)
			case 3: // deliver a Value response, duplicated
				vr := msg.ValueResponse(peer, 1, float64(op), 1)
				ma.HandleMessage(self, &vr, now, ep)
				ma.HandleMessage(self, &vr, now, ep)
			case 4: // clock jump
				now += Time(op >> 3)
			case 5: // expiry scan
				before := ma.PendingRequests()
				r, d := ma.ExpirePending(self.ID, now, ep)
				if r < 0 || d < 0 || r+d > before || ma.PendingRequests() != before-d {
					t.Fatalf("op %#02x: expiry over %d rows returned %d retries, %d drops, left %d rows",
						op, before, r, d, ma.PendingRequests())
				}
			case 6: // the peer leaves
				ma.Drop(peer)
			case 7: // role change
				ma.Reset(now)
			}
			if bad := ma.CheckInvariants(); bad != "" {
				t.Fatalf("op %#02x: %s", op, bad)
			}
		}
		if ma.PendingRequests() > 2*p.MaxRelatedSet {
			t.Fatalf("pending table %d over bound %d",
				ma.PendingRequests(), 2*p.MaxRelatedSet)
		}
	})
}
