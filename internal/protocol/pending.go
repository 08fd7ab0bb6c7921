package protocol

import (
	"dlm/internal/msg"
	"dlm/internal/spare"
)

// The pending-request table gives Phase 1 a bounded at-least-once
// discipline over lossy transports. The request side is the protocol's
// own: Exchange and Refresh register every deadline before the first
// frame departs, answers (responses and pushed Value frames) settle the
// entry inside HandleMessage, and the
// host folds ExpirePending into its existing per-tick scheduling to retry
// or abandon whatever is still outstanding. Deadlines are computed purely
// from the host-supplied protocol clock, so the package stays free of time
// imports (see TestProtocolImportPurity); no draws happen anywhere on this
// path, so the table is invisible to the determinism baselines when the
// transport is lossless.

// pendingPair identifies one of DLM's Phase 1 request/response pairs.
type pendingPair uint8

const (
	pairNeighNum pendingPair = iota
	pairValue
)

// pendingRec is one pending-table row: one outstanding request — at most
// one per (peer, pair), so a refresh re-request supersedes the outstanding
// one instead of stacking behind it — and its retry state. The fields are
// ordered so that a row is 16 bytes, spare.Inline of them inline in every
// Machine; retries counts up to Params.MaxRetries, which Validate keeps
// within the counter's range.
type pendingRec struct {
	deadline Time
	peer     msg.PeerID
	retries  uint16
	pair     pendingPair
}

// pend returns the pending table's rows in insertion order.
func (ma *Machine) pend() []pendingRec {
	return spare.View(ma.pendBuf[:], ma.pendHeap, int(ma.pendN))
}

// truncPend cuts the pending table to its first n rows.
func (ma *Machine) truncPend(n int) {
	ma.pendN = int32(n)
	spare.Trunc(&ma.pendHeap, n)
}

// pendingCap bounds the table: a leaf talks to at most MaxRelatedSet
// supers at a time and each conversation spans the two pairs, so
// 2·MaxRelatedSet outstanding requests cover every legitimate pattern.
// Zero (MaxRelatedSet unbounded) leaves the table unbounded too.
func (ma *Machine) pendingCap() int {
	if ma.p.MaxRelatedSet <= 0 {
		return 0
	}
	return 2 * ma.p.MaxRelatedSet
}

// request returns pair pr's request frame from peer from to peer to. Both
// requests are bare asks: the answer carries the counterpart's values.
func request(pr pendingPair, from, to msg.PeerID) msg.Message {
	if pr == pairNeighNum {
		return msg.NeighNumRequest(from, to)
	}
	return msg.ValueRequest(from, to)
}

// valueFrame returns self's Value frame to peer to: its capacity, age and
// leaf degree, the l_nn a leaf stores when self is a super.
func valueFrame(self Self, to msg.PeerID) msg.Message {
	m := msg.ValueResponse(self.ID, to, self.Capacity, self.Age)
	m.NeighNum = uint32(self.LeafDegree)
	return m
}

// Exchange runs the event-driven Phase 1 exchange for one new leaf-super
// connection between leaf l and super s: each side sends its Value frame
// unasked, so one frame each way tells each side the other's capacity and
// age (without the super's a leaf cannot run Phase 3), and the super's
// frame also carries l_nn. Each side registers a Value row for the other
// before anything departs: delivery may be synchronous, and a row
// registered after its inline answer had been handled would never clear
// and would retry spuriously; a row still open at its deadline re-asks
// with a bare ValueRequest. The frames depart through their senders'
// endpoints in an order that is part of the determinism contract: the
// super's first, as its values and its report arrive together. Both
// depart in the same instant, so under latency they land in one batch.
func Exchange(leaf *Machine, lep Endpoint, super *Machine, sep Endpoint, l, s Self, now Time) {
	super.expect(l.ID, pairValue, now)
	leaf.expect(s.ID, pairValue, now)
	sep.Send(valueFrame(s, l.ID))
	lep.Send(valueFrame(l, s.ID))
}

// Refresh re-sends a leaf's freshness request to one of its current
// supers once RefreshDue fired, its deadline first as in Exchange: toward
// a super in G(l) the NeighNum pair (its response re-stamps the super's
// entry; an entry's capacity and join time never change), toward one
// outside G(l) a bare ValueRequest, whose answer brings the values and
// l_nn together.
func (ma *Machine) Refresh(self, super msg.PeerID, now Time, ep Endpoint) {
	pr := pairValue
	if ma.ids.Contains(super) {
		pr = pairNeighNum
	}
	ma.expect(super, pr, now)
	ep.Send(request(pr, self, super))
}

// expect registers the deadline of pair pr's answer from peer: the
// response to a request about to depart, or on a new link the peer's
// pushed Value frame. A second expect for the same (peer, pair) resets
// the deadline and the retry budget — the newer request supersedes the
// older one. RequestTimeout 0 disables the table.
func (ma *Machine) expect(peer msg.PeerID, pr pendingPair, now Time) {
	if ma.p.RequestTimeout <= 0 {
		return
	}
	rec := pendingRec{deadline: now + ma.p.RequestTimeout, peer: peer, pair: pr}
	if i := ma.pendIndex(peer, pr); i >= 0 {
		ma.pend()[i] = rec
		return
	}
	if cap := ma.pendingCap(); cap > 0 && int(ma.pendN) >= cap {
		pend := ma.pend()
		copy(pend, pend[1:])
		ma.truncPend(len(pend) - 1)
	}
	ma.sp.pendStore().Push(ma.pendBuf[:], &ma.pendHeap, int(ma.pendN), rec)
	ma.pendN++
}

// pendIndex returns the position of the request to peer for pair pr in
// the pending table, or -1.
func (ma *Machine) pendIndex(peer msg.PeerID, pr pendingPair) int {
	pend := ma.pend()
	for i := range pend {
		if pend[i].peer == peer && pend[i].pair == pr {
			return i
		}
	}
	return -1
}

// clearPending settles the outstanding request matching a received
// response. Duplicated responses find no entry and change nothing.
func (ma *Machine) clearPending(peer msg.PeerID, pr pendingPair) {
	i := ma.pendIndex(peer, pr)
	if i < 0 {
		return
	}
	pend := ma.pend()
	copy(pend[i:], pend[i+1:])
	ma.truncPend(len(pend) - 1)
}

// ExpirePending retries or abandons the requests of peer self whose
// deadline has passed: an entry with retry budget left is re-sent with a
// fresh deadline; one whose budget is spent is dropped from the table.
// It returns the number of retries sent and requests abandoned by this
// call; hosts that want cumulative tallies sum them. The scan is
// two-phase — the table is fully updated before any frame departs —
// because a re-sent request can be answered synchronously, re-entering
// HandleMessage and mutating the table mid-call.
func (ma *Machine) ExpirePending(self msg.PeerID, now Time, ep Endpoint) (retries, drops int) {
	if ma.p.RequestTimeout <= 0 || ma.pendN == 0 {
		return 0, 0
	}
	// The rows to re-send, copied out of the table; a leaf's whole table
	// fits the stack array.
	var buf [2 * spare.Inline]pendingRec
	resend := buf[:0]
	pend := ma.pend()
	keep := 0
	for _, r := range pend {
		if now >= r.deadline {
			if int(r.retries) >= ma.p.MaxRetries {
				drops++
				continue
			}
			r.retries++
			r.deadline = now + ma.p.RequestTimeout
			resend = append(resend, r)
		}
		pend[keep] = r
		keep++
	}
	ma.truncPend(keep)
	retries = len(resend)
	for _, r := range resend {
		ep.Send(request(r.pair, self, r.peer))
	}
	return retries, drops
}

// PendingRequests returns the number of outstanding Phase 1 requests;
// hosts use it as the fast path to skip ExpirePending entirely.
func (ma *Machine) PendingRequests() int { return int(ma.pendN) }

// dropPending removes both outstanding entries toward id (the peer is
// gone; retrying at it is pointless).
func (ma *Machine) dropPending(id msg.PeerID) {
	ma.clearPending(id, pairNeighNum)
	ma.clearPending(id, pairValue)
}

// checkPendingInvariants verifies the pending-table bookkeeping; it
// extends CheckInvariants and returns "" when consistent.
func (ma *Machine) checkPendingInvariants() string {
	if !spare.Stored(ma.pendBuf[:], ma.pendHeap, int(ma.pendN)) {
		return "pending table: count, array and heap slice disagree"
	}
	pend := ma.pend()
	type key struct {
		peer msg.PeerID
		pair pendingPair
	}
	seen := make(map[key]bool, len(pend))
	for _, r := range pend {
		k := key{r.peer, r.pair}
		if seen[k] {
			return "duplicate key in pending table"
		}
		seen[k] = true
		if int(r.retries) > ma.p.MaxRetries {
			return "pending entry over retry budget"
		}
	}
	if cap := ma.pendingCap(); cap > 0 && len(pend) > cap {
		return "pending table over capacity"
	}
	return ""
}
