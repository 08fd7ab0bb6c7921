package protocol

import (
	"dlm/internal/msg"
	"dlm/internal/spare"
)

// The pending-request table gives Phase 1 a bounded at-least-once
// discipline over lossy transports. The request side is the protocol's
// own: Exchange and Refresh register every deadline before the first
// frame departs, responses settle the entry inside HandleMessage, and the
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

// request returns pair pr's request frame from self to peer to. A
// ValueRequest carries self's capacity and age, so a retry carries the
// sender's values at the retry's time.
func request(pr pendingPair, self Self, to msg.PeerID) msg.Message {
	if pr == pairNeighNum {
		return msg.NeighNumRequest(self.ID, to)
	}
	m := msg.ValueRequest(self.ID, to)
	m.Capacity, m.Age = self.Capacity, self.Age
	return m
}

// Exchange runs the event-driven Phase 1 exchange for one new leaf-super
// connection between leaf l and super s: the Value pair (Table 1's
// super-to-leaf request, which carries the super's own capacity and age,
// so its one round trip tells each side the other's values — without the
// super's a leaf cannot run Phase 3), then the NeighNum pair (the leaf
// asks for l_nn). Each frame departs through its sender's endpoint, in an
// order that is part of the determinism contract: the Value request goes
// first, so on a link that delivers in send order the l_nn report finds
// its sender admitted to G(l) (a report from a peer outside G is
// dropped). Both deadlines are registered before the first frame departs:
// delivery may be synchronous, and an entry registered after its inline
// response had been handled would never clear and would retry spuriously.
func Exchange(leaf *Machine, lep Endpoint, super *Machine, sep Endpoint, l msg.PeerID, s Self, now Time) {
	super.expect(l, pairValue, now)
	leaf.expect(s.ID, pairNeighNum, now)
	sep.Send(request(pairValue, s, l))
	lep.Send(msg.NeighNumRequest(l, s.ID))
}

// Refresh re-sends a leaf's freshness requests to one of its current
// supers once RefreshDue fired, deadlines first as in Exchange: values
// only for a super outside G(l), as an entry's capacity and join time never
// change, then l_nn always (its response re-stamps the super's G(l)
// entry). The Value row is registered and sent first, as in Exchange, so
// the report finds the super admitted and ExpirePending re-sends in the
// same order. self is the leaf's view, whose capacity and age the
// ValueRequest carries.
func (ma *Machine) Refresh(self Self, super msg.PeerID, now Time, ep Endpoint) {
	known := ma.ids.Contains(super)
	if !known {
		ma.expect(super, pairValue, now)
	}
	ma.expect(super, pairNeighNum, now)
	if !known {
		ep.Send(request(pairValue, self, super))
	}
	ep.Send(request(pairNeighNum, self, super))
}

// expect registers the response deadline for the request of pair pr about
// to depart toward peer. A second expect for the same (peer, pair) resets
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

// ExpirePending retries or abandons requests whose deadline has passed:
// an entry with retry budget left is re-sent with a fresh deadline; one
// whose budget is spent is dropped from the table. It returns the number
// of retries sent and requests abandoned by this call; hosts that want
// cumulative tallies sum them. The scan is two-phase — the
// table is fully updated before any frame departs — because a re-sent
// request can be answered synchronously, re-entering HandleMessage and
// mutating the table mid-call.
func (ma *Machine) ExpirePending(self Self, now Time, ep Endpoint) (retries, drops int) {
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
