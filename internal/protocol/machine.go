package protocol

import (
	"math"

	"dlm/internal/flatidx"
	"dlm/internal/msg"
	"dlm/internal/spare"
)

// Endpoint is the transport surface a Machine needs: a way to emit a
// protocol frame addressed by the message's To field, and one membership
// query for the Phase 1 race filter (a super only admits the values of
// peers that are still its leaf neighbors). The simulation plane
// implements it over overlay.Network; the live plane over channels.
type Endpoint interface {
	// Send emits one protocol frame. The implementation routes by m.To;
	// delivery may be synchronous (the simulation at zero latency
	// re-enters HandleMessage inline), so implementations and callers must
	// tolerate reentrancy.
	Send(m msg.Message)
	// IsLeafNeighbor reports whether id is currently a leaf neighbor of
	// this endpoint's peer.
	IsLeafNeighbor(id msg.PeerID) bool
}

// Rand is the uniform random source a Machine draws from for the rate
// limit. Both planes pass deterministic per-plane sources.
type Rand interface {
	// Float64 returns a uniform draw in [0,1).
	Float64() float64
}

// Bernoulli reports true with probability p (clamped to [0,1]). At the
// clamp boundaries it consumes no draw — a property the simulation's
// determinism baselines depend on, so every plane must gate draws the
// same way.
func Bernoulli(r Rand, p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return r.Float64() < p
}

// Self is the peer-local view the host supplies per call: the Machine
// stores only protocol state, not identity, so one host can keep its peer
// bookkeeping wherever its plane requires.
type Self struct {
	ID       msg.PeerID
	Capacity float64
	// Age is the peer's own age at the call's now, in protocol time units.
	Age float64
	// IsSuper selects the super-peer handler/decision rules.
	IsSuper bool
	// LeafDegree is the current number of leaf neighbors (l_nn for a
	// super; unused for a leaf).
	LeafDegree int
}

// Action is the role switch an evaluation requests. The host executes it
// (a demotion may still be refused, e.g. for the last super-peer) and
// owns the success accounting.
type Action uint8

const (
	// ActionNone requests no role change.
	ActionNone Action = iota
	// ActionPromote requests leaf -> super.
	ActionPromote
	// ActionDemote requests super -> leaf.
	ActionDemote
)

// String implements fmt.Stringer.
func (a Action) String() string {
	switch a {
	case ActionNone:
		return "none"
	case ActionPromote:
		return "promote"
	case ActionDemote:
		return "demote"
	}
	return "action(?)"
}

// EvalResult reports one Evaluate call. Evaluated is true when the
// comparison actually ran (cooldowns passed, enough evidence); Eligible
// when the thresholds cleared; Action when the rate limit also let the
// switch through.
type EvalResult struct {
	Evaluated bool
	Eligible  bool
	Action    Action
	// Lnn is the l_nn estimate the decision used (average reported for a
	// leaf, smoothed own degree for a super); zero when not Evaluated.
	Lnn      float64
	Decision Decision
}

// relEntry is one member of a peer's related set G: a snapshot of another
// peer's capacity and age. Capacity is constant for a session; age grows
// linearly, so we store the inferred join time and extrapolate — reported
// information stays fresh without re-exchange, and Refresh never re-asks.
type relEntry struct {
	capacity float64
	// joinTime is reportTime - reportedAge.
	joinTime Time
	// lastSeen is the last value or l_nn report's time (window pruning).
	lastSeen Time
	// seq is the entry's insertion rank (from Machine.relSeq); it survives
	// re-observation, so the minimum-seq entry is the set's oldest member
	// and eviction stays FIFO even though removal swap-deletes.
	seq uint64
}

// age returns the extrapolated age at time now.
func (e *relEntry) age(now Time) float64 { return float64(now - e.joinTime) }

// lnnReport is a super-peer's reported leaf-neighbor count.
type lnnReport struct {
	lnn  int
	when Time
}

// Machine is one peer's DLM protocol state: the related set G with FIFO
// eviction, the l_nn reports, and the cooldown/refresh/smoothing clocks. It
// is not safe for concurrent use; each plane serializes access its own
// way (the simulation is single-threaded, the live plane holds the peer
// lock).
//
// A role change resets the state (see Reset): the related set of a leaf
// (supers contacted since it became a leaf) and of a super (current leaf
// neighbors) have different semantics, so neither survives the
// transition.
//
// A machine at leaf size never touches the Go heap: the related set, the
// l_nn table and the pending table each start in a fixed array of
// spare.Inline elements inside the struct, and a set that outgrows its
// array moves once to a heap slice (spare's rule) and stays there until
// Reset. A machine bound to a host's Spares (see Init) takes those slices
// from the store and gives them back at Reset; one without allocates and
// drops them. No field points into the struct, so a by-value copy of an
// inline machine is an independent machine.
//
// Field order is the per-tick evaluation path's access order, hottest
// first: the cooldown gate (p, lastChange), prune's fast path (the
// related-set count, relMinSeen) and AvgLnn (lnnSum, lnnCount) fill the
// machine's first cache line, together with the inline related IDs; the
// spill test (relHeap) and counting's entries (relBuf) are the next three,
// so a leaf's evaluation reads adjacent lines of one struct and the
// common "nothing to do this tick" visit reads one. The struct is eight
// lines exactly (TestMachineLayout): machines stored inline in the host's
// slot-ordered arena all start on a line boundary and the tick walk
// streams them sequentially.
type Machine struct {
	p *Params

	// lastChange is the time of the last role change (or join).
	lastChange Time

	// relMinSeen is a lower bound on the minimum lastSeen in the related
	// set: insertions can only lower it, refreshes and removals only raise
	// the true minimum above it, and prune's scans recompute it exactly.
	// While now-relMinSeen is within the prune window no entry can have
	// expired, so prune skips its scan entirely — the common case for a
	// leaf that heard from any super recently.
	relMinSeen Time

	// lnnSum and lnnCount maintain Σ lnn / #reports over the l_nn table
	// senders currently in the related set, so AvgLnn is O(1); integer
	// arithmetic keeps it bit-identical to the scan it replaced. Every
	// mutation of either table updates the pair while membership is
	// still observable.
	lnnSum   int64
	lnnCount int32

	// The related set is the ID set ids and, position-paired with it, the
	// value entries (rel), in deterministic insertion/swap-delete order (a
	// pure function of the operation history). Removal swap-deletes —
	// FIFO eviction finds the oldest entry by seq instead of position, so
	// the bound stays exact while Drop is O(1). The entries live in relBuf
	// until the set outgrows it, in relHeap (length ids.Len()) afterwards.
	// A super's G is its leaf degree, which million-peer bootstrap drives
	// into the tens of thousands; ids then indexes its positions and every
	// lookup is O(1). Reset gives the storage back with the tenancy that
	// needed it.
	ids     flatidx.Set
	relHeap []relEntry
	relSeq  uint64
	relBuf  [spare.Inline]relEntry

	// refreshAt is when this leaf's next freshness refresh falls due
	// (+Inf while refresh is disabled). It shares a cache line with lnnN
	// and pendN, so the hosts' collect scan reads one line per leaf.
	refreshAt Time

	// lnnSmooth is a super-peer's EWMA of its own leaf degree; see
	// Params.LnnSmoothing.
	lnnSmooth float64

	// lnnN and pendN count the two tables below.
	lnnN  int32
	pendN int32

	// The l_nn report table: the senders and the latest report per
	// sender, position-paired (unordered; removal swap-deletes both), in
	// the Buf arrays or, once outgrown, the Heap slices. The IDs live in
	// their own dense array because the table is looked up — a scan — on
	// every report receipt.
	lnnIDBuf   [spare.Inline]msg.PeerID
	lnnRepBuf  [spare.Inline]lnnReport
	lnnIDHeap  []msg.PeerID
	lnnRepHeap []lnnReport

	// The outstanding Phase 1 request table (see pending.go): deadlines
	// and retry budgets per (counterpart, pair), in insertion order
	// (deterministic scan order, FIFO eviction).
	pendBuf  [spare.Inline]pendingRec
	pendHeap []pendingRec

	// sp is the host's store of released set storage (nil: none); it
	// survives Reset.
	sp *Spares

	// hasSmooth marks lnnSmooth as seeded.
	hasSmooth bool
	// The padding completes the eighth cache line.
	_ [7]byte
}

// Spares is a host's store of released machine storage: the related set's
// ID slices and position index (the l_nn senders share the ID slices), and
// the heap slices of the three other spilled arrays, by capacity. A host
// that keeps one passes it to Init for every machine it owns; Reset
// returns a machine's storage to it, and a spill, a regrowth or an index
// build takes from it before allocating. The zero value is an empty store.
// It is not safe for concurrent use: a host touches its machines' stores
// only from its serial membership and message path, and Evaluate — the
// only call a host may run on several machines at once — neither spills
// nor resets (prune truncates in place).
type Spares struct {
	set  flatidx.Store
	rel  spare.Slices[relEntry]
	reps spare.Slices[lnnReport]
	pend spare.Slices[pendingRec]
}

// The stores of one kind of storage; nil for a nil Spares, which keeps
// nothing.
func (sp *Spares) setStore() *flatidx.Store {
	if sp == nil {
		return nil
	}
	return &sp.set
}

func (sp *Spares) relStore() *spare.Slices[relEntry] {
	if sp == nil {
		return nil
	}
	return &sp.rel
}

func (sp *Spares) repStore() *spare.Slices[lnnReport] {
	if sp == nil {
		return nil
	}
	return &sp.reps
}

func (sp *Spares) pendStore() *spare.Slices[pendingRec] {
	if sp == nil {
		return nil
	}
	return &sp.pend
}

// rel returns the related set's entries, position-paired with ids.
func (ma *Machine) rel() []relEntry { return spare.View(ma.relBuf[:], ma.relHeap, ma.ids.Len()) }

// lnnIDs and lnnReps return the l_nn table's senders and reports.
func (ma *Machine) lnnIDs() []msg.PeerID {
	return spare.View(ma.lnnIDBuf[:], ma.lnnIDHeap, int(ma.lnnN))
}
func (ma *Machine) lnnReps() []lnnReport {
	return spare.View(ma.lnnRepBuf[:], ma.lnnRepHeap, int(ma.lnnN))
}

// NewMachine returns a Machine bound to p (shared, not copied — hosts
// keep one Params for the population) with the role-change clock starting
// at joined.
func NewMachine(p *Params, joined Time) *Machine {
	return &Machine{p: p, lastChange: joined, refreshAt: refreshAfter(p, joined)}
}

// Init rebinds ma as NewMachine initializes a fresh allocation, bound to
// the host's store sp (nil for none) — for machines embedded in a
// host-owned arena rather than heap-allocated one by one. It must only run
// on a machine with no live protocol state (a first tenant); recycled
// machines go through Reset instead, which returns their storage to sp.
func (ma *Machine) Init(p *Params, joined Time, sp *Spares) {
	*ma = Machine{p: p, lastChange: joined, refreshAt: refreshAfter(p, joined), sp: sp}
}

// addRel appends a new related-set entry.
func (ma *Machine) addRel(id msg.PeerID, e relEntry) {
	n := ma.ids.Len()
	ma.sp.relStore().Push(ma.relBuf[:], &ma.relHeap, n, e)
	ma.ids.Append(id, ma.sp.setStore())
	if n == 0 || e.lastSeen < ma.relMinSeen {
		ma.relMinSeen = e.lastSeen
	}
}

// removeRelAt swap-deletes the related-set entry at i. It does not touch
// the l_nn table; callers run delLnn first, while membership is still
// observable.
func (ma *Machine) removeRelAt(i int) {
	rel := ma.rel()
	last := len(rel) - 1
	rel[i] = rel[last]
	spare.Trunc(&ma.relHeap, last)
	ma.ids.RemoveAt(i)
}

// lnnIndex returns id's position in the l_nn report table, or -1.
func (ma *Machine) lnnIndex(id msg.PeerID) int {
	for i, v := range ma.lnnIDs() {
		if v == id {
			return i
		}
	}
	return -1
}

// putLnn stores (or replaces) the l_nn report from id and re-stamps id's
// related-set entry, if any, as seen at r.when: a report is contact.
func (ma *Machine) putLnn(id msg.PeerID, r lnnReport) {
	j := ma.ids.Index(id)
	if j >= 0 {
		ma.rel()[j].lastSeen = r.when
	}
	if i := ma.lnnIndex(id); i >= 0 {
		reps := ma.lnnReps()
		if j >= 0 {
			ma.lnnSum += int64(r.lnn) - int64(reps[i].lnn)
		}
		reps[i] = r
		return
	}
	if j >= 0 {
		ma.lnnSum += int64(r.lnn)
		ma.lnnCount++
	}
	ma.sp.setStore().IDs().Push(ma.lnnIDBuf[:], &ma.lnnIDHeap, int(ma.lnnN), id)
	ma.sp.repStore().Push(ma.lnnRepBuf[:], &ma.lnnRepHeap, int(ma.lnnN), r)
	ma.lnnN++
}

// delLnn removes id's l_nn report if present (swap-delete: the table has
// no observable iteration order). It must run while id's related-set
// membership is still intact, so the aggregate correction sees the same
// membership the addition saw.
func (ma *Machine) delLnn(id msg.PeerID) {
	i := ma.lnnIndex(id)
	if i < 0 {
		return
	}
	ids, reps := ma.lnnIDs(), ma.lnnReps()
	if ma.ids.Contains(id) {
		ma.lnnSum -= int64(reps[i].lnn)
		ma.lnnCount--
	}
	last := len(ids) - 1
	ids[i] = ids[last]
	reps[i] = reps[last]
	ma.lnnN = int32(last)
	spare.Trunc(&ma.lnnIDHeap, last)
	spare.Trunc(&ma.lnnRepHeap, last)
}

// Params returns the parameter set the machine is bound to.
func (ma *Machine) Params() *Params { return ma.p }

// Reset clears all protocol state after a role change at time now. Every
// set returns to its inline array and the heap slices and position index
// go back to the host's store: the next tenancy — a demoted super, a leaf
// recycled into an ex-super's slot — is leaf-sized far more often than
// not, and storage kept in the slot for it would be memory held for
// nothing, while in the store it serves the next set that spills.
func (ma *Machine) Reset(now Time) {
	// The related IDs spill with their entries, and lnnRepHeap with its
	// partner: a leaf-sized machine skips the stores.
	if ma.relHeap != nil || ma.lnnIDHeap != nil || ma.pendHeap != nil {
		ma.ids.Clear(ma.sp.setStore())
		ma.sp.relStore().Release(ma.relHeap)
		ma.sp.setStore().IDs().Release(ma.lnnIDHeap)
		ma.sp.repStore().Release(ma.lnnRepHeap)
		ma.sp.pendStore().Release(ma.pendHeap)
	}
	*ma = Machine{p: ma.p, lastChange: now, refreshAt: refreshAfter(ma.p, now), sp: ma.sp}
}

// LastChange returns the time of the last role change (or join).
func (ma *Machine) LastChange() Time { return ma.lastChange }

// HandleMessage runs Phase 1: it answers information requests via ep and
// folds responses into the related set / l_nn reports. Unknown or
// non-DLM kinds are ignored, so hosts can feed their whole inbox through.
func (ma *Machine) HandleMessage(self Self, m *msg.Message, now Time, ep Endpoint) {
	switch m.Kind {
	case msg.KindNeighNumRequest:
		ep.Send(msg.NeighNumResponse(self.ID, m.From, self.LeafDegree))

	case msg.KindNeighNumResponse:
		// The response settles the outstanding request even when its
		// content is then discarded as stale — the counterpart answered.
		ma.clearPending(m.From, pairNeighNum)
		if self.IsSuper {
			return // stale response after promotion
		}
		ma.putLnn(m.From, lnnReport{lnn: int(m.NeighNum), when: now})

	case msg.KindValueRequest:
		// The request carries its sender's values: admit them, then
		// answer with our own — refused values are still answered.
		ma.admit(self, m, now, ep)
		ep.Send(msg.ValueResponse(self.ID, m.From, self.Capacity, self.Age))

	case msg.KindValueResponse:
		// The response settles the request even when its values are then
		// refused — the counterpart *answered*, it just isn't believed.
		ma.clearPending(m.From, pairValue)
		ma.admit(self, m, now, ep)
	}
}

// admit folds the capacity and age a Value frame carries into G, under
// the rules both frames share.
func (ma *Machine) admit(self Self, m *msg.Message, now Time, ep Endpoint) {
	// A super's G is restricted to current leaf neighbors; drop values
	// that raced with a disconnect or a layer change.
	if self.IsSuper && !ep.IsLeafNeighbor(m.From) {
		return
	}
	// Bounded-sanity defense: an implausible claim (capacity above the
	// bound, or an age exceeding the clock) is not admitted to G.
	if ma.p.DefenseMaxCapacity > 0 &&
		(m.Capacity > ma.p.DefenseMaxCapacity || m.Age > float64(now)) {
		return
	}
	maxSize := 0
	if !self.IsSuper {
		maxSize = ma.p.MaxRelatedSet
	}
	ma.observe(m.From, m.Capacity, m.Age, now, maxSize)
}

// Decide is one maintenance round's decision step, the same on every
// plane: a super's l_nn EWMA advances whether or not the peer evaluates,
// then the staggering Bernoulli (Params.EvalProbability; no draw at 1)
// picks whether it runs Evaluate's phases, into *res. It reports whether
// an evaluation ran or an action is requested; only then is *res
// meaningful. Hosts call it for every peer every round, so the result is
// filled in place: a by-value return cost the tick walk a copy per peer.
func (ma *Machine) Decide(self Self, now Time, kl, eta float64, rng Rand, res *EvalResult) bool {
	if self.IsSuper {
		ma.smoothLnn(float64(self.LeafDegree))
	}
	if !Bernoulli(rng, ma.p.EvalProbability) {
		return false
	}
	*res = EvalResult{}
	if self.IsSuper {
		ma.evaluateSuper(res, self, now, kl, eta, rng)
	} else {
		ma.evaluateLeaf(res, self, now, kl, eta, rng)
	}
	return res.Evaluated || res.Action != ActionNone
}

// Evaluate runs Phases 2-4 for the peer: cooldown gates, evidence gates,
// the scaled comparison against G, and the deficit-proportional rate
// limit (drawing from rng only when a switch is eligible — the draw
// discipline is part of the determinism contract). kl is the protocol
// constant k_l = m·η; eta is η. The returned Action is a request: the
// host executes the role change and owns success accounting.
func (ma *Machine) Evaluate(self Self, now Time, kl, eta float64, rng Rand) EvalResult {
	// The out-param style below exists for the hot path: one EvalResult
	// (Decision included, ~100 bytes) is zeroed and filled in place instead
	// of being built and copied through every return.
	var res EvalResult
	if self.IsSuper {
		ma.evaluateSuper(&res, self, now, kl, eta, rng)
	} else {
		ma.evaluateLeaf(&res, self, now, kl, eta, rng)
	}
	return res
}

// evaluateLeaf decides promotion: the scaled comparison must clear the
// promotion threshold on both metrics, then the rate limit draws.
func (ma *Machine) evaluateLeaf(res *EvalResult, self Self, now Time, kl, eta float64, rng Rand) {
	if now-ma.lastChange < ma.p.DecisionCooldown {
		return
	}
	ma.prune(now, ma.p.LeafWindow)
	if ma.Size() < minRelatedSet {
		return
	}
	lnn, ok := ma.AvgLnn()
	if !ok {
		return
	}
	res.Evaluated = true
	res.Lnn = lnn
	ma.decideInto(&res.Decision, self.Capacity, self.Age, now, lnn, kl, true)
	if res.Decision.ShouldSwitch {
		res.Eligible = true
		// Bounded-sanity defense, promotion side: a leaf whose own claim
		// is implausible would have its promotion rejected by every honest
		// counterpart, so it never switches. The gate sits before the rate
		// limit and consumes no draw, keeping defense-off byte-identity.
		if ma.p.DefenseMaxCapacity > 0 &&
			(self.Capacity > ma.p.DefenseMaxCapacity || self.Age > float64(now)) {
			return
		}
		if Bernoulli(rng, ma.p.SwitchProbability(lnn, kl, eta, res.Decision.YCapa, true)) {
			res.Action = ActionPromote
		}
	}
}

// evaluateSuper decides demotion. A super that has held no leaves for
// EmptyGDemoteAfter demotes outright (bypassing the comparison, the
// evaluation accounting, and the rate limit): it cannot compare and is
// not serving the backbone.
func (ma *Machine) evaluateSuper(res *EvalResult, self Self, now Time, kl, eta float64, rng Rand) {
	if now-ma.lastChange < ma.p.DecisionCooldown {
		return
	}
	if ma.Size() == 0 {
		if ma.p.EmptyGDemoteAfter > 0 && now-ma.lastChange >= ma.p.EmptyGDemoteAfter && self.LeafDegree == 0 {
			res.Action = ActionDemote
		}
		return
	}
	if now-ma.lastChange < ma.p.DemotionCooldown {
		return
	}
	res.Evaluated = true
	lnn := ma.smoothLnn(float64(self.LeafDegree))
	res.Lnn = lnn
	ma.decideInto(&res.Decision, self.Capacity, self.Age, now, lnn, kl, false)
	if res.Decision.ShouldSwitch {
		res.Eligible = true
		if Bernoulli(rng, ma.p.SwitchProbability(lnn, kl, eta, res.Decision.YCapa, false)) {
			res.Action = ActionDemote
		}
	}
}

// decideInto computes one full Phase 2-4 evaluation against the machine's
// related set into a caller-owned Decision, without side effects (no
// pruning, no draws).
func (ma *Machine) decideInto(d *Decision, capacity, age float64, now Time, lnn, kl float64, promote bool) {
	d.Mu, d.XCapa, d.XAge = ma.p.MuScale(lnn, kl)
	d.YCapa, d.YAge = ma.counting(capacity, age, now, d.XCapa, d.XAge)
	ma.p.applyThresholds(d, promote)
}

// counting runs the paper's Phase 3 pseudocode: Y_capa and Y_age are the
// fractions of the related set whose scaled metrics beat the peer's own.
func (ma *Machine) counting(selfCapacity, selfAge float64, now Time, xCapa, xAge float64) (yCapa, yAge float64) {
	rel := ma.rel()
	n := float64(len(rel))
	if n == 0 {
		return 0, 0
	}
	for i := range rel {
		e := &rel[i]
		if e.capacity*xCapa > selfCapacity {
			yCapa += 1 / n
		}
		if e.age(now)*xAge > selfAge {
			yAge += 1 / n
		}
	}
	return yCapa, yAge
}

// observe records (or refreshes) a related-set entry, enforcing the
// optional FIFO capacity bound.
func (ma *Machine) observe(id msg.PeerID, capacity, age float64, now Time, maxSize int) {
	entry := relEntry{
		capacity: capacity,
		joinTime: now - Time(age),
		lastSeen: now,
	}
	if i := ma.ids.Index(id); i >= 0 {
		e := &ma.rel()[i]
		entry.seq = e.seq // re-observation keeps the insertion rank
		*e = entry
		return
	}
	if maxSize > 0 && ma.ids.Len() >= maxSize {
		ma.evictOldest()
	}
	entry.seq = ma.relSeq
	ma.relSeq++
	ma.addRel(id, entry)
	// A NeighNumResponse can land before the Value frame that admits its
	// sender into G; the report starts counting toward the average now.
	if i := ma.lnnIndex(id); i >= 0 {
		ma.lnnSum += int64(ma.lnnReps()[i].lnn)
		ma.lnnCount++
	}
}

// evictOldest removes the minimum-seq (oldest-inserted) entry. The scan
// is bounded: eviction only ever fires on capped sets (maxSize =
// MaxRelatedSet, a leaf's), never on a super's unbounded G.
func (ma *Machine) evictOldest() {
	rel := ma.rel()
	if len(rel) == 0 {
		return
	}
	oldest := 0
	for i := 1; i < len(rel); i++ {
		if rel[i].seq < rel[oldest].seq {
			oldest = i
		}
	}
	// delLnn before the removal: it corrects lnnSum by membership.
	ma.delLnn(ma.ids.IDs()[oldest])
	ma.removeRelAt(oldest)
}

// Drop removes a related-set entry and its l_nn report (a super
// forgetting a departed leaf, a leaf forgetting a vanished super), along
// with any requests still outstanding toward the peer.
func (ma *Machine) Drop(id msg.PeerID) {
	ma.dropPending(id)
	ma.delLnn(id)
	i := ma.ids.Index(id)
	if i < 0 {
		return
	}
	ma.removeRelAt(i)
}

// prune removes entries not seen within window (0 disables). The
// relMinSeen lower bound proves the common case — nothing expired —
// without touching the entries at all; when the bound is stale a
// read-only scan retightens it, and the compacting rewrite starts only
// at the first expired entry.
func (ma *Machine) prune(now Time, window Duration) {
	if window <= 0 || ma.ids.Len() == 0 {
		return
	}
	if now-ma.relMinSeen <= window {
		// relMinSeen never exceeds the true minimum lastSeen, so no entry
		// can satisfy the strict now-lastSeen > window expiry test.
		return
	}
	rel, ids := ma.rel(), ma.ids.IDs()
	i := 0
	minSeen := rel[0].lastSeen
	for ; i < len(rel); i++ {
		seen := rel[i].lastSeen
		if now-seen > window {
			break
		}
		if seen < minSeen {
			minSeen = seen
		}
	}
	if i == len(rel) {
		ma.relMinSeen = minSeen // the scan computed the exact minimum
		return
	}
	keep := i
	minSeen = now // upper bound: every kept entry's lastSeen is ≤ now
	for j := 0; j < keep; j++ {
		if seen := rel[j].lastSeen; seen < minSeen {
			minSeen = seen
		}
	}
	for ; i < len(ids); i++ {
		id := ids[i]
		seen := rel[i].lastSeen
		if now-seen > window {
			ma.delLnn(id)
			continue
		}
		if seen < minSeen {
			minSeen = seen
		}
		ids[keep] = id
		rel[keep] = rel[i]
		keep++
	}
	// The compaction shifted every position past the first expiry; the
	// set's index rebuild costs the same as the scan that just ran.
	spare.Trunc(&ma.relHeap, keep)
	ma.ids.Truncate(keep)
	ma.relMinSeen = minSeen
}

// Size returns |G|.
func (ma *Machine) Size() int { return ma.ids.Len() }

// Has reports whether id is in the related set.
func (ma *Machine) Has(id msg.PeerID) bool { return ma.ids.Contains(id) }

// Related returns the entry for id as (capacity, extrapolated age at
// now); ok is false when id is not in G.
func (ma *Machine) Related(id msg.PeerID, now Time) (capacity, age float64, ok bool) {
	i := ma.ids.Index(id)
	if i < 0 {
		return 0, 0, false
	}
	e := &ma.rel()[i]
	return e.capacity, e.age(now), true
}

// LnnReport returns the latest l_nn report from id; ok is false when
// none is held.
func (ma *Machine) LnnReport(id msg.PeerID) (lnn int, when Time, ok bool) {
	i := ma.lnnIndex(id)
	if i < 0 {
		return 0, 0, false
	}
	r := ma.lnnReps()[i]
	return r.lnn, r.when, true
}

// AvgLnn averages the l_nn reports whose senders are in the related set;
// ok is false when there are none. O(1): the sum and count are maintained
// incrementally at every mutation of either table, and the integer sum is
// exact, so the result is identical to a scan.
func (ma *Machine) AvgLnn() (float64, bool) {
	if ma.lnnCount == 0 {
		return 0, false
	}
	return float64(ma.lnnSum) / float64(ma.lnnCount), true
}

// smoothLnn folds the current leaf degree into the EWMA and returns the
// smoothed value (Params.LnnSmoothing 0 disables: returns cur with no
// state change). Decide calls it once per round for every super so the
// smoothing cadence is uniform; Evaluate advances it a second time for
// the peers that actually evaluate, matching the historical cadence the
// determinism baselines pin.
func (ma *Machine) smoothLnn(cur float64) float64 {
	alpha := ma.p.LnnSmoothing
	if alpha <= 0 {
		return cur
	}
	if !ma.hasSmooth {
		ma.lnnSmooth, ma.hasSmooth = cur, true
		return cur
	}
	ma.lnnSmooth += alpha * (cur - ma.lnnSmooth)
	return ma.lnnSmooth
}

// RefreshDue reports whether the leaf's freshness refresh is due and, if
// so, stamps the next due time RefreshInterval later — the caller must
// then call Refresh toward each current super. The clock starts at the
// role change (Init, Reset): the connection exchange has just fetched
// l_nn, so the first refresh comes one interval later. Only the firing
// call reads the params; the common "not yet" answer compares against
// the stored due time alone.
func (ma *Machine) RefreshDue(now Time) bool {
	if now < ma.refreshAt {
		return false
	}
	ma.refreshAt = refreshAfter(ma.p, now)
	return true
}

// refreshAfter returns the refresh due time one RefreshInterval after t,
// or +Inf when refresh is disabled (RefreshInterval 0), so a disabled
// clock never fires.
func refreshAfter(p *Params, t Time) Time {
	if p.RefreshInterval <= 0 {
		return Time(math.Inf(1))
	}
	return t + p.RefreshInterval
}

// CheckInvariants verifies the internal consistency of the related-set
// bookkeeping; it is the oracle of the protocol fuzz tests. It returns a
// description of the first violation found, or "".
func (ma *Machine) CheckInvariants() string {
	if bad := ma.ids.Check(); bad != "" {
		return "related set: " + bad
	}
	if !spare.Stored(ma.relBuf[:], ma.relHeap, ma.ids.Len()) {
		return "related set: count, entry array and heap slice disagree"
	}
	n := int(ma.lnnN)
	if !spare.Stored(ma.lnnIDBuf[:], ma.lnnIDHeap, n) || !spare.Stored(ma.lnnRepBuf[:], ma.lnnRepHeap, n) ||
		(ma.lnnIDHeap == nil) != (ma.lnnRepHeap == nil) {
		return "lnn table: count, arrays and heap slices disagree"
	}
	ids, reps := ma.lnnIDs(), ma.lnnReps()
	seen := make(map[msg.PeerID]bool, len(ids))
	for _, id := range ids {
		if seen[id] {
			return "duplicate id in lnn table"
		}
		seen[id] = true
	}
	for _, e := range ma.rel() {
		if e.lastSeen < ma.relMinSeen {
			return "relMinSeen above an entry's lastSeen"
		}
	}
	var sum int64
	var count int32
	for i, id := range ids {
		if ma.ids.Contains(id) {
			sum += int64(reps[i].lnn)
			count++
		}
	}
	if sum != ma.lnnSum || count != ma.lnnCount {
		return "lnnSum/lnnCount disagree with a scan"
	}
	return ma.checkPendingInvariants()
}
