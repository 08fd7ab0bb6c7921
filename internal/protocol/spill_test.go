package protocol

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
	"unsafe"

	"dlm/internal/flatidx"
	"dlm/internal/msg"
	"dlm/internal/spare"
)

// refMachine is the reference model of a Machine's two sets: plain maps
// and appended slices, every aggregate recomputed by a scan, no inline
// arrays, no index, no lower bounds. It shares nothing with machine.go but
// the element types.
type refMachine struct {
	p       *Params
	order   []msg.PeerID // related set, insertion/swap-delete order
	entries map[msg.PeerID]relEntry
	nextSeq uint32
	pend    []pendingRec
}

func newRefMachine(p *Params) *refMachine {
	return &refMachine{p: p, entries: map[msg.PeerID]relEntry{}}
}

func (r *refMachine) reset() {
	*r = refMachine{p: r.p, entries: map[msg.PeerID]relEntry{}}
}

// removeRel swap-deletes id from the related set; its l_nn report goes
// with its entry.
func (r *refMachine) removeRel(id msg.PeerID) {
	i := slices.Index(r.order, id)
	last := len(r.order) - 1
	r.order[i] = r.order[last]
	r.order = r.order[:last]
	delete(r.entries, id)
}

// observe returns the evicted ID, or NoPeer. A re-observed entry keeps
// its insertion rank and its l_nn report; a new one has no report.
func (r *refMachine) observe(id msg.PeerID, capacity, age float64, now Time, maxSize int) msg.PeerID {
	e := relEntry{capacity: capacity, joinTime: now - Time(age), lastSeen: now, lnn: -1}
	if old, ok := r.entries[id]; ok {
		e.seq, e.lnn = old.seq, old.lnn
		r.entries[id] = e
		return msg.NoPeer
	}
	victim := msg.NoPeer
	if maxSize > 0 && len(r.order) >= maxSize {
		victim = r.order[0]
		for _, o := range r.order {
			if r.entries[o].seq < r.entries[victim].seq {
				victim = o
			}
		}
		r.removeRel(victim)
	}
	e.seq = r.nextSeq
	r.nextSeq++
	r.order = append(r.order, id)
	r.entries[id] = e
	return victim
}

// value handles a Value frame from id at a leaf: it settles the pending
// row, then observes id under the leaf's FIFO bound and stores the l_nn
// the frame carries, in a new entry or a re-observed one. It returns the
// evicted ID, or NoPeer.
func (r *refMachine) value(id msg.PeerID, capacity, age float64, lnn int, now Time) msg.PeerID {
	r.clear(id, pairValue)
	victim := r.observe(id, capacity, age, now, r.p.MaxRelatedSet)
	e := r.entries[id]
	e.lnn = int32(lnn)
	r.entries[id] = e
	return victim
}

// report handles a NeighNumResponse from id: it settles the pending row,
// then stores the report in id's entry and re-stamps the entry as seen at
// now, or drops the report when id is not a member. It reports whether
// the report was kept.
func (r *refMachine) report(id msg.PeerID, lnn int, now Time) bool {
	r.clear(id, pairNeighNum)
	e, ok := r.entries[id]
	if ok {
		e.lnn, e.lastSeen = int32(lnn), now
		r.entries[id] = e
	}
	return ok
}

func (r *refMachine) drop(id msg.PeerID) {
	r.clear(id, pairNeighNum)
	r.clear(id, pairValue)
	if _, ok := r.entries[id]; ok {
		r.removeRel(id)
	}
}

func (r *refMachine) prune(now Time, window Duration) {
	if window <= 0 {
		return
	}
	kept := r.order[:0]
	for _, id := range r.order {
		if now-r.entries[id].lastSeen > window {
			delete(r.entries, id)
			continue
		}
		kept = append(kept, id)
	}
	r.order = kept
}

func (r *refMachine) avgLnn() (float64, bool) {
	var sum int64
	var n int
	for _, e := range r.entries {
		if e.lnn >= 0 {
			sum += int64(e.lnn)
			n++
		}
	}
	if n == 0 {
		return 0, false
	}
	return float64(sum) / float64(n), true
}

func (r *refMachine) pendIndex(peer msg.PeerID, pr pendingPair) int {
	return slices.IndexFunc(r.pend, func(x pendingRec) bool { return x.peer == peer && x.pair == pr })
}

func (r *refMachine) expect(peer msg.PeerID, pr pendingPair, now Time) {
	rec := pendingRec{deadline: now + r.p.RequestTimeout, peer: peer, pair: pr}
	if i := r.pendIndex(peer, pr); i >= 0 {
		r.pend[i] = rec
		return
	}
	if limit := 2 * r.p.MaxRelatedSet; limit > 0 && len(r.pend) >= limit {
		r.pend = slices.Delete(r.pend, 0, 1)
	}
	r.pend = append(r.pend, rec)
}

func (r *refMachine) clear(peer msg.PeerID, pr pendingPair) {
	if i := r.pendIndex(peer, pr); i >= 0 {
		r.pend = slices.Delete(r.pend, i, i+1)
	}
}

// expire returns the frames re-sent, in order, and the number of rows
// abandoned.
func (r *refMachine) expire(self msg.PeerID, now Time) (sent []msg.Message, drops int) {
	var kept []pendingRec
	for _, x := range r.pend {
		if now >= x.deadline {
			if int(x.retries) >= r.p.MaxRetries {
				drops++
				continue
			}
			x.retries++
			x.deadline = now + r.p.RequestTimeout
			if x.pair == pairNeighNum {
				sent = append(sent, msg.NeighNumRequest(self, x.peer))
			} else {
				sent = append(sent, msg.ValueRequest(self, x.peer))
			}
		}
		kept = append(kept, x)
	}
	r.pend = kept
	return sent, drops
}

// sendLog records the frames a machine sends.
type sendLog struct{ sent []msg.Message }

func (s *sendLog) Send(m msg.Message)             { s.sent = append(s.sent, m) }
func (s *sendLog) IsLeafNeighbor(msg.PeerID) bool { return true }

// TestInlineSpillDifferential drives three Machines that share one Spares
// store, as a host's arena does, and a reference model for each through one
// random operation sequence that takes each of the two sets back and forth
// across its inline capacity and the related set across the index
// threshold. l_nn reports arrive through the handler, in Value frames and
// in NeighNumResponse frames, from members and non-members alike. Every step must agree with
// the reference: iteration order and entries (their l_nn reports
// included), Size, the AvgLnn bits, every l_nn report, the eviction victim
// (through the order), the pending rows in order, the frames an expiry
// re-sends and the rows it abandons, and the machine's own invariants. No
// backing array may be held by two live sets at once (the index's own
// aliasing check is flatidx's TestSetDifferential).
func TestInlineSpillDifferential(t *testing.T) {
	p := DefaultParams()
	p.MaxRelatedSet = 6 // pending cap 12, related cap 6 when the op asks for it
	p.RequestTimeout = 3
	p.MaxRetries = 1
	var sp Spares
	machines := make([]Machine, 3)
	refs := make([]*refMachine, len(machines))
	for i := range machines {
		machines[i].Init(&p, 0, &sp)
		refs[i] = newRefMachine(&p)
	}
	rng := rand.New(rand.NewSource(24))
	self := Self{ID: 1000}

	// Coverage: how often each set left its array, how often a machine
	// holding heap slices was Reset to inline, how often a related set grew
	// past the index threshold and was Reset with its index, how often a
	// heap-held set shrank back to inline size (and kept working there), how
	// often a set took storage some set had held before, how often a report
	// from outside G was dropped, how often a member holding a report was
	// re-observed, and how often a Value frame replaced a member's report.
	var relSpills, pendSpills, returns, idxBuilt, idxDropped, shrunk, reused, dropped, reobserved, replaced int
	seen := map[unsafe.Pointer]bool{}
	indexed := make([]bool, len(machines))

	now := Time(0)
	universe := msg.PeerID(8)
	for step := 0; step < 300000; step++ {
		if step%1500 == 0 {
			// Alternate regimes: a handful of IDs keeps the sets around
			// their inline capacities, a few dozen carry the related sets
			// past the index threshold.
			universe = []msg.PeerID{5, 8, 12, 3 * flatidx.IndexThreshold}[rng.Intn(4)]
		}
		now += Time(rng.Intn(3)) * 0.05
		k := rng.Intn(len(machines))
		ma, ref := &machines[k], refs[k]
		id := msg.PeerID(1 + rng.Intn(int(universe)))
		wasRel, wasPend := ma.relHeap != nil, ma.pendHeap != nil
		wasN := ma.Size()
		held := storage(ma)

		switch op := rng.Intn(100); {
		case rng.Intn(250) == 0:
			if wasRel || wasPend {
				returns++
			}
			if indexed[k] {
				idxDropped++
				indexed[k] = false
			}
			ref.reset()
			ma.Reset(now)
			if ma.relHeap != nil || ma.pendHeap != nil {
				t.Fatalf("step %d: Reset kept a heap slice or the index", step)
			}
		case op < 4:
			capacity, age, lnn := float64(rng.Intn(1000)), float64(rng.Intn(50)), rng.Intn(200)
			if _, _, ok := ma.LnnReport(id); ok {
				replaced++
			}
			want := ref.value(id, capacity, age, lnn, now)
			before := slices.Clone(ma.ids.IDs())
			m := msg.ValueResponse(id, self.ID, capacity, age)
			m.NeighNum = uint32(lnn)
			ma.HandleMessage(self, &m, now, nil)
			if want != msg.NoPeer && (ma.Has(want) || !slices.Contains(before, want)) {
				t.Fatalf("step %d: eviction victim should be %d; before %v after %v", step, want, before, ma.ids.IDs())
			}
		case op < 36:
			maxSize := []int{0, 0, p.MaxRelatedSet, 2 * flatidx.IndexThreshold}[rng.Intn(4)]
			capacity, age := float64(rng.Intn(1000)), float64(rng.Intn(50))
			if _, _, ok := ma.LnnReport(id); ok {
				reobserved++
			}
			want := ref.observe(id, capacity, age, now, maxSize)
			before := slices.Clone(ma.ids.IDs())
			ma.observe(id, capacity, age, now, maxSize)
			if want != msg.NoPeer && (ma.Has(want) || !slices.Contains(before, want)) {
				t.Fatalf("step %d: eviction victim should be %d; before %v after %v", step, want, before, ma.ids.IDs())
			}
		case op < 50:
			ref.drop(id)
			ma.Drop(id)
		case op < 72:
			lnn := rng.Intn(200)
			if !ref.report(id, lnn, now) {
				dropped++
			}
			m := msg.NeighNumResponse(id, self.ID, lnn)
			ma.HandleMessage(self, &m, now, nil)
		case op < 75:
			window := []Duration{0.5, 2, 8, 30}[rng.Intn(4)]
			ref.prune(now, window)
			ma.prune(now, window)
		case op < 90:
			pr := pairNeighNum
			if rng.Intn(2) == 0 {
				pr = pairValue
			}
			ref.expect(id, pr, now)
			ma.expect(id, pr, now)
		case op < 94:
			pr := pendingPair(rng.Intn(2))
			ref.clear(id, pr)
			ma.clearPending(id, pr)
		default:
			var log sendLog
			want, wantDrops := ref.expire(self.ID, now)
			retries, drops := ma.ExpirePending(self.ID, now, &log)
			if !slices.Equal(log.sent, want) || retries != len(want) || drops != wantDrops {
				t.Fatalf("step %d: expiry re-sent %v (%d) and abandoned %d, reference %v and %d",
					step, log.sent, retries, drops, want, wantDrops)
			}
		}

		if !wasRel && ma.relHeap != nil {
			relSpills++
		}
		if !wasPend && ma.pendHeap != nil {
			pendSpills++
		}
		if !indexed[k] && ma.Size() > flatidx.IndexThreshold {
			idxBuilt++
			indexed[k] = true
		}
		if ma.relHeap != nil && wasN > spare.Inline && ma.Size() <= spare.Inline {
			shrunk++
		}
		for i, at := range storage(ma) {
			if at != nil && at != held[i] {
				if seen[at] {
					reused++
				}
				seen[at] = true
			}
		}

		if bad := ma.CheckInvariants(); bad != "" {
			t.Fatalf("step %d: %s", step, bad)
		}
		if bad := sharedStorage(machines); bad != "" {
			t.Fatalf("step %d: %s", step, bad)
		}
		if !slices.Equal(ma.ids.IDs(), ref.order) {
			t.Fatalf("step %d: related order %v, reference %v", step, ma.ids.IDs(), ref.order)
		}
		if ma.Size() != len(ref.order) {
			t.Fatalf("step %d: Size %d, reference %d", step, ma.Size(), len(ref.order))
		}
		for i, e := range ma.rel() {
			if e != ref.entries[ref.order[i]] {
				t.Fatalf("step %d: entry %d of %d is %+v, reference %+v", step, i, ref.order[i], e, ref.entries[ref.order[i]])
			}
		}
		got, gotOK := ma.AvgLnn()
		want, wantOK := ref.avgLnn()
		if gotOK != wantOK || math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("step %d: AvgLnn %v,%v, reference %v,%v", step, got, gotOK, want, wantOK)
		}
		for rid := msg.PeerID(1); rid <= 3*flatidx.IndexThreshold; rid++ {
			e, member := ref.entries[rid]
			wantOK := member && e.lnn >= 0
			lnn, when, ok := ma.LnnReport(rid)
			if ok != wantOK || ok && (lnn != int(e.lnn) || when != e.lastSeen) {
				t.Fatalf("step %d: LnnReport(%d) = %d,%v,%v, reference entry %+v (member %v)", step, rid, lnn, when, ok, e, member)
			}
		}
		if !slices.Equal(ma.pend(), ref.pend) {
			t.Fatalf("step %d: pending %+v, reference %+v", step, ma.pend(), ref.pend)
		}
	}

	t.Logf("spills: related %d, pending %d; returns to inline %d; indexed %d, reset indexed %d; heap-held sets back at inline size %d; storage reused %d; reports dropped %d; reports kept across re-observation %d; reports replaced by a Value frame %d",
		relSpills, pendSpills, returns, idxBuilt, idxDropped, shrunk, reused, dropped, reobserved, replaced)
	const floor = 20
	for name, n := range map[string]int{
		"related-set spills": relSpills, "pending spills": pendSpills,
		"returns to inline": returns, "index builds": idxBuilt, "index drops": idxDropped,
		"heap-held shrinks to inline size": shrunk, "reuses of released storage": reused,
		"report dropped, sender outside G": dropped, "report kept across re-observation": reobserved,
		"report replaced by a Value frame": replaced,
	} {
		if n < floor {
			t.Errorf("coverage: %d %s, want at least %d", n, name, floor)
		}
	}
}

// storage returns the backing arrays of a machine's three heap slices, nil
// where it holds none. The related IDs spill with their entries.
func storage(ma *Machine) [3]unsafe.Pointer {
	var ids unsafe.Pointer
	if ma.relHeap != nil {
		ids = unsafe.Pointer(unsafe.SliceData(ma.ids.IDs()))
	}
	return [3]unsafe.Pointer{
		unsafe.Pointer(unsafe.SliceData(ma.relHeap)),
		ids,
		unsafe.Pointer(unsafe.SliceData(ma.pendHeap)),
	}
}

// sharedStorage returns a description of the first backing array held by
// two live sets of ms at once, or "".
func sharedStorage(ms []Machine) string {
	names := [3]string{"related entries", "related IDs", "pending rows"}
	type holder struct{ machine, set int }
	held := make(map[unsafe.Pointer]holder, 3*len(ms))
	for i := range ms {
		for j, at := range storage(&ms[i]) {
			if at == nil {
				continue
			}
			if h, ok := held[at]; ok {
				return fmt.Sprintf("machine %d's %s and machine %d's %s share storage",
					h.machine, names[h.set], i, names[j])
			}
			held[at] = holder{i, j}
		}
	}
	return ""
}

// TestMachineCopyIsIndependent pins the representation choice: no field
// points into the struct, so a by-value copy of a machine whose sets are
// inline shares no storage with the original.
func TestMachineCopyIsIndependent(t *testing.T) {
	p := DefaultParams()
	a := NewMachine(&p, 0)
	for id := msg.PeerID(1); id <= spare.Inline; id++ {
		a.observe(id, float64(id), 0, 1, 0)
		report(a, id, int(id), 1)
		a.expect(id, pairValue, 1)
	}
	b := *a
	a.Drop(1)
	a.observe(2, 99, 0, 2, 0)
	if b.Size() != spare.Inline || !b.Has(1) || b.PendingRequests() != spare.Inline {
		t.Fatalf("mutating the original changed the copy: size %d, has(1) %v, pending %d",
			b.Size(), b.Has(1), b.PendingRequests())
	}
	if c, _, _ := b.Related(2, 2); c != 2 {
		t.Fatalf("copy's entry for 2 has capacity %v, want 2", c)
	}
	if bad := b.CheckInvariants(); bad != "" {
		t.Fatal(bad)
	}
}
