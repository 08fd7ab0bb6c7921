package overlay

import (
	"math"
	"testing"

	"dlm/internal/sim"
)

// TestAggregatesMatchScanAfterRandomChurn is the differential oracle for
// the incremental layer accounting: drive the overlay through thousands
// of randomized joins, leaves, promotions, demotions and repairs, and at
// checkpoints compare every maintained aggregate — and the Snapshot
// derived from them — against a brute-force rescan of the population.
func TestAggregatesMatchScanAfterRandomChurn(t *testing.T) {
	eng := sim.NewEngine(7)
	n := New(eng, Config{M: 2, KS: 3, Eta: 10}, nil)
	rng := eng.Rand().Stream("oracle")

	check := func(step int) {
		t.Helper()
		got, want := n.agg, n.scanAggregates()
		if got.leafDegSupers != want.leafDegSupers ||
			got.superDegSupers != want.superDegSupers ||
			got.superDegLeaves != want.superDegLeaves {
			t.Fatalf("step %d: degree aggregates diverged:\n got %+v\nscan %+v", step, got, want)
		}
		// The lane-parallel rescan must agree too, for worker counts below,
		// at, and above the lane count's useful range: exact on the integer
		// degree sums, aggEq on the float sums (per-lane partials associate
		// differently than the serial scan).
		for _, w := range []int{1, 3, 8} {
			sh := n.scanAggregatesSharded(w)
			if sh.leafDegSupers != want.leafDegSupers ||
				sh.superDegSupers != want.superDegSupers ||
				sh.superDegLeaves != want.superDegLeaves {
				t.Fatalf("step %d: sharded scan (w=%d) degree sums diverged:\n got %+v\nscan %+v", step, w, sh, want)
			}
			if !aggEq(sh.sumJoinSuper, want.sumJoinSuper) ||
				!aggEq(sh.sumJoinLeaf, want.sumJoinLeaf) ||
				!aggEq(sh.sumCapSuper, want.sumCapSuper) ||
				!aggEq(sh.sumCapLeaf, want.sumCapLeaf) {
				t.Fatalf("step %d: sharded scan (w=%d) float sums diverged:\n got %+v\nscan %+v", step, w, sh, want)
			}
		}
		// Lane coverage: the lanes partition the population — every live
		// peer appears in exactly one lane, and WalkPeers sees the union.
		laneCount := 0
		for lane := 0; lane < NumLanes; lane++ {
			n.WalkLane(lane, func(*Peer) { laneCount++ })
		}
		walkCount := 0
		n.WalkPeers(func(*Peer) { walkCount++ })
		if laneCount != n.Size() || walkCount != n.Size() {
			t.Fatalf("step %d: lanes cover %d peers, WalkPeers %d, store has %d",
				step, laneCount, walkCount, n.Size())
		}
		for _, pair := range [][2]float64{
			{got.sumJoinSuper, want.sumJoinSuper},
			{got.sumJoinLeaf, want.sumJoinLeaf},
			{got.sumCapSuper, want.sumCapSuper},
			{got.sumCapLeaf, want.sumCapLeaf},
		} {
			if !aggEq(pair[0], pair[1]) {
				t.Fatalf("step %d: float aggregate %g, scan says %g", step, pair[0], pair[1])
			}
		}
		// And the user-visible form: Snapshot means vs per-peer recompute.
		s := n.Snapshot()
		now := float64(eng.Now())
		var ageSup, capSup, ageLeaf, capLeaf float64
		for _, id := range n.supers.items {
			p := n.store.get(id)
			ageSup += now - float64(p.JoinTime)
			capSup += p.Capacity
		}
		for _, id := range n.leaves.items {
			p := n.store.get(id)
			ageLeaf += now - float64(p.JoinTime)
			capLeaf += p.Capacity
		}
		approx := func(got, wantSum float64, cnt int) bool {
			if cnt == 0 {
				return got == 0
			}
			want := wantSum / float64(cnt)
			return math.Abs(got-want) <= 1e-6*math.Max(math.Abs(want), 1)
		}
		if !approx(s.AvgAgeSuper, ageSup, s.NumSupers) ||
			!approx(s.AvgCapSuper, capSup, s.NumSupers) ||
			!approx(s.AvgAgeLeaf, ageLeaf, s.NumLeaves) ||
			!approx(s.AvgCapLeaf, capLeaf, s.NumLeaves) {
			t.Fatalf("step %d: snapshot means diverged from per-peer scan: %+v", step, s)
		}
	}

	for i := 0; i < 50; i++ {
		n.Join(1+rng.Float64()*99, 1e9, nil)
	}
	for step := 0; step < 4000; step++ {
		switch rng.Intn(10) {
		case 0, 1, 2:
			n.Join(1+rng.Float64()*99, 1e9, nil)
		case 3, 4:
			if ids := n.LeafIDs(); len(ids) > 0 && n.Size() > 5 {
				n.Leave(n.Peer(ids[rng.Intn(len(ids))]))
			}
		case 5:
			if ids := n.SuperIDs(); len(ids) > 1 {
				n.Leave(n.Peer(ids[rng.Intn(len(ids))]))
			}
		case 6:
			if ids := n.LeafIDs(); len(ids) > 0 {
				n.Promote(n.Peer(ids[rng.Intn(len(ids))]))
			}
		case 7:
			if ids := n.SuperIDs(); len(ids) > 0 {
				n.Demote(n.Peer(ids[rng.Intn(len(ids))]))
			}
		case 8:
			n.Repair()
		case 9:
			// Advance virtual time so the sum-of-birth-times identity is
			// exercised at many distinct "now" values, and any deferred
			// reconnect events fire.
			if err := eng.RunUntil(eng.Now() + sim.Time(1+rng.Intn(5))); err != nil {
				t.Fatal(err)
			}
		}
		if step%97 == 0 {
			check(step)
		}
	}
	check(4000)
	requireHealthy(t, n)
}

// TestSnapshotAllocFree pins the O(1) sampling win: once the network is
// built, taking a layer-statistics sample allocates nothing.
func TestSnapshotAllocFree(t *testing.T) {
	eng := sim.NewEngine(3)
	n := New(eng, Config{M: 2, KS: 3, Eta: 10}, nil)
	for i := 0; i < 300; i++ {
		n.Join(float64(1+i%100), 1e9, nil)
	}
	for i := 0; n.NumSupers() < 20; i++ {
		n.Promote(n.Peer(n.LeafIDs()[0]))
	}
	if avg := testing.AllocsPerRun(100, func() { _ = n.Snapshot() }); avg != 0 {
		t.Fatalf("Snapshot allocates %v per sample, want 0", avg)
	}
}

// scanAggregatesSharded recomputes the aggregate sums with a lane-parallel
// walk: one private accumulator per lane, merged in lane order after the
// fan-out joins. It is the sharded counterpart of scanAggregates and the
// oracle's oracle — the differential test below checks maintained
// aggregates, this scan, and the serial scan against each other. The float sums see a
// different association order than the serial scan (per-lane partials),
// so they agree to aggEq tolerance, not bit-exactly; the integer degree
// sums must match exactly.
func (n *Network) scanAggregatesSharded(workers int) aggregates {
	var parts [NumLanes]aggregates
	sim.ForLanes(workers, NumLanes, func(lane int) {
		a := &parts[lane]
		n.store.walkLane(lane, func(p *Peer) {
			if p.Layer == LayerSuper {
				a.sumJoinSuper += float64(p.JoinTime)
				a.sumCapSuper += p.Capacity
				a.leafDegSupers += int64(p.LeafDegree())
				a.superDegSupers += int64(p.SuperDegree())
			} else {
				a.sumJoinLeaf += float64(p.JoinTime)
				a.sumCapLeaf += p.Capacity
				a.superDegLeaves += int64(p.SuperDegree())
			}
		})
	})
	var total aggregates
	for i := range parts {
		total.merge(&parts[i])
	}
	return total
}

// merge folds another accumulator into a — used by the lane-parallel
// rescan, which sums one private aggregates per lane and merges them in
// lane order (a fixed association order, so the result is deterministic).
func (a *aggregates) merge(b *aggregates) {
	a.sumJoinSuper += b.sumJoinSuper
	a.sumJoinLeaf += b.sumJoinLeaf
	a.sumCapSuper += b.sumCapSuper
	a.sumCapLeaf += b.sumCapLeaf
	a.leafDegSupers += b.leafDegSupers
	a.superDegSupers += b.superDegSupers
	a.superDegLeaves += b.superDegLeaves
}
