package overlay

import (
	"testing"

	"dlm/internal/msg"
	"dlm/internal/sim"
)

// TestInvariantsAfterRandomChurn drives the overlay through thousands of
// randomized joins, leaves, promotions, demotions and repairs, and at
// checkpoints checks the structural invariants and that the lanes
// partition the population.
func TestInvariantsAfterRandomChurn(t *testing.T) {
	eng := sim.NewEngine(7)
	n := New(eng, Config{M: 2, KS: 3, Eta: 10}, nil)
	rng := eng.Rand().Stream("oracle")

	check := func(step int) {
		t.Helper()
		requireHealthy(t, n)
		// Every live peer is in exactly one lane, the one LaneOf names, and
		// WalkPeers sees the union.
		lanes := make(map[msg.PeerID]int, n.Size())
		for lane := 0; lane < NumLanes; lane++ {
			n.WalkLane(lane, func(p *Peer) {
				if prev, dup := lanes[p.ID]; dup {
					t.Fatalf("step %d: peer %d walked in lanes %d and %d", step, p.ID, prev, lane)
				}
				if n.LaneOf(p) != lane {
					t.Fatalf("step %d: peer %d walked in lane %d, LaneOf says %d", step, p.ID, lane, n.LaneOf(p))
				}
				lanes[p.ID] = lane
			})
		}
		walked := 0
		n.WalkPeers(func(p *Peer) {
			if _, ok := lanes[p.ID]; !ok {
				t.Fatalf("step %d: WalkPeers saw peer %d, no lane did", step, p.ID)
			}
			walked++
		})
		if len(lanes) != n.Size() || walked != n.Size() {
			t.Fatalf("step %d: lanes cover %d peers, WalkPeers %d, store has %d",
				step, len(lanes), walked, n.Size())
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
			// Advance virtual time so any deferred reconnect events fire.
			if err := eng.RunUntil(eng.Now() + sim.Time(1+rng.Intn(5))); err != nil {
				t.Fatal(err)
			}
		}
		if step%97 == 0 {
			check(step)
		}
	}
	check(4000)
}

// TestSnapshotMeans builds a five-peer network by hand, so every link is
// forced, and checks Snapshot against statistics worked out on paper.
func TestSnapshotMeans(t *testing.T) {
	eng, n := newNet(t, Config{M: 2, KS: 3, Eta: 10})
	at := func(when sim.Time) {
		t.Helper()
		if err := eng.RunUntil(when); err != nil {
			t.Fatal(err)
		}
	}
	a := n.Join(100, 1e9, nil) // t=0, the bootstrap super
	n.Join(40, 1e9, nil)       // b: t=0, leaf of a
	at(2)
	c := n.Join(70, 1e9, nil) // t=2, leaf of a
	at(4)
	n.Promote(c) // supers a, c: a–c is a super link
	at(5)
	d := n.Join(10, 1e9, nil) // leaf of a and c
	n.Join(20, 1e9, nil)      // e: leaf of a and c
	f := n.Join(90, 1e9, nil) // leaf of a and c
	at(6)
	n.Promote(f) // supers a, c, f, all linked to each other
	at(7)
	// a keeps both super links (as a leaf's) and drops b, d and e: b
	// reconnects to c or f, d and e each to f, the one super they lack.
	n.Demote(a)
	at(8)
	n.Leave(d)
	at(10)
	requireHealthy(t, n)

	// Supers c (70, age 8) and f (90, age 5), linked to each other; leaves
	// a (100, age 10, 2 links), b (40, age 10, 1 link), e (20, age 5, 2).
	want := LayerStats{
		Time:                   10,
		NumSupers:              2,
		NumLeaves:              3,
		Ratio:                  1.5,
		AvgAgeSuper:            6.5,
		AvgAgeLeaf:             25.0 / 3,
		AvgCapSuper:            80,
		AvgCapLeaf:             160.0 / 3,
		AvgLeafDegree:          2.5,
		AvgSuperDegreeOfSupers: 1,
		AvgSuperDegreeOfLeaves: 5.0 / 3,
	}
	if got := n.Snapshot(); got != want {
		t.Fatalf("Snapshot =\n%+v\nwant\n%+v", got, want)
	}
}

// TestSnapshotAllocFree pins that taking a layer-statistics sample
// allocates nothing once the network is built.
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
