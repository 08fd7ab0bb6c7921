package core

import (
	"testing"

	"dlm/internal/overlay"
	"dlm/internal/protocol"
	"dlm/internal/sim"
)

// allocNetwork builds a small settled overlay — four supers with a dozen
// leaves each, so the supers' own sets are long past their inline arrays —
// with the clock beyond RefreshInterval, so the standing leaves have
// refreshed at least once.
func allocNetwork(t testing.TB) (*overlay.Network, *Manager) {
	eng, n, mgr := testNetwork(1, DefaultParams())
	n.Join(100, 1e6, nil) // bootstrap super
	for i := 0; i < 3; i++ {
		n.Promote(n.Join(100, 1e6, nil))
	}
	for i := 0; i < 24; i++ {
		n.Join(10, 1e6, nil)
	}
	if err := eng.RunUntil(sim.Time(mgr.P.RefreshInterval) + 20); err != nil {
		t.Fatal(err)
	}
	if n.NumSupers() != 4 {
		t.Fatalf("setup: %d supers, want 4", n.NumSupers())
	}
	return n, mgr
}

// leafJoin runs a leaf's arrival: Join (a leaf under DLM) makes the M
// connections, each of which fires the connect exchange inline; then its
// first refresh exchange over both links, one RefreshInterval after the
// join (protocol time is the calls' argument, so the session need not
// wait for it on the engine's clock).
func leafJoin(t testing.TB, n *overlay.Network, mgr *Manager) *overlay.Peer {
	p := n.Join(10, 100, nil)
	ma := mgr.state(p)
	at := n.Now() + sim.Time(mgr.P.RefreshInterval)
	due := ma.RefreshDue(protocol.Time(at))
	mgr.refresh(n, p, at)
	if p.Layer != overlay.LayerLeaf || p.SuperDegree() != 2 || ma.Size() != 2 || !due {
		t.Fatalf("leaf cycle incomplete: layer %v, %d super links, |G| = %d, refresh due %v",
			p.Layer, p.SuperDegree(), ma.Size(), due)
	}
	return p
}

// TestLeafCycleAllocFree pins the point of the inline sets: a leaf's whole
// session — join, M connects, the connect exchange on each, one refresh,
// leave — allocates nothing, on a slab slot and arena machine never used
// before and on recycled ones. (AllocsPerRun reports the truncated mean, so
// the amortized growth of the ID-indexed tables — one word per join ever
// made — does not register; one allocation per session would.)
func TestLeafCycleAllocFree(t *testing.T) {
	t.Run("recycled", func(t *testing.T) {
		n, mgr := allocNetwork(t)
		slot := int32(-1)
		allocs := testing.AllocsPerRun(500, func() {
			p := leafJoin(t, n, mgr)
			if slot >= 0 && p.Slot() != slot {
				t.Fatalf("session on slot %d, want the recycled slot %d", p.Slot(), slot)
			}
			slot = p.Slot()
			n.Leave(p)
		})
		if allocs != 0 {
			t.Errorf("a leaf session on a recycled slot allocates %.0f objects, want 0", allocs)
		}
	})
	t.Run("fresh", func(t *testing.T) {
		n, mgr := allocNetwork(t)
		// Nobody leaves while the arrivals are measured, so each takes a
		// slot past the high-water mark; the departures are measured after.
		const sessions = 500
		joined := make([]*overlay.Peer, 0, sessions+1)
		next := int32(n.Size())
		allocs := testing.AllocsPerRun(sessions, func() {
			p := leafJoin(t, n, mgr)
			if p.Slot() != next {
				t.Fatalf("session on slot %d, want the fresh slot %d", p.Slot(), next)
			}
			next++
			joined = append(joined, p)
		})
		if allocs != 0 {
			t.Errorf("a leaf's arrival on a fresh slot allocates %.0f objects, want 0", allocs)
		}
		allocs = testing.AllocsPerRun(sessions, func() {
			n.Leave(joined[len(joined)-1])
			joined = joined[:len(joined)-1]
		})
		if allocs != 0 {
			t.Errorf("a leaf's departure allocates %.0f objects, want 0", allocs)
		}
	})
	// A super's storage is recycled rather than pinned to its slot: once
	// one super has grown past the index thresholds and demoted, the next
	// super to do the same — its related set and leaf links spilling,
	// regrowing to 64 and building their indexes, then all of it released
	// again — takes everything from the stores.
	t.Run("super", func(t *testing.T) {
		n, mgr := allocNetwork(t)
		const degree = 40 // past flatidx.IndexThreshold (32)
		leaves := make([]*overlay.Peer, 0, degree)
		cycle := func() {
			s := n.Join(100, 1e6, nil)
			n.Promote(s)
			for len(leaves) < degree {
				p := n.Join(10, 100, nil)
				if !p.HasLink(s.ID) {
					n.Connect(p, s)
				}
				leaves = append(leaves, p)
			}
			if s.LeafDegree() != degree || mgr.state(s).Size() != degree {
				t.Fatalf("super has %d leaves and |G| = %d, want %d", s.LeafDegree(), mgr.state(s).Size(), degree)
			}
			if !n.Demote(s) {
				t.Fatal("demotion refused")
			}
			for _, p := range leaves {
				n.Leave(p)
			}
			n.Leave(s)
			leaves = leaves[:0]
		}
		// The first cycles fill the stores and grow the four standing
		// supers' sets to the most leaves the draws give them.
		for i := 0; i < 8; i++ {
			cycle()
		}
		if allocs := testing.AllocsPerRun(50, cycle); allocs != 0 {
			t.Errorf("a super's promotion, growth past %d leaves and demotion allocates %.0f objects, want 0", degree, allocs)
		}
	})
}

// TestTickAllocFree pins the tick's lane callbacks to the manager: a serial
// maintenance tick on a settled network — collect scan with its refreshes,
// evaluate walk and commit — allocates nothing once the lanes exist.
func TestTickAllocFree(t *testing.T) {
	n, mgr := allocNetwork(t)
	if shards := n.Engine().Shards(); shards != 1 {
		t.Fatalf("engine runs %d shards, want a serial tick", shards)
	}
	now := n.Now()
	mgr.Tick(n, now) // the first tick builds the lanes
	allocs := testing.AllocsPerRun(100, func() {
		now++
		mgr.Tick(n, now)
	})
	if allocs != 0 {
		t.Errorf("a serial tick allocates %.2f objects, want 0", allocs)
	}
}
