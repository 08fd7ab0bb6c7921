package live

import (
	"testing"
	"time"

	"dlm/internal/overlay"
)

// TestLiveUnderFaultyLink runs a small network over a lossy, duplicating,
// jittering, reordering link: the fault counters and the Phase 1 retry
// counter must move, a super layer must still form, and Stop must return
// while delayed copies are still riding their timers.
func TestLiveUnderFaultyLink(t *testing.T) {
	cfg := Config{
		Eta: 8, Unit: 2 * time.Millisecond, Seed: 5,
		// Up to 2+20 units of extra delay against a 5-unit request
		// timeout: answers that survive the loss often arrive late, and
		// some copy is always in flight.
		Link: overlay.Link{Loss: 0.2, Dup: 0.1, JitterMode: 0.5, JitterMax: 2, ReorderWindow: 20},
	}
	cfg.defaults()
	cfg.Params.DecisionCooldown = 3
	cfg.Params.DemotionCooldown = 20
	cfg.Params.EvalProbability = 0.5
	n := NewNet(cfg)
	for i := 0; i < 80; i++ {
		n.Join(float64(1+i%100), nil)
	}

	deadline := time.Now().Add(10 * time.Second)
	settled := func() bool {
		return n.FaultDrops() > 0 && n.FaultDups() > 0 && n.RequestRetries() > 0 &&
			n.Snapshot().NumSupers >= 4
	}
	for !settled() && time.Now().Before(deadline) {
		time.Sleep(20 * time.Millisecond)
	}
	if !settled() {
		t.Errorf("drops %d dups %d retries %d supers %d: want all counters > 0 and >= 4 supers",
			n.FaultDrops(), n.FaultDups(), n.RequestRetries(), n.Snapshot().NumSupers)
	}

	stopped := make(chan struct{})
	go func() {
		n.Stop()
		close(stopped)
	}()
	select {
	case <-stopped:
	case <-time.After(5 * time.Second):
		t.Fatal("Stop did not return under a faulty link")
	}
	// Let the copies that were still on timers fire into the stopped
	// network (the race detector watches them land on departed peers).
	time.Sleep(time.Duration(25 * float64(cfg.Unit)))
	if got := n.Snapshot(); got.NumSupers+got.NumLeaves != 0 {
		t.Fatalf("peers survived Stop: %+v", got)
	}
}
