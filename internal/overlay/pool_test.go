package overlay

import (
	"testing"

	"dlm/internal/msg"
	"dlm/internal/sim"
)

// TestDeliverPoolCapped: the delivery-carrier pool is capped by demand,
// not by a constant. It is refilled a block at a time, so a burst of
// in-flight messages allocates a block per deliverBlock carriers; a second
// burst of the same size allocates nothing; and the pool never holds more
// carriers than the largest burst had in flight, rounded up to a block.
func TestDeliverPoolCapped(t *testing.T) {
	eng := sim.NewEngine(1)
	n := New(eng, Config{M: 2, KS: 3, Eta: 10, Latency: 0.5}, nil)
	p := n.Join(10, 100, nil)
	q := n.Join(10, 100, nil)
	burst := func(size int) {
		for i := 0; i < size; i++ {
			n.Send(msg.ValueRequest(p.ID, q.ID))
		}
		if err := eng.Run(); err != nil {
			t.Fatal(err)
		}
	}
	const largest = 4 * deliverBlock
	burst(largest)
	if got := len(n.deliverPool); got != largest {
		t.Errorf("pool holds %d carriers after a burst of %d, want %d", got, largest, largest)
	}
	if allocs := testing.AllocsPerRun(20, func() { burst(largest) }); allocs != 0 {
		t.Errorf("a second burst of %d allocates %.0f objects, want 0", largest, allocs)
	}
	burst(largest/2 + 1)
	if got := len(n.deliverPool); got != largest {
		t.Errorf("pool holds %d carriers after a smaller burst, want %d", got, largest)
	}
	burst(largest + 1)
	if got, limit := len(n.deliverPool), largest+deliverBlock; got != limit {
		t.Errorf("pool holds %d carriers after a burst of %d, want %d (a block more)", got, largest+1, limit)
	}
	// A recycled carrier takes the lane it is handed out under, not the
	// one it was returned with.
	if d := n.getDeliver(5); d.lane != 5 {
		t.Errorf("recycled carrier has lane %d, want 5", d.lane)
	}
}

// TestFaultySendAllocFree: once the carrier pool and the engine's
// free-list are warm, a Send over a lossy, duplicating, jittered link and
// the Steps that deliver it allocate nothing — neither the delayed copies
// nor the message itself may reach the heap.
func TestFaultySendAllocFree(t *testing.T) {
	eng := sim.NewEngine(1)
	n := New(eng, Config{M: 2, KS: 3, Eta: 10, Latency: 0.05,
		Link: Link{Loss: .05, Dup: .01, JitterMin: .01, JitterMode: .05, JitterMax: .2}}, nil)
	p := n.Join(10, 100, nil)
	q := n.Join(10, 100, nil)
	m := msg.ValueRequest(p.ID, q.ID)
	sendAndDeliver := func() {
		n.Send(m)
		for eng.Step() {
		}
	}
	for i := 0; i < 64; i++ {
		sendAndDeliver()
	}
	if allocs := testing.AllocsPerRun(1000, sendAndDeliver); allocs != 0 {
		t.Errorf("faulty Send + delivery allocates %.2f objects/op, want 0", allocs)
	}
}

// echoLaneManager is a stub ParallelManager: its lane half answers every
// ValueRequest with a ValueResponse appended to out, so a batch exercises
// both the eval-side buffering and the commit-side replay.
type echoLaneManager struct{ NopManager }

func (echoLaneManager) HandleMessageLane(_ *Network, to *Peer, m *msg.Message, _ int, out *[]msg.Message) {
	if m.Kind == msg.KindValueRequest {
		*out = append(*out, msg.ValueResponse(to.ID, m.From, to.Capacity, 0))
	}
}

// TestBatchedSendAllocFree is TestFaultySendAllocFree's twin for the
// batch path: on a perfect link with latency, eight sends to distinct
// peers arrive as one same-timestamp batch, whose eight buffered replies
// form a second — and once the carrier pool, the engine's free-list and
// the batch send buffer are warm, none of it allocates.
func TestBatchedSendAllocFree(t *testing.T) {
	eng := sim.NewEngine(1)
	eng.SetShards(4)
	n := New(eng, Config{M: 2, KS: 3, Eta: 10, Latency: 0.05}, echoLaneManager{})
	src := n.Join(10, 100, nil)
	var reqs [8]msg.Message
	for i := range reqs {
		reqs[i] = msg.ValueRequest(src.ID, n.Join(10, 100, nil).ID)
	}
	sendAndDeliver := func() {
		for i := range reqs {
			n.Send(reqs[i])
		}
		for eng.Step() {
		}
	}
	for i := 0; i < 64; i++ {
		sendAndDeliver()
	}
	before, sent := eng.BatchesFired(), n.Traffic().TotalMessages()
	if allocs := testing.AllocsPerRun(1000, sendAndDeliver); allocs != 0 {
		t.Errorf("batched Send + delivery allocates %.2f objects/op, want 0", allocs)
	}
	if got := eng.BatchesFired() - before; got != 2*1001 {
		t.Errorf("%d batches over 1001 rounds, want two per round (requests, replies)", got)
	}
	if got := n.Traffic().TotalMessages() - sent; got != 1001*16 {
		t.Errorf("%d messages over 1001 rounds, want 8 requests + 8 replies each", got)
	}
}
