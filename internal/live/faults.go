package live

import (
	"sync"
	"sync/atomic"
	"time"

	"dlm/internal/msg"
	"dlm/internal/overlay"
	"dlm/internal/sim"
)

// FaultyTransport wraps the net-wide delivery path with an overlay.Link
// fault model — per-message loss, triangular latency jitter, duplication
// and reordering — drawn by the simulation plane's own Link.Draw, so the
// same numbers describe the same adversity on both planes. It is shared by
// every sender goroutine, so the source is mutex-guarded; an all-zero
// model draws nothing and delivers synchronously, making the wrapper
// behavior-identical to the unwrapped transport (the cross-plane
// equivalence test pins exactly that).
type FaultyTransport struct {
	model overlay.Link
	unit  time.Duration

	mu  sync.Mutex
	rng *sim.Source

	drops [msg.NumKinds]atomic.Uint64
	dups  [msg.NumKinds]atomic.Uint64
}

func newFaultyTransport(model overlay.Link, unit time.Duration, seed int64) *FaultyTransport {
	return &FaultyTransport{
		model: model,
		unit:  unit,
		rng:   sim.NewSource(seed ^ 0x6c696e6b), // "link"
	}
}

// deliver applies the fault model to one message, in Link.Draw's order:
// loss first (a dropped message draws nothing further), then duplication,
// then one delay per departing copy, in protocol time units. Delayed
// copies ride timer goroutines; a peer that leaves before the timer fires
// absorbs the copy in deliverNow's liveness check.
func (ft *FaultyTransport) deliver(n *Net, q *Peer, m msg.Message) {
	copies := 1
	var delays [2]sim.Duration
	if ft.model.Active() {
		ft.mu.Lock()
		copies, delays = ft.model.Draw(ft.rng)
		ft.mu.Unlock()
	}
	switch copies {
	case 0:
		ft.drops[m.Kind].Add(1)
		return
	case 2:
		ft.dups[m.Kind].Add(1)
	}
	for i := 0; i < copies; i++ {
		if delays[i] <= 0 {
			n.deliverNow(q, m)
			continue
		}
		mm := m
		time.AfterFunc(time.Duration(float64(delays[i])*float64(ft.unit)), func() {
			n.deliverNow(q, mm)
		})
	}
}

// FaultDrops returns the total messages the fault model dropped, zero
// when no FaultyTransport is installed.
func (n *Net) FaultDrops() uint64 {
	if n.faults == nil {
		return 0
	}
	var total uint64
	for k := range n.faults.drops {
		total += n.faults.drops[k].Load()
	}
	return total
}

// FaultDups returns the total messages the fault model duplicated, zero
// when no FaultyTransport is installed.
func (n *Net) FaultDups() uint64 {
	if n.faults == nil {
		return 0
	}
	var total uint64
	for k := range n.faults.dups {
		total += n.faults.dups[k].Load()
	}
	return total
}
