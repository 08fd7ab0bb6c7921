package live

import (
	"sync/atomic"
	"time"

	"dlm/internal/msg"
)

// deliver routes one message to its addressee through cfg.Link —
// per-message loss, triangular latency jitter, duplication and reordering
// — drawn by the simulation plane's own Link.Draw, so the same numbers
// describe the same adversity on both planes. Draw's order holds: loss first (a dropped
// message draws nothing further), then duplication, then one delay per
// departing copy, in protocol time units. A perfect link draws nothing and
// delivers synchronously. Delayed copies ride timer goroutines and find
// their addressee when the timer fires, as a delayed delivery does on the
// simulation plane.
func (n *Net) deliver(m msg.Message) {
	if !n.cfg.Link.Active() {
		n.deliverNow(m)
		return
	}
	n.linkMu.Lock()
	copies, delays := n.cfg.Link.Draw(n.linkRng)
	n.linkMu.Unlock()
	switch copies {
	case 0:
		n.faultDrops[m.Kind].Add(1)
		return
	case 2:
		n.faultDups[m.Kind].Add(1)
	}
	for _, d := range delays[:copies] {
		if d <= 0 {
			n.deliverNow(m)
			continue
		}
		time.AfterFunc(time.Duration(float64(d)*float64(n.cfg.Unit)), func() {
			n.deliverNow(m)
		})
	}
}

// FaultDrops returns the total messages the link model dropped.
func (n *Net) FaultDrops() uint64 { return sum(&n.faultDrops) }

// FaultDups returns the total messages the link model duplicated.
func (n *Net) FaultDups() uint64 { return sum(&n.faultDups) }

// sum totals a per-kind tally.
func sum(tally *[msg.NumKinds]atomic.Uint64) uint64 {
	var total uint64
	for k := range tally {
		total += tally[k].Load()
	}
	return total
}
