package live

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"dlm/internal/msg"
)

// FaultModel mirrors overlay.Link for the live plane: per-message loss,
// triangular latency jitter, duplication, and reordering, injected over
// the channel transport. Delays are expressed in protocol time units and
// scaled by Config.Unit at delivery time, so the same numbers describe
// the same adversity on both planes.
type FaultModel struct {
	// Loss is the probability a message is dropped in flight.
	Loss float64
	// Dup is the probability a delivered message arrives twice.
	Dup float64
	// JitterMin/JitterMode/JitterMax parameterize triangular latency
	// jitter in protocol time units; active when JitterMax > 0.
	JitterMin, JitterMode, JitterMax float64
	// ReorderWindow adds a uniform extra delay in [0, ReorderWindow)
	// protocol time units per delivered copy.
	ReorderWindow float64
}

// Active reports whether any fault knob is set.
func (f FaultModel) Active() bool {
	return f.Loss > 0 || f.Dup > 0 || f.JitterMax > 0 || f.ReorderWindow > 0
}

// Validate reports a descriptive error for out-of-range parameters.
func (f FaultModel) Validate() error {
	switch {
	case f.Loss < 0 || f.Loss >= 1 || math.IsNaN(f.Loss):
		return fmt.Errorf("live: fault loss = %v, want [0,1)", f.Loss)
	case f.Dup < 0 || f.Dup >= 1 || math.IsNaN(f.Dup):
		return fmt.Errorf("live: fault dup = %v, want [0,1)", f.Dup)
	case f.JitterMin < 0 || f.JitterMode < f.JitterMin || f.JitterMax < f.JitterMode:
		return fmt.Errorf("live: fault jitter (%v, %v, %v), want 0 <= min <= mode <= max",
			f.JitterMin, f.JitterMode, f.JitterMax)
	case f.ReorderWindow < 0:
		return fmt.Errorf("live: fault reorder window = %v, want >= 0", f.ReorderWindow)
	}
	return nil
}

// delay draws the extra delivery delay (in protocol time units) for one
// copy; callers hold the transport's rng lock.
func (f FaultModel) delay(rng *rand.Rand) float64 {
	var d float64
	if f.JitterMax > 0 {
		d += f.triangular(rng)
	}
	if f.ReorderWindow > 0 {
		d += rng.Float64() * f.ReorderWindow
	}
	return d
}

func (f FaultModel) triangular(rng *rand.Rand) float64 {
	a, c, b := f.JitterMin, f.JitterMode, f.JitterMax
	u := rng.Float64()
	if b <= a {
		return a
	}
	if fc := (c - a) / (b - a); u < fc {
		return a + math.Sqrt(u*(b-a)*(c-a))
	}
	return b - math.Sqrt((1-u)*(b-a)*(b-c))
}

// FaultyTransport wraps the net-wide delivery path with a FaultModel. It
// is shared by every sender goroutine, so the RNG is mutex-guarded; an
// all-zero model draws nothing and delivers synchronously, making the
// wrapper behavior-identical to the unwrapped transport (the cross-plane
// equivalence test pins exactly that).
type FaultyTransport struct {
	model FaultModel
	unit  time.Duration

	mu  sync.Mutex
	rng *rand.Rand

	drops [msg.NumKinds]atomic.Uint64
	dups  [msg.NumKinds]atomic.Uint64
}

func newFaultyTransport(model FaultModel, unit time.Duration, seed int64) *FaultyTransport {
	return &FaultyTransport{
		model: model,
		unit:  unit,
		rng:   rand.New(rand.NewSource(seed ^ 0x6c696e6b)), // "link"
	}
}

// deliver applies the fault model to one message. Draw order matches the
// simulation plane's sendFaulty: loss first (a dropped message draws
// nothing further), then duplication, then one delay per departing copy.
// Delayed copies ride timer goroutines; a peer that leaves before the
// timer fires absorbs the copy in deliverNow's liveness check.
func (ft *FaultyTransport) deliver(n *Net, q *Peer, m msg.Message) {
	drop := false
	copies := 1
	var delays [2]float64
	if ft.model.Active() {
		ft.mu.Lock()
		if ft.model.Loss > 0 && ft.rng.Float64() < ft.model.Loss {
			drop = true
		} else {
			if ft.model.Dup > 0 && ft.rng.Float64() < ft.model.Dup {
				copies = 2
			}
			for i := 0; i < copies; i++ {
				delays[i] = ft.model.delay(ft.rng)
			}
		}
		ft.mu.Unlock()
	}
	if drop {
		ft.drops[m.Kind].Add(1)
		return
	}
	if copies == 2 {
		ft.dups[m.Kind].Add(1)
	}
	for i := 0; i < copies; i++ {
		if delays[i] <= 0 {
			n.deliverNow(q, m)
			continue
		}
		mm := m
		time.AfterFunc(time.Duration(delays[i]*float64(ft.unit)), func() {
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
