package overlay

import (
	"fmt"
	"math"

	"dlm/internal/sim"
)

// Link models an adverse network path between any two peers: per-message
// loss, latency jitter, duplication, and reordering. The zero value is a
// perfect link and adds no cost and no randomness to the message plane —
// the determinism baselines (byte-identical results/fig*.csv) depend on
// that, so every knob gates its own draw and the faulty path reads from a
// dedicated RNG stream ("overlay.link") that perfect-link runs never
// touch.
//
// Jitter is a triangular min/mode/max distribution (the classic "ping
// spread" model, cheap and bounded). ReorderWindow adds an independent
// uniform extra delay in [0, W) per delivered copy, so messages sent
// back-to-back can overtake each other by up to the window.
type Link struct {
	// Loss is the probability a message is dropped in flight.
	Loss float64
	// Dup is the probability a delivered message arrives twice (the
	// copies take independent delay draws).
	Dup float64
	// JitterMin/JitterMode/JitterMax parameterize triangular latency
	// jitter added on top of Config.Latency; all zero disables. Active
	// when JitterMax > 0.
	JitterMin, JitterMode, JitterMax sim.Duration
	// ReorderWindow adds a uniform extra delay in [0, ReorderWindow) per
	// delivered copy.
	ReorderWindow sim.Duration
}

// Active reports whether any fault knob is set; inactive links take the
// overlay's original draw-free delivery path.
func (l Link) Active() bool {
	return l.Loss > 0 || l.Dup > 0 || l.JitterMax > 0 || l.ReorderWindow > 0
}

// Validate reports a descriptive error for out-of-range parameters.
func (l Link) Validate() error {
	switch {
	case l.Loss < 0 || l.Loss >= 1 || math.IsNaN(l.Loss):
		return fmt.Errorf("overlay: link loss = %v, want [0,1)", l.Loss)
	case l.Dup < 0 || l.Dup >= 1 || math.IsNaN(l.Dup):
		return fmt.Errorf("overlay: link dup = %v, want [0,1)", l.Dup)
	case l.JitterMin < 0 || l.JitterMode < l.JitterMin || l.JitterMax < l.JitterMode:
		return fmt.Errorf("overlay: link jitter (%v, %v, %v), want 0 <= min <= mode <= max",
			l.JitterMin, l.JitterMode, l.JitterMax)
	case l.ReorderWindow < 0:
		return fmt.Errorf("overlay: link reorder window = %v, want >= 0", l.ReorderWindow)
	}
	return nil
}

// Draw decides one message's fate. The draw order is fixed and part of the
// determinism contract: the loss draw first (a dropped message consumes no
// further randomness), then the duplication draw, then one delay draw per
// departing copy. It returns how many copies depart — 0, 1 or 2 — and the
// extra delay of each, on top of any base latency.
func (l Link) Draw(rng *sim.Source) (copies int, delays [2]sim.Duration) {
	if l.Loss > 0 && rng.Float64() < l.Loss {
		return 0, delays
	}
	copies = 1
	if l.Dup > 0 && rng.Float64() < l.Dup {
		copies = 2
	}
	for i := 0; i < copies; i++ {
		delays[i] = l.delay(rng)
	}
	return copies, delays
}

// delay draws the extra delivery delay for one copy of a message. The
// draw discipline is fixed: one draw when jitter is active, then one
// per active reorder window — never more, never fewer — so sequences
// stay reproducible as knobs are toggled independently.
func (l Link) delay(rng *sim.Source) sim.Duration {
	var d sim.Duration
	if l.JitterMax > 0 {
		d += l.triangular(rng)
	}
	if l.ReorderWindow > 0 {
		d += sim.Duration(rng.Float64()) * l.ReorderWindow
	}
	return d
}

// triangular draws from the min/mode/max triangle by inverse CDF.
func (l Link) triangular(rng *sim.Source) sim.Duration {
	a, c, b := float64(l.JitterMin), float64(l.JitterMode), float64(l.JitterMax)
	u := rng.Float64()
	if b <= a {
		return sim.Duration(a)
	}
	if fc := (c - a) / (b - a); u < fc {
		return sim.Duration(a + math.Sqrt(u*(b-a)*(c-a)))
	}
	return sim.Duration(b - math.Sqrt((1-u)*(b-a)*(b-c)))
}
