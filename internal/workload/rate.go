package workload

import (
	"math"

	"dlm/internal/sim"
)

// Rate is a time-varying event rate: events per time unit as a function
// of virtual time. The adversarial scenario driver (internal/scenario)
// integrates a Rate tick by tick to schedule extra joins on top of the
// replacement churn — flash-crowd spikes, decays, and diurnal waves are
// all shapes of Rate.
type Rate interface {
	// At returns the instantaneous rate at time now, in events per time
	// unit. Implementations must return a finite value >= 0.
	At(now sim.Time) float64
}

// ConstantRate is a fixed rate.
type ConstantRate float64

// At implements Rate.
func (c ConstantRate) At(sim.Time) float64 { return max(float64(c), 0) }

// RampRate interpolates linearly from From at Start to To at End, holding
// the endpoint values outside the interval. A zero-length interval is a
// step at Start.
type RampRate struct {
	Start, End sim.Time
	From, To   float64
}

// At implements Rate.
func (r RampRate) At(now sim.Time) float64 {
	if r.End <= r.Start { // zero-length interval: a step at Start
		if now < r.Start {
			return max(r.From, 0)
		}
		return max(r.To, 0)
	}
	if now <= r.Start {
		return max(r.From, 0)
	}
	if now >= r.End {
		return max(r.To, 0)
	}
	f := float64(now-r.Start) / float64(r.End-r.Start)
	return max(r.From+f*(r.To-r.From), 0)
}

// SinusoidRate is a diurnal-style wave: the rate swings between 0 and
// Amplitude with the given period, starting at 0 at time Origin (the wave
// is (1 - cos)/2-shaped, so a phase that begins at its own origin ramps
// up from zero rather than jumping to the mean).
type SinusoidRate struct {
	Amplitude float64
	Period    sim.Duration
	Origin    sim.Time
}

// At implements Rate.
func (s SinusoidRate) At(now sim.Time) float64 {
	if s.Period <= 0 || s.Amplitude <= 0 {
		return 0
	}
	phase := 2 * math.Pi * float64(now-s.Origin) / float64(s.Period)
	return s.Amplitude * (1 - math.Cos(phase)) / 2
}

// SumRate adds component rates.
type SumRate []Rate

// At implements Rate.
func (s SumRate) At(now sim.Time) float64 {
	var total float64
	for _, r := range s {
		total += r.At(now)
	}
	return total
}

// RateAccumulator converts a continuous Rate into integer event counts
// per tick with no long-run rounding drift: fractional events carry over
// to the next tick, so the emitted total tracks the integral of the rate.
type RateAccumulator struct {
	acc float64
}

// Take returns the number of whole events due for a tick that observed
// the instantaneous rate `rate` over `dt` time units, carrying the
// fractional remainder forward. Non-finite or negative input adds
// nothing.
func (a *RateAccumulator) Take(rate float64, dt float64) int {
	if !(rate > 0) || !(dt > 0) || math.IsInf(rate, 0) || math.IsInf(dt, 0) {
		return 0
	}
	a.acc += rate * dt
	n := int(a.acc)
	a.acc -= float64(n)
	return n
}
