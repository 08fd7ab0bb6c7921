// Package sim provides a deterministic discrete-event simulation engine.
//
// The engine maintains a virtual clock measured in abstract time units
// (the paper's unit is one minute) and a future event list implemented as
// a binary heap. Events fire in non-decreasing time order; ties are broken
// by insertion sequence so that runs are fully deterministic for a given
// seed and schedule.
package sim

import "fmt"

// Time is a point on the virtual clock. The paper's simulations advance in
// "simulation time (minutes)"; Time is a float64 so that sub-unit message
// latencies can be modeled, but most schedules use whole units.
type Time float64

// Duration is a span of virtual time.
type Duration = Time

// String formats the time with a fixed precision suitable for traces.
func (t Time) String() string { return fmt.Sprintf("%.3f", float64(t)) }

// Unit returns the integral time unit containing t (floor).
func (t Time) Unit() int64 {
	if t < 0 {
		return int64(t) - 1
	}
	return int64(t)
}
