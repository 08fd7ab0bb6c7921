// Package scenario is the adversarial scenario driver: it composes
// time-varying workloads (flash crowds, diurnal waves) and hostile
// behaviors (healing partitions, misreporting peers, correlated mass
// super-peer exits) on top of the existing engine/overlay/DLM stack, and
// checks every run against convergence and structural-invariant oracles.
//
// A scenario is declarative: a base population (config.Scenario) plus an
// ordered list of phases, each phase contributing extra join rates
// (linear ramps and sinusoidal waves from internal/workload), a partition
// window, or a mass-kill trigger. One generic driver (driver.go) executes
// any phase list; the paper-shaped scenario battery lives in Pack
// (pack.go) and is swept across sizes by Adversarial.
//
// Determinism: the driver draws only from its own named streams
// ("scenario.liar" for liar marking, "scenario.join" for extra-join
// endowments), and only when the scenario actually uses the behavior —
// so benign runs remain byte-identical to runs built before this package
// existed, and every run is byte-identical for any shard count (pinned
// by TestScenarioShardDeterminism).
package scenario

import (
	"fmt"
	"math"

	"dlm/internal/config"
)

// Phase is one span of a scenario timeline. Fields compose: a phase may
// ramp extra joins, superimpose a wave, raise a partition, and mark
// itself as the disturbance all at once.
type Phase struct {
	// Name labels the phase in invariant reports and traces.
	Name string
	// Len is the phase duration in time units (> 0).
	Len float64

	// ExtraJoinStart and ExtraJoinEnd are an extra join rate in peers per
	// time unit, interpolated linearly across the phase, added on top of
	// the base replacement churn. Extra joiners live out their sampled
	// lifetimes and are NOT replaced when they die — a flash crowd passes
	// through the system rather than permanently growing it.
	ExtraJoinStart float64
	ExtraJoinEnd   float64

	// WaveAmplitude and WavePeriod superimpose a sinusoidal extra join
	// rate swinging between 0 and WaveAmplitude, starting from 0 at the
	// phase start (diurnal churn waves). Zero amplitude disables.
	WaveAmplitude float64
	WavePeriod    float64

	// Partition bisects the overlay's link delivery for the whole phase
	// (peers split by ID parity); the partition heals when the phase
	// ends.
	Partition bool

	// KillTopFraction, at the phase start, removes that fraction of the
	// super-layer in one tick — the highest-capacity supers first, the
	// correlated "decapitation" failure. Zero disables.
	KillTopFraction float64

	// Disturbed marks the phase as part of the disturbance window;
	// recovery metrics (peak error, re-convergence time) are measured
	// from the first disturbed phase's start and after the last disturbed
	// phase's end.
	Disturbed bool
}

// Config is one declarative scenario.
type Config struct {
	// Name labels the scenario in reports.
	Name string
	// Base supplies the population, structure and seed; its Duration and
	// Warmup are ignored — the phase list is the timeline.
	Base config.Scenario
	// Phases is the timeline, executed in order.
	Phases []Phase

	// LiarFraction makes that fraction of all joining peers misreport:
	// each liar claims LiarCapFactor times its true capacity and
	// LiarAgeBoost extra age in every protocol message and in its own
	// promotion evaluations. Liars are drawn at join time from the
	// dedicated "scenario.liar" stream.
	LiarFraction  float64
	LiarCapFactor float64
	LiarAgeBoost  float64

	// DefenseMaxCapacity, when positive, enables the protocol's
	// bounded-sanity misreport defense with this capacity bound (see
	// protocol.Params.DefenseMaxCapacity).
	DefenseMaxCapacity float64

	// LifetimeWaveAmplitude and LifetimeWavePeriod modulate the session
	// lengths of ALL joiners sinusoidally (workload.SinusoidalProfile) —
	// the leave-rate half of a diurnal pattern. Zero amplitude disables.
	LifetimeWaveAmplitude float64
	LifetimeWavePeriod    float64

	// Shards is the intra-run worker count for the lane-parallel decision
	// phase; zero runs serially. Results are byte-identical for every
	// value.
	Shards int
}

// TotalLen returns the scenario duration: the sum of the phase lengths.
func (c Config) TotalLen() float64 {
	var total float64
	for _, ph := range c.Phases {
		total += ph.Len
	}
	return total
}

// finite reports whether v is an ordinary float (not NaN or ±Inf).
func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

// Validate reports a descriptive error for malformed scenarios. The
// driver validates before touching the engine, so arbitrary configs (the
// fuzz harness feeds them) fail cleanly instead of corrupting a run.
func (c Config) Validate() error {
	if len(c.Phases) == 0 {
		return fmt.Errorf("scenario %q: no phases", c.Name)
	}
	for i, ph := range c.Phases {
		switch {
		case !(ph.Len > 0) || !finite(ph.Len):
			return fmt.Errorf("scenario %q phase %d: Len = %v, want finite > 0", c.Name, i, ph.Len)
		case !finite(ph.ExtraJoinStart) || !finite(ph.ExtraJoinEnd):
			return fmt.Errorf("scenario %q phase %d: non-finite extra join rate", c.Name, i)
		case !finite(ph.WaveAmplitude) || ph.WaveAmplitude < 0:
			return fmt.Errorf("scenario %q phase %d: WaveAmplitude = %v", c.Name, i, ph.WaveAmplitude)
		case ph.WaveAmplitude > 0 && (!finite(ph.WavePeriod) || ph.WavePeriod <= 0):
			return fmt.Errorf("scenario %q phase %d: wave needs WavePeriod > 0", c.Name, i)
		case !finite(ph.KillTopFraction) || ph.KillTopFraction < 0 || ph.KillTopFraction >= 1:
			return fmt.Errorf("scenario %q phase %d: KillTopFraction = %v, want [0,1)", c.Name, i, ph.KillTopFraction)
		}
	}
	if total := c.TotalLen(); total < 1 {
		return fmt.Errorf("scenario %q: total length %v shorter than one tick", c.Name, total)
	}
	switch {
	case !finite(c.LiarFraction) || c.LiarFraction < 0 || c.LiarFraction > 1:
		return fmt.Errorf("scenario %q: LiarFraction = %v, want [0,1]", c.Name, c.LiarFraction)
	case c.LiarFraction > 0 && (!finite(c.LiarCapFactor) || c.LiarCapFactor < 0 ||
		!finite(c.LiarAgeBoost) || c.LiarAgeBoost < 0):
		return fmt.Errorf("scenario %q: bad liar misreport (factor %v, boost %v)",
			c.Name, c.LiarCapFactor, c.LiarAgeBoost)
	case !finite(c.DefenseMaxCapacity) || c.DefenseMaxCapacity < 0:
		return fmt.Errorf("scenario %q: DefenseMaxCapacity = %v, want >= 0", c.Name, c.DefenseMaxCapacity)
	case !finite(c.LifetimeWaveAmplitude) || c.LifetimeWaveAmplitude < 0 || c.LifetimeWaveAmplitude >= 1:
		return fmt.Errorf("scenario %q: LifetimeWaveAmplitude = %v, want [0,1)", c.Name, c.LifetimeWaveAmplitude)
	case c.LifetimeWaveAmplitude > 0 && !(c.LifetimeWavePeriod > 0 && finite(c.LifetimeWavePeriod)):
		return fmt.Errorf("scenario %q: lifetime wave needs period > 0", c.Name)
	case c.Shards < 0:
		return fmt.Errorf("scenario %q: Shards = %d, want >= 0", c.Name, c.Shards)
	}
	return nil
}
