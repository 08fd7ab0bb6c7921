package workload

import (
	"math"
	"testing"

	"dlm/internal/sim"
)

func TestRampRate(t *testing.T) {
	r := RampRate{Start: 10, End: 20, From: 4, To: 8}
	cases := []struct {
		at   sim.Time
		want float64
	}{
		{0, 4}, {10, 4}, {15, 6}, {20, 8}, {100, 8},
	}
	for _, c := range cases {
		if got := r.At(c.at); got != c.want {
			t.Errorf("At(%v) = %v, want %v", c.at, got, c.want)
		}
	}

	step := RampRate{Start: 5, End: 5, From: 1, To: 9}
	if got := step.At(4); got != 1 {
		t.Errorf("step before = %v, want 1", got)
	}
	if got := step.At(5); got != 9 {
		t.Errorf("step at = %v, want 9", got)
	}

	neg := RampRate{Start: 0, End: 10, From: -4, To: -2}
	if got := neg.At(5); got != 0 {
		t.Errorf("negative ramp clamps to 0, got %v", got)
	}
}

func TestSinusoidRate(t *testing.T) {
	s := SinusoidRate{Amplitude: 6, Period: 100, Origin: 50}
	if got := s.At(50); got != 0 {
		t.Errorf("wave at origin = %v, want 0", got)
	}
	if got := s.At(100); math.Abs(got-6) > 1e-12 {
		t.Errorf("wave at half period = %v, want amplitude 6", got)
	}
	for ti := 0; ti <= 400; ti++ {
		v := s.At(sim.Time(ti))
		if v < 0 || v > 6 {
			t.Fatalf("wave At(%d) = %v outside [0, amplitude]", ti, v)
		}
	}
	// The mean over whole periods is half the amplitude.
	var sum float64
	for ti := 0; ti < 800; ti++ {
		sum += s.At(50 + sim.Time(ti)*0.25)
	}
	if mean := sum / 800; math.Abs(mean-3) > 0.02 {
		t.Errorf("wave mean = %v, want ~3", mean)
	}
	if got := (SinusoidRate{Amplitude: 6}).At(10); got != 0 {
		t.Errorf("zero-period wave = %v, want 0", got)
	}
}

func TestSumRate(t *testing.T) {
	s := SumRate{ConstantRate(2), RampRate{Start: 0, End: 10, From: 0, To: 10}}
	if got := s.At(5); got != 7 {
		t.Errorf("sum At(5) = %v, want 7", got)
	}
}

// TestRateAccumulatorTracksIntegral drives the accumulator with a
// time-varying rate and checks the emitted event total never drifts from
// the integral of the rate by more than one event — the no-rounding-drift
// contract the scenario driver relies on for its extra-join schedule.
func TestRateAccumulatorTracksIntegral(t *testing.T) {
	r := SumRate{
		RampRate{Start: 100, End: 130, From: 9.7, To: 0},
		SinusoidRate{Amplitude: 3.3, Period: 37},
	}
	var acc RateAccumulator
	var emitted int
	var integral float64
	for ti := 0; ti < 500; ti++ {
		rate := r.At(sim.Time(ti))
		emitted += acc.Take(rate, 1)
		integral += rate
		if d := math.Abs(float64(emitted) - integral); d > 1+1e-6 {
			t.Fatalf("t=%d: emitted %d vs integral %.3f (drift %.3f)", ti, emitted, integral, d)
		}
	}
	if emitted == 0 {
		t.Fatal("accumulator emitted nothing")
	}
}

func TestRateAccumulatorRejectsJunk(t *testing.T) {
	var acc RateAccumulator
	for _, rate := range []float64{math.NaN(), math.Inf(1), -3, 0} {
		if got := acc.Take(rate, 1); got != 0 {
			t.Errorf("Take(%v, 1) = %d, want 0", rate, got)
		}
	}
	if got := acc.Take(5, math.NaN()); got != 0 {
		t.Errorf("Take(5, NaN) = %d, want 0", got)
	}
	if got := acc.Take(5, 1); got != 5 {
		t.Errorf("junk perturbed the accumulator: Take(5,1) = %d, want 5", got)
	}
}

// TestRateStatisticalJoinCount seeds a Bernoulli-thinned arrival process
// from a Rate and checks the realized count lands inside a generous
// binomial band — the style of bound the scenario oracles use (see
// stat_test.go for the pattern).
func TestRateStatisticalJoinCount(t *testing.T) {
	src := sim.NewSource(7).Stream("rate-test")
	const p = 0.5
	r := ConstantRate(8) // 8 candidates/unit, thinned to ~4/unit
	var acc RateAccumulator
	count := 0
	const units = 2000
	for ti := 0; ti < units; ti++ {
		for k := acc.Take(r.At(sim.Time(ti)), 1); k > 0; k-- {
			if src.Float64() < p {
				count++
			}
		}
	}
	mean := float64(units) * 8 * p
	sd := math.Sqrt(float64(units) * 8 * p * (1 - p))
	if lo, hi := mean-5*sd, mean+5*sd; float64(count) < lo || float64(count) > hi {
		t.Fatalf("thinned count %d outside [%.0f, %.0f] (mean %.0f, sd %.1f)", count, lo, hi, mean, sd)
	}
}
