// Package config defines experiment scenarios: the paper's Table 2
// parameters, scaled-down variants for tests and laptop runs, and the
// workload profiles derived from them.
package config

import (
	"fmt"
	"math"

	"dlm/internal/overlay"
	"dlm/internal/workload"
)

// Scenario bundles the structural and workload parameters of one
// simulation run.
type Scenario struct {
	// Name labels the scenario in reports.
	Name string
	// Seed drives all randomness.
	Seed int64

	// N is the steady-state population (Table 2: n ≈ 50,020).
	N int
	// Eta is the target layer size ratio (Table 2: 40).
	Eta float64
	// M is the super connections per leaf (Table 2: 2).
	M int
	// KS is the super-layer degree target (Table 2: 3).
	KS int

	// GrowthRate is joins per time unit during cold start.
	GrowthRate int
	// Duration is the simulated time span after t=0.
	Duration float64
	// SampleEvery is the snapshot interval for time series.
	SampleEvery float64
	// Warmup marks the end of the transient; steady-state summaries and
	// counter windows start here.
	Warmup float64

	// LifetimeMedian and LifetimeSigma parameterize the lognormal session
	// lengths (median ≈ 60 minutes in the measurement studies).
	LifetimeMedian float64
	LifetimeSigma  float64

	// CatalogSize, QueryRate and TTL configure the search workload; a
	// zero QueryRate disables it.
	CatalogSize int
	QueryRate   float64
	TTL         int
}

// table2 returns the paper's full-scale parameters: n_s = 1,220 preferred
// super-peers, n_l = 48,800 preferred leaf-peers, η = 40, m = 2, k_l = 80,
// k_s = 3.
func table2() Scenario {
	return Scenario{
		Name:           "table2",
		Seed:           1,
		N:              50020,
		Eta:            40,
		M:              2,
		KS:             3,
		GrowthRate:     5000,
		Duration:       2000,
		SampleEvery:    10,
		Warmup:         400,
		LifetimeMedian: 60,
		LifetimeSigma:  1.2,
		CatalogSize:    10000,
		QueryRate:      0,
		TTL:            7,
	}
}

// Scaled returns a Table 2-shaped scenario resized to n peers with a
// proportional η (so the super-layer stays statistically meaningful at
// small n) and a duration that still covers several churn generations.
func Scaled(n int) Scenario {
	s := table2()
	s.Name = fmt.Sprintf("scaled-%d", n)
	s.N = n
	// Keep roughly Table 2's super-layer share for large n; shrink η for
	// small n so the super-layer holds at least ~25 peers.
	if float64(n)/(1+s.Eta) < 25 {
		s.Eta = math.Max(4, float64(n)/25-1)
	}
	s.GrowthRate = n/10 + 1
	s.Duration = 600
	s.Warmup = 200
	s.SampleEvery = 5
	return s
}

// Overlay derives the overlay parameters.
func (s Scenario) Overlay() overlay.Config {
	return overlay.Config{M: s.M, KS: s.KS, Eta: s.Eta}
}

// KL returns the optimal leaf degree k_l = m·η (Equation a).
func (s Scenario) KL() float64 { return float64(s.M) * s.Eta }

// PreferredSupers returns n_s = n/(1+η) (Equation b).
func (s Scenario) PreferredSupers() int {
	return int(float64(s.N)/(1+s.Eta) + 0.5)
}

// BaseProfile builds the stable-network workload profile.
func (s Scenario) BaseProfile() *workload.StaticProfile {
	return &workload.StaticProfile{
		Capacity:       workload.SaroiuBandwidthMixture(),
		Lifetime:       workload.LognormalWithMedian(s.LifetimeMedian, s.LifetimeSigma),
		ObjectsPerPeer: workload.DefaultObjects(),
	}
}

// Validate reports a descriptive error for inconsistent scenarios.
func (s Scenario) Validate() error {
	switch {
	case s.N <= 0:
		return fmt.Errorf("config: N = %d, want > 0", s.N)
	case s.Eta <= 0:
		return fmt.Errorf("config: Eta = %v, want > 0", s.Eta)
	case s.M <= 0 || s.KS <= 0:
		return fmt.Errorf("config: degrees M=%d KS=%d, want > 0", s.M, s.KS)
	case s.GrowthRate <= 0:
		return fmt.Errorf("config: GrowthRate = %d, want > 0", s.GrowthRate)
	case s.Duration <= 0 || s.SampleEvery <= 0:
		return fmt.Errorf("config: Duration=%v SampleEvery=%v, want > 0", s.Duration, s.SampleEvery)
	case s.Warmup < 0 || s.Warmup >= s.Duration:
		return fmt.Errorf("config: Warmup = %v, want in [0, Duration)", s.Warmup)
	case s.LifetimeMedian <= 0 || s.LifetimeSigma < 0:
		return fmt.Errorf("config: lifetime median=%v sigma=%v", s.LifetimeMedian, s.LifetimeSigma)
	case s.QueryRate < 0:
		return fmt.Errorf("config: QueryRate = %v, want >= 0", s.QueryRate)
	case s.TTL > math.MaxUint8:
		return fmt.Errorf("config: TTL = %d, want <= %d (the query frame's hop field is one byte)", s.TTL, math.MaxUint8)
	case s.QueryRate > 0 && (s.TTL <= 0 || s.CatalogSize <= 0):
		return fmt.Errorf("config: query workload needs TTL and CatalogSize > 0")
	}
	return nil
}
