// Package workload generates the stochastic inputs of the simulation:
// per-peer capacities and lifetimes, content catalogs, query targets, and
// time-varying regime schedules that reshape those distributions mid-run.
//
// The shapes are the ones the paper calibrates against the measurement
// studies it cites (Saroiu et al. MMCN'02; Gummadi et al. SOSP'03):
// heavy-tailed session lifetimes with a median around an hour, and a
// bandwidth mix spanning dial-up to campus links.
package workload

import (
	"fmt"
	"math"
	"sort"

	"dlm/internal/sim"
)

// Dist is a one-dimensional distribution that can be sampled with a
// deterministic source.
type Dist interface {
	Sample(r *sim.Source) float64
	// Mean returns the analytic mean of the distribution, used by
	// regime schedules to rescale a distribution to a target mean.
	Mean() float64
}

// Constant is a degenerate distribution.
type Constant float64

// Sample implements Dist.
func (c Constant) Sample(*sim.Source) float64 { return float64(c) }

// Mean implements Dist.
func (c Constant) Mean() float64 { return float64(c) }

// Uniform is the uniform distribution on [Lo, Hi).
type Uniform struct{ Lo, Hi float64 }

// Sample implements Dist.
func (u Uniform) Sample(r *sim.Source) float64 { return r.Uniform(u.Lo, u.Hi) }

// Mean implements Dist.
func (u Uniform) Mean() float64 { return (u.Lo + u.Hi) / 2 }

// Exponential has the given mean.
type Exponential struct{ MeanVal float64 }

// Sample implements Dist.
func (e Exponential) Sample(r *sim.Source) float64 { return r.Exponential(e.MeanVal) }

// Mean implements Dist.
func (e Exponential) Mean() float64 { return e.MeanVal }

// Lognormal is parameterized by the mean (Mu) and standard deviation
// (Sigma) of the underlying normal.
type Lognormal struct{ Mu, Sigma float64 }

// Sample implements Dist.
func (l Lognormal) Sample(r *sim.Source) float64 { return r.Lognormal(l.Mu, l.Sigma) }

// Mean implements Dist.
func (l Lognormal) Mean() float64 { return math.Exp(l.Mu + l.Sigma*l.Sigma/2) }

// LognormalWithMedian builds a lognormal with the given median and sigma.
func LognormalWithMedian(median, sigma float64) Lognormal {
	return Lognormal{Mu: math.Log(median), Sigma: sigma}
}

// BoundedPareto is a Pareto(Alpha) truncated to [Lo, Hi].
type BoundedPareto struct{ Lo, Hi, Alpha float64 }

// Sample implements Dist.
func (p BoundedPareto) Sample(r *sim.Source) float64 {
	return r.BoundedPareto(p.Lo, p.Hi, p.Alpha)
}

// Mean implements Dist.
func (p BoundedPareto) Mean() float64 {
	a, l, h := p.Alpha, p.Lo, p.Hi
	if a == 1 {
		return l * h / (h - l) * math.Log(h/l)
	}
	la := math.Pow(l, a)
	return la / (1 - math.Pow(l/h, a)) * a / (a - 1) * (1/math.Pow(l, a-1) - 1/math.Pow(h, a-1))
}

// Scaled wraps a distribution and multiplies every sample by Factor.
// Regime schedules use it to halve or double a distribution's mean without
// changing its shape (the paper's dynamic scenarios do exactly this).
type Scaled struct {
	Base   Dist
	Factor float64
}

// Sample implements Dist.
func (s Scaled) Sample(r *sim.Source) float64 { return s.Factor * s.Base.Sample(r) }

// Mean implements Dist.
func (s Scaled) Mean() float64 { return s.Factor * s.Base.Mean() }

// Mixture is a finite mixture of distributions with the given weights.
// Weights need not be normalized.
type Mixture struct {
	Components []Dist
	Weights    []float64
	cum        []float64
	total      float64
}

// NewMixture builds a mixture; it panics on length mismatch or an empty or
// non-positive weight vector, which are always construction bugs.
func NewMixture(components []Dist, weights []float64) *Mixture {
	if len(components) == 0 || len(components) != len(weights) {
		panic(fmt.Sprintf("workload: mixture with %d components, %d weights",
			len(components), len(weights)))
	}
	m := &Mixture{Components: components, Weights: weights}
	m.cum = make([]float64, len(weights))
	for i, w := range weights {
		if w < 0 {
			panic("workload: negative mixture weight")
		}
		m.total += w
		m.cum[i] = m.total
	}
	if m.total <= 0 {
		panic("workload: mixture weights sum to zero")
	}
	return m
}

// Sample implements Dist.
func (m *Mixture) Sample(r *sim.Source) float64 {
	u := r.Float64() * m.total
	i := sort.SearchFloat64s(m.cum, u)
	if i >= len(m.Components) {
		i = len(m.Components) - 1
	}
	return m.Components[i].Sample(r)
}

// Mean implements Dist.
func (m *Mixture) Mean() float64 {
	var mean float64
	for i, c := range m.Components {
		mean += m.Weights[i] / m.total * c.Mean()
	}
	return mean
}
