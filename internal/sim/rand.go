package sim

import (
	"hash/fnv"
	"math"
	"math/rand"
)

// Source is a deterministic random source with support for derived named
// streams. Each named stream is seeded by mixing the parent seed with a
// hash of the name, so adding a new consumer of randomness does not perturb
// the sequences observed by existing consumers — a property that keeps
// regression baselines stable as the simulator grows.
type Source struct {
	seed int64
	rng  *rand.Rand
}

// NewSource returns a source seeded with seed.
func NewSource(seed int64) *Source {
	return &Source{seed: seed, rng: rand.New(rand.NewSource(mix64(seed)))}
}

// Seed returns the seed this source was created with.
func (s *Source) Seed() int64 { return s.seed }

// Stream derives an independent child source named name.
func (s *Source) Stream(name string) *Source {
	h := fnv.New64a()
	h.Write([]byte(name))
	child := s.seed ^ int64(h.Sum64())
	return NewSource(child)
}

// StreamN derives an independent child source from an integer label, for
// per-peer or per-trial streams.
func (s *Source) StreamN(n int64) *Source {
	return NewSource(s.seed ^ mix64(n^int64(0x6a09e667f3bcc909)))
}

// mix64 is a SplitMix64 finalizer; it decorrelates nearby seeds.
func mix64(v int64) int64 {
	z := uint64(v) + 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	return int64(z)
}

// Float64 returns a uniform draw in [0,1).
func (s *Source) Float64() float64 { return s.rng.Float64() }

// Intn returns a uniform draw in [0,n). It panics when n <= 0.
func (s *Source) Intn(n int) int { return s.rng.Intn(n) }

// Shuffle pseudo-randomizes the order of n elements via swap.
func (s *Source) Shuffle(n int, swap func(i, j int)) { s.rng.Shuffle(n, swap) }

// ExpFloat64 returns an exponential draw with mean 1.
func (s *Source) ExpFloat64() float64 { return s.rng.ExpFloat64() }

// Uniform returns a uniform draw in [lo, hi).
func (s *Source) Uniform(lo, hi float64) float64 {
	return lo + (hi-lo)*s.rng.Float64()
}

// Lognormal returns a draw from a lognormal distribution parameterized by
// the mean and sigma of the underlying normal.
func (s *Source) Lognormal(mu, sigma float64) float64 {
	return math.Exp(mu + sigma*s.rng.NormFloat64())
}

// BoundedPareto returns a Pareto(alpha) draw truncated to [lo, hi] by
// inverse-CDF sampling, avoiding the unbounded tail of the plain Pareto.
func (s *Source) BoundedPareto(lo, hi, alpha float64) float64 {
	if lo >= hi {
		return lo
	}
	u := s.rng.Float64()
	la := math.Pow(lo, alpha)
	ha := math.Pow(hi, alpha)
	x := math.Pow(-(u*ha-u*la-ha)/(ha*la), -1/alpha)
	return math.Min(math.Max(x, lo), hi)
}

// Exponential returns an exponential draw with the given mean.
func (s *Source) Exponential(mean float64) float64 {
	return mean * s.rng.ExpFloat64()
}
