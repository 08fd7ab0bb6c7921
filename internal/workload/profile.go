package workload

import "dlm/internal/sim"

// PeerSample is the immutable stochastic endowment of one joining peer.
type PeerSample struct {
	// Capacity abstracts the peer's ability to process and relay queries
	// (the paper uses bandwidth in KB/s as the single capacity metric).
	Capacity float64
	// Lifetime is the session length in time units; the peer leaves the
	// network when its age reaches this value.
	Lifetime float64
	// Objects is the number of content objects the peer shares.
	Objects int
}

// Profile generates peer endowments. Implementations may vary over virtual
// time (regime schedules).
type Profile interface {
	// NewPeer draws the endowment of a peer joining at time now.
	NewPeer(now sim.Time, r *sim.Source) PeerSample
}

// StaticProfile draws every peer from fixed distributions.
type StaticProfile struct {
	Capacity Dist
	Lifetime Dist
	// ObjectsPerPeer is the distribution of the number of shared objects;
	// draws are truncated at zero and rounded.
	ObjectsPerPeer Dist
}

// NewPeer implements Profile.
func (p *StaticProfile) NewPeer(_ sim.Time, r *sim.Source) PeerSample {
	return PeerSample{
		Capacity: p.Capacity.Sample(r),
		Lifetime: p.Lifetime.Sample(r),
		Objects:  sampleCount(p.ObjectsPerPeer, r),
	}
}

func sampleCount(d Dist, r *sim.Source) int {
	if d == nil {
		return 0
	}
	v := d.Sample(r)
	if v < 0 {
		return 0
	}
	return int(v + 0.5)
}

// BandwidthClass is one rung of the measured last-mile bandwidth mix.
type BandwidthClass struct {
	Name   string
	Weight float64
	// Dist generates capacities in KB/s within the class.
	Dist Dist
}

// SaroiuBandwidthMixture reproduces the bandwidth mix reported by the
// Gnutella/Napster measurement study the paper calibrates against:
// a large population of dial-up and broadband consumer links with a thin
// high-capacity tail of campus/backbone peers.
func SaroiuBandwidthMixture() *Mixture {
	classes := []BandwidthClass{
		{Name: "modem", Weight: 0.25, Dist: Uniform{Lo: 2, Hi: 8}},
		{Name: "dsl", Weight: 0.40, Dist: Uniform{Lo: 8, Hi: 48}},
		{Name: "cable", Weight: 0.25, Dist: Uniform{Lo: 48, Hi: 160}},
		{Name: "t1", Weight: 0.08, Dist: Uniform{Lo: 160, Hi: 800}},
		{Name: "t3+", Weight: 0.02, Dist: Uniform{Lo: 800, Hi: 4000}},
	}
	dists := make([]Dist, len(classes))
	weights := make([]float64, len(classes))
	for i, c := range classes {
		dists[i], weights[i] = c.Dist, c.Weight
	}
	return NewMixture(dists, weights)
}

// DefaultObjects is the per-peer shared-object count distribution; the
// measurement studies report most peers sharing few files with a heavy
// tail of large sharers (and a significant free-rider population modeled
// by the low end of the bounded Pareto).
func DefaultObjects() Dist { return BoundedPareto{Lo: 1, Hi: 1000, Alpha: 0.8} }
