package workload

import (
	"math"
	"sort"
	"testing"

	"dlm/internal/sim"
)

// Statistical acceptance tests for the workload generators: each pins a
// seed (the draws are deterministic, so these are regression tests with
// statistically-derived tolerances, not flaky sampling tests) and checks
// the generator against the quantity the paper's calibration cites — the
// one-hour median session, the Zipf-like popularity exponent, and the
// measured bandwidth-class proportions.

// TestLifetimeEmpiricalMedian checks the order statistic itself: the
// sample median of the session-length distribution must sit within 5% of
// the configured 60-minute median.
func TestLifetimeEmpiricalMedian(t *testing.T) {
	d := LognormalWithMedian(60, 1.2) // Table 2's session-length fit
	r := sim.NewSource(101)
	const n = 100001
	samples := make([]float64, n)
	for i := range samples {
		samples[i] = d.Sample(r)
	}
	sort.Float64s(samples)
	median := samples[n/2]
	if math.Abs(median-60)/60 > 0.05 {
		t.Fatalf("empirical median = %.2f, want within 5%% of 60", median)
	}
}

// TestZipfRankFrequencySlope fits the log-log rank-frequency line over
// the head of a Zipf(0.8) sample and checks the slope recovers the
// exponent: log f(k) = c − s·log k, so the least-squares slope over the
// first 100 ranks must be ≈ −0.8.
func TestZipfRankFrequencySlope(t *testing.T) {
	const (
		support = 1000
		s       = 0.8
		n       = 500000
		head    = 100
	)
	z := NewZipf(support, s)
	r := sim.NewSource(103)
	counts := make([]int, support)
	for i := 0; i < n; i++ {
		counts[z.Rank(r)]++
	}
	// Least squares of y = log(count) on x = log(rank+1) over the head,
	// where every rank has enough mass for a stable log.
	var sx, sy, sxx, sxy float64
	for k := 0; k < head; k++ {
		if counts[k] == 0 {
			t.Fatalf("head rank %d unsampled after %d draws", k, n)
		}
		x := math.Log(float64(k + 1))
		y := math.Log(float64(counts[k]))
		sx += x
		sy += y
		sxx += x * x
		sxy += x * y
	}
	slope := (float64(head)*sxy - sx*sy) / (float64(head)*sxx - sx*sx)
	if math.Abs(slope-(-s)) > 0.05 {
		t.Fatalf("rank-frequency slope = %.3f, want %.3f±0.05", slope, -s)
	}
}

// TestSaroiuClassProportions runs a χ²-style goodness-of-fit check of the
// realized bandwidth-class shares against the configured mixture weights.
// The class supports are disjoint, so the sampled value identifies its
// class. With df = 4 the 99.9th percentile of χ² is 18.47; the pinned
// seed makes the statistic deterministic, so exceeding the bound means
// the mixture weights or supports changed, not bad luck.
func TestSaroiuClassProportions(t *testing.T) {
	classes := []struct {
		name   string
		lo, hi float64
		weight float64
	}{
		{"modem", 2, 8, 0.25},
		{"dsl", 8, 48, 0.40},
		{"cable", 48, 160, 0.25},
		{"t1", 160, 800, 0.08},
		{"t3+", 800, 4000, 0.02},
	}
	m := SaroiuBandwidthMixture()
	r := sim.NewSource(107)
	const n = 100000
	obs := make([]int, len(classes))
	for i := 0; i < n; i++ {
		v := m.Sample(r)
		found := false
		for ci, c := range classes {
			if v >= c.lo && v < c.hi {
				obs[ci]++
				found = true
				break
			}
		}
		if !found {
			t.Fatalf("sample %v outside every class support", v)
		}
	}
	chi2 := 0.0
	for ci, c := range classes {
		exp := c.weight * n
		d := float64(obs[ci]) - exp
		chi2 += d * d / exp
	}
	if chi2 > 18.47 {
		t.Fatalf("χ² = %.2f over 18.47 (df=4, p=0.001); class counts %v", chi2, obs)
	}
}
