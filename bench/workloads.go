package main

import (
	"dlm/internal/config"
	"dlm/internal/experiments"
	"dlm/internal/overlay"
)

// workloadDef is one benchmark input: a closed-form batch run of the full DLM
// stack at core.DefaultParams(). Every field is a function of (name, seed,
// shrink) only; why each workload exists is in BENCHMARK.json.
type workloadDef struct {
	name string
	// trials is the number of independent runs in the timed batch, fanned
	// over min(trials, procs) workers when there is more than one.
	trials int
	// config builds the run for one trial seed at population n.
	n      int
	config func(n int, seed int64) experiments.RunConfig
}

// scaled returns config.Scaled(n) at the given seed, length and counter
// warm-up, sampled every 10 time units.
func scaled(n int, seed int64, duration, warmup float64) config.Scenario {
	sc := config.Scaled(n)
	sc.Seed = seed
	sc.Duration = duration
	sc.Warmup = warmup
	sc.SampleEvery = 10
	return sc
}

// slowStart is scaled with the population arriving over the first 100 time
// units instead of Scaled's 10. At Scaled's rate a cold start promotes 40
// to 50 % of a large population (which of the two, the seed decides by
// t=20), holds them through the 100-unit demotion cooldown and then
// oscillates for longer than a run here may last, so the last-quarter
// statistics fall wherever the seed put the phase: over ten seeds at
// N=100000, Duration 400, cap_sep_x reads 2.4 to 4.4. At this rate the
// super layer peaks at twice its target and every seed tried is within a
// quarter of it by t=300 (README.md, "Steadiness").
func slowStart(n int, seed int64, duration, warmup float64) config.Scenario {
	sc := scaled(n, seed, duration, warmup)
	sc.GrowthRate = n/100 + 1
	return sc
}

// lossyLink is experiments/robustness.go's adverse link at 5 % loss.
var lossyLink = overlay.Link{
	Loss:          0.05,
	Dup:           0.01,
	JitterMin:     0.01,
	JitterMode:    0.05,
	JitterMax:     0.2,
	ReorderWindow: 0.5,
}

// workloads is the benchmark's input set, in BENCHMARK.json's order.
var workloads = []workloadDef{
	{
		// config.Scaled(2000) as it is: the path every sweep takes.
		name:   "paper2k",
		trials: 48,
		n:      2000,
		config: func(n int, seed int64) experiments.RunConfig {
			sc := config.Scaled(n)
			sc.Seed = seed
			return experiments.RunConfig{Scenario: sc, Shards: 1}
		},
	},
	{
		name:   "steady100k",
		trials: 1,
		n:      100000,
		config: func(n int, seed int64) experiments.RunConfig {
			return experiments.RunConfig{Scenario: slowStart(n, seed, 300, 100)}
		},
	},
	{
		// Scaled's own arrival rate: at 12x the turnover the cold start is
		// forgotten within a few lifetimes, whatever the seed.
		name:   "churn50k",
		trials: 1,
		n:      50000,
		config: func(n int, seed int64) experiments.RunConfig {
			sc := scaled(n, seed, 150, 50)
			sc.LifetimeMedian = 5
			return experiments.RunConfig{Scenario: sc}
		},
	},
	{
		name:   "latency30k",
		trials: 1,
		n:      30000,
		config: func(n int, seed int64) experiments.RunConfig {
			return experiments.RunConfig{Scenario: slowStart(n, seed, 300, 100), Latency: 0.05}
		},
	},
	{
		name:   "lossy30k",
		trials: 1,
		n:      30000,
		config: func(n int, seed int64) experiments.RunConfig {
			return experiments.RunConfig{Scenario: slowStart(n, seed, 300, 100), Latency: 0.05, Link: lossyLink}
		},
	},
	{
		// Two trials, not one: a 20000-peer run has some 500 supers, a
		// fifth of their capacity sits in the two dozen T3-class peers
		// among them, and one trial's cap_sep_x spreads by 21 % across
		// seeds; the mean of two by 15 %.
		name:   "search20k",
		trials: 2,
		n:      20000,
		config: func(n int, seed int64) experiments.RunConfig {
			sc := slowStart(n, seed, 400, 100)
			sc.QueryRate = 25
			return experiments.RunConfig{Scenario: sc, Queries: true, Shards: 1}
		},
	},
}

// findWorkload returns the named workload, shrunk by the given divisor
// (tests run at 1/50 size): populations divide, down to 400 peers at the
// least, and a trial batch keeps two trials.
func findWorkload(name string, shrink int) (workloadDef, bool) {
	for _, w := range workloads {
		if w.name != name {
			continue
		}
		if shrink > 1 {
			w.trials = min(w.trials, 2)
			w.n = max(w.n/shrink, 400)
		}
		return w, true
	}
	return workloadDef{}, false
}

// trialSeed is the seed of trial i of a batch: the run seed itself for a
// single trial, seed*1000+i for a batch.
func (w workloadDef) trialSeed(seed int64, i int) int64 {
	if w.trials == 1 {
		return seed
	}
	return seed*1000 + int64(i)
}

// peerUnits is the batch's simulated work: trials x N x Duration.
func (w workloadDef) peerUnits() float64 {
	sc := w.config(w.n, 1).Scenario
	return float64(w.trials) * float64(sc.N) * sc.Duration
}
