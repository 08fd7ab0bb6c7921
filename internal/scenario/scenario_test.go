package scenario

import (
	"bytes"
	"math"
	"testing"

	"dlm/internal/sim"
)

func TestValidateRejectsMalformedConfigs(t *testing.T) {
	ok := Partition(500, 1)
	if err := ok.Validate(); err != nil {
		t.Fatalf("pack scenario rejected: %v", err)
	}
	cases := []struct {
		name   string
		mutate func(*Config)
	}{
		{"no phases", func(c *Config) { c.Phases = nil }},
		{"zero-length phase", func(c *Config) { c.Phases[0].Len = 0 }},
		{"NaN phase length", func(c *Config) { c.Phases[0].Len = math.NaN() }},
		{"infinite join rate", func(c *Config) { c.Phases[0].ExtraJoinStart = math.Inf(1) }},
		{"NaN join rate", func(c *Config) { c.Phases[1].ExtraJoinEnd = math.NaN() }},
		{"negative wave amplitude", func(c *Config) { c.Phases[0].WaveAmplitude = -1 }},
		{"wave without period", func(c *Config) { c.Phases[0].WaveAmplitude = 5 }},
		{"kill fraction one", func(c *Config) { c.Phases[1].KillTopFraction = 1 }},
		{"negative kill fraction", func(c *Config) { c.Phases[1].KillTopFraction = -0.1 }},
		{"liar fraction above one", func(c *Config) { c.LiarFraction = 1.5 }},
		{"NaN liar factor", func(c *Config) { c.LiarFraction = 0.1; c.LiarCapFactor = math.NaN() }},
		{"negative defense", func(c *Config) { c.DefenseMaxCapacity = -1 }},
		{"lifetime wave amplitude one", func(c *Config) { c.LifetimeWaveAmplitude = 1 }},
		{"lifetime wave without period", func(c *Config) { c.LifetimeWaveAmplitude = 0.5 }},
		{"negative shards", func(c *Config) { c.Shards = -1 }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := Partition(500, 1)
			c.Phases = append([]Phase(nil), c.Phases...)
			tc.mutate(&c)
			if err := c.Validate(); err == nil {
				t.Error("malformed config validated")
			}
			if _, err := Run(c); err == nil {
				t.Error("driver ran a malformed config")
			}
		})
	}
}

func TestPackShapes(t *testing.T) {
	pack := Pack(1000, 7)
	if len(pack) != 6 {
		t.Fatalf("pack has %d scenarios, want 6", len(pack))
	}
	names := map[string]bool{}
	for _, c := range pack {
		if err := c.Validate(); err != nil {
			t.Errorf("%s: %v", c.Name, err)
		}
		if names[c.Name] {
			t.Errorf("duplicate scenario name %q", c.Name)
		}
		names[c.Name] = true
		if got := c.TotalLen(); got != packTotal {
			t.Errorf("%s: total length %g, want %d", c.Name, got, packTotal)
		}
	}
	for _, c := range Quick(1000, 7) {
		if err := c.Validate(); err != nil {
			t.Errorf("quick %s: %v", c.Name, err)
		}
		if got := c.TotalLen(); got >= packTotal/2 {
			t.Errorf("quick %s: total length %g not compressed", c.Name, got)
		}
	}
}

// TestScenarioShardDeterminism pins the core promise of the driver: a
// scenario's sampled trace — exact ratio bits and all structural
// counters — is byte-identical whether the tick's decision phase (and,
// since the event plane sharded, the same-timestamp delivery batches)
// runs serially or fanned across workers, including a count (7) that
// does not divide the 64 lanes.
func TestScenarioShardDeterminism(t *testing.T) {
	shardCounts := []int{1, 2, 4, 7}
	for _, cfg := range Quick(2000, 1) {
		cfg := cfg
		t.Run(cfg.Name, func(t *testing.T) {
			var base []byte
			for _, k := range shardCounts {
				c := cfg
				c.Shards = k
				res, err := Run(c)
				if err != nil {
					t.Fatalf("shards=%d: %v", k, err)
				}
				if len(res.Invariants) != 0 {
					t.Fatalf("shards=%d: invariant violations: %v", k, res.Invariants)
				}
				if k == 1 {
					base = res.Trace
					continue
				}
				if !bytes.Equal(res.Trace, base) {
					t.Errorf("trace differs between 1 and %d shards", k)
				}
			}
			if len(base) == 0 {
				t.Error("empty trace")
			}
		})
	}
}

// TestAdversarialSmoke is the CI smoke lane: the two cheapest pack
// scenarios at n=5000 on the compressed timeline, serial and with 4
// shards, every oracle checked. The adversarialsmoke lane runs this
// under -race.
func TestAdversarialSmoke(t *testing.T) {
	var eng *sim.Engine
	for _, cfg := range Quick(5000, 1) {
		for _, k := range []int{1, 4} {
			c := cfg
			c.Shards = k
			if eng == nil {
				eng = sim.NewEngine(c.Base.Seed)
			}
			res, err := RunOn(eng, c)
			if err != nil {
				t.Fatalf("%s shards=%d: %v", c.Name, k, err)
			}
			if len(res.Invariants) != 0 {
				t.Errorf("%s shards=%d: invariant violations: %v", c.Name, k, res.Invariants)
			}
			if !(res.Final.Ratio > 0) || math.IsInf(res.Final.Ratio, 0) {
				t.Errorf("%s shards=%d: final ratio %v", c.Name, k, res.Final.Ratio)
			}
			if res.Name == "masskill" && res.Killed == 0 {
				t.Errorf("%s: mass kill removed nobody", c.Name)
			}
			if res.Name == "partition" && res.PartitionDrops == 0 {
				t.Errorf("%s: partition dropped nothing", c.Name)
			}
		}
	}
}

// TestLiarCaptureAndDefense runs the misreporting scenario with an
// egregious 1000x capacity lie: without the defense the liars take a
// materially larger share of the super layer than with it.
func TestLiarCaptureAndDefense(t *testing.T) {
	run := func(defense float64) *Result {
		c := Liars(2000, 1)
		c.LiarCapFactor = 1000 // every lie lands far beyond the 4000 bound
		c.DefenseMaxCapacity = defense
		res, err := Run(c)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Invariants) != 0 {
			t.Fatalf("invariant violations: %v", res.Invariants)
		}
		return res
	}
	off := run(0)
	on := run(4000)
	if off.LiarPopPct < 5 || off.LiarPopPct > 15 {
		t.Errorf("liar population share %.1f%%, want about 10%%", off.LiarPopPct)
	}
	if off.LiarSuperPct <= off.LiarPopPct {
		t.Errorf("undefended liars did not capture the super layer: %.1f%% of supers vs %.1f%% of peers",
			off.LiarSuperPct, off.LiarPopPct)
	}
	if on.LiarSuperPct >= off.LiarSuperPct {
		t.Errorf("defense did not reduce capture: on %.1f%%, off %.1f%%",
			on.LiarSuperPct, off.LiarSuperPct)
	}
}

// TestDefenseTransparentEndToEnd: with no liars in the population the
// defense gates never fire, so a defended run's trace must be
// byte-identical to the undefended one — the whole-simulation version of
// the protocol-level transparency pin.
func TestDefenseTransparentEndToEnd(t *testing.T) {
	cfg := Quick(2000, 1)[0]
	off, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.DefenseMaxCapacity = 4000
	on, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(off.Trace, on.Trace) {
		t.Error("defense changed a liar-free run")
	}
}

// TestConvergenceOracle is the acceptance oracle: after a partition heals
// and after a flash crowd drains, an oracleN-peer network (10k in tier-1,
// 100k under -tags oracle) must return the layer ratio to within 4% of η,
// re-converge within the observed window, and tighten monotonically (late
// recovery envelope no worse than early). Structural invariants hold at
// every phase boundary.
func TestConvergenceOracle(t *testing.T) {
	if testing.Short() {
		t.Skip("full-timeline scenarios; skipped in -short")
	}
	if raceEnabled {
		t.Skip("full-timeline scenarios; skipped under -race (see adversarialsmoke lane)")
	}
	var eng *sim.Engine
	for _, cfg := range []Config{Partition(oracleN, 1), FlashCrowd(oracleN, 1)} {
		cfg := cfg
		t.Run(cfg.Name, func(t *testing.T) {
			if eng == nil {
				eng = sim.NewEngine(cfg.Base.Seed)
			}
			res, err := RunOn(eng, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Invariants) != 0 {
				t.Fatalf("invariant violations: %v", res.Invariants)
			}
			if res.PostErrPct > 4 {
				t.Errorf("post-disturbance ratio error %.2f%%, want <= 4%%", res.PostErrPct)
			}
			if math.IsInf(res.ReconvergeTime, 1) || math.IsNaN(res.ReconvergeTime) {
				t.Errorf("never re-converged (band %.1f%%)", res.BandPct)
			}
			if res.EnvelopeLate > res.EnvelopeEarly {
				t.Errorf("recovery envelope widened: early %.2f%%, late %.2f%%",
					res.EnvelopeEarly, res.EnvelopeLate)
			}
			if cfg.Name == "flashcrowd" {
				if res.ExtraJoins == 0 {
					t.Error("flash crowd injected no joins")
				}
				if res.PeakErrPct <= res.PostErrPct {
					t.Errorf("no visible disturbance: peak %.2f%% <= post %.2f%%",
						res.PeakErrPct, res.PostErrPct)
				}
			}
		})
	}
}
