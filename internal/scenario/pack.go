package scenario

import (
	"math"

	"dlm/internal/config"
)

// The pack timeline: every scenario settles for settleLen units, fires
// its disturbance at settleLen, and is observed until packTotal so the
// recovery tail is measured well after the disturbance cleared.
const (
	settleLen = 600
	packTotal = 1100
)

// packDefense is the bounded-sanity capacity limit used by the defended
// liar scenario: the Saroiu bandwidth mixture tops out at 4000 KB/s, so
// any larger claim is physically implausible and a defense at exactly
// that edge rejects no honest peer.
const packDefense = 4000

// SteadyJoinRate returns the equilibrium join (= leave) rate of an
// n-peer population under the Table 2 lifetime distribution
// (lognormal, median 60, σ=1.2): n peers divided by the mean lifetime
// 60·exp(1.2²/2).
func SteadyJoinRate(n int) float64 {
	meanLifetime := 60 * math.Exp(1.2*1.2/2)
	return float64(n) / meanLifetime
}

// base builds the shared population scaffold for an n-peer scenario.
func base(name string, n int, seed int64) Config {
	sc := config.Scaled(n)
	sc.Seed = seed
	return Config{Name: name, Base: sc}
}

// FlashCrowd is a 10× join-rate spike: for 10 units the network absorbs
// nine extra steady-rates of fresh leaves on top of replacement churn,
// then the spike decays linearly over 20 units and the crowd drains away
// through its own (unreplaced) departures.
func FlashCrowd(n int, seed int64) Config {
	r := SteadyJoinRate(n)
	c := base("flashcrowd", n, seed)
	c.Phases = []Phase{
		{Name: "settle", Len: settleLen},
		{Name: "spike", Len: 10, ExtraJoinStart: 9 * r, ExtraJoinEnd: 9 * r, Disturbed: true},
		{Name: "decay", Len: 20, ExtraJoinStart: 9 * r, ExtraJoinEnd: 0, Disturbed: true},
		{Name: "recover", Len: packTotal - settleLen - 30},
	}
	return c
}

// Diurnal superimposes sinusoidal join waves (amplitude half the steady
// rate, period 100) and modulates session lengths with the same period —
// the day/night churn pattern — for 300 units.
func Diurnal(n int, seed int64) Config {
	r := SteadyJoinRate(n)
	c := base("diurnal", n, seed)
	c.LifetimeWaveAmplitude = 0.5
	c.LifetimeWavePeriod = 100
	c.Phases = []Phase{
		{Name: "settle", Len: settleLen},
		{Name: "waves", Len: 300, WaveAmplitude: 0.5 * r, WavePeriod: 100, Disturbed: true},
		{Name: "recover", Len: packTotal - settleLen - 300},
	}
	return c
}

// Partition bisects link delivery by peer-ID parity for 80 units — long
// enough for the leaves' related sets to prune cross-side entries — then
// heals.
func Partition(n int, seed int64) Config {
	c := base("partition", n, seed)
	c.Phases = []Phase{
		{Name: "settle", Len: settleLen},
		{Name: "split", Len: 80, Partition: true, Disturbed: true},
		{Name: "heal", Len: packTotal - settleLen - 80},
	}
	return c
}

// Liars makes 10% of all joiners misreport 100× capacity and +300 age,
// with no defense: the capture measurement LiarSuperPct shows how much
// of the super layer the liars take.
func Liars(n int, seed int64) Config {
	c := base("liars", n, seed)
	c.LiarFraction = 0.10
	c.LiarCapFactor = 100
	c.LiarAgeBoost = 300
	c.Phases = []Phase{
		{Name: "steady", Len: packTotal},
	}
	return c
}

// LiarsDefended is Liars with the protocol's bounded-sanity defense at
// the capacity distribution's physical maximum; comparing its
// LiarSuperPct against Liars' quantifies what the defense buys.
func LiarsDefended(n int, seed int64) Config {
	c := Liars(n, seed)
	c.Name = "liars+defense"
	c.DefenseMaxCapacity = packDefense
	return c
}

// MassKill removes the top half of the super layer (by capacity) in a
// single tick — a correlated infrastructure failure — and watches the
// promotion machinery rebuild it.
func MassKill(n int, seed int64) Config {
	c := base("masskill", n, seed)
	c.Phases = []Phase{
		{Name: "settle", Len: settleLen},
		{Name: "kill", Len: 10, KillTopFraction: 0.5, Disturbed: true},
		{Name: "rebuild", Len: packTotal - settleLen - 10},
	}
	return c
}

// Pack returns the full adversarial battery for an n-peer population.
func Pack(n int, seed int64) []Config {
	return []Config{
		FlashCrowd(n, seed),
		Diurnal(n, seed),
		Partition(n, seed),
		Liars(n, seed),
		LiarsDefended(n, seed),
		MassKill(n, seed),
	}
}

// Quick returns the two cheapest scenarios on a compressed timeline for
// CI smoke: partition and mass-kill add no extra joins, so their cost is
// just the base population, and a 200-unit settle is enough for the
// oracles (structural invariants, trace determinism) they smoke-test.
func Quick(n int, seed int64) []Config {
	shorten := func(c Config) Config {
		c.Phases = append([]Phase(nil), c.Phases...)
		c.Phases[0].Len = 200               // settle
		c.Phases[len(c.Phases)-1].Len = 150 // tail
		if ws := &c.Phases[1]; ws.Len > 40 && ws.Partition {
			ws.Len = 40
		}
		return c
	}
	return []Config{
		shorten(Partition(n, seed)),
		shorten(MassKill(n, seed)),
	}
}
