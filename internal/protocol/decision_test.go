package protocol

import (
	"math"
	"testing"
	"testing/quick"

	"dlm/internal/msg"
)

func TestParamsValidateRejectsBadValues(t *testing.T) {
	mutations := map[string]func(*Params){
		"negative lambda":                        func(p *Params) { p.LambdaCapa = -1 },
		"bad MaxRelatedSet":                      func(p *Params) { p.MaxRelatedSet = -1 },
		"bad EvalProb":                           func(p *Params) { p.EvalProbability = 0 },
		"negative cooldown":                      func(p *Params) { p.DecisionCooldown = -1 },
		"bad smoothing":                          func(p *Params) { p.LnnSmoothing = 2 },
		"negative retries":                       func(p *Params) { p.MaxRetries = -1 },
		"retries past the pending row's counter": func(p *Params) { p.MaxRetries = math.MaxUint16 + 1 },
		"periodic no intvl":                      func(p *Params) { p.Exchange = Periodic; p.PeriodicInterval = 0 },
		"zero RateGain":                          func(p *Params) { p.RateGain = 0 },
		"negative RateGain":                      func(p *Params) { p.RateGain = -1 },
	}
	for name, mutate := range mutations {
		p := DefaultParams()
		mutate(&p)
		if err := p.Validate(); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	// The gain only means something while the rate limit is on.
	p := DefaultParams()
	p.RateLimit, p.RateGain = false, 0
	if err := p.Validate(); err != nil {
		t.Errorf("zero RateGain with RateLimit off: %v", err)
	}
}

func TestExchangePolicyString(t *testing.T) {
	if EventDriven.String() != "event-driven" || Periodic.String() != "periodic" {
		t.Fatal("policy names wrong")
	}
	if ExchangePolicy(9).String() != "policy(9)" {
		t.Fatal("unknown policy name wrong")
	}
}

func TestMu(t *testing.T) {
	p := DefaultParams()
	if mu := p.Mu(80, 80); mu != 0 {
		t.Errorf("Mu(kl,kl) = %v, want 0", mu)
	}
	if mu := p.Mu(160, 80); math.Abs(mu-math.Log(2)) > 1e-12 {
		t.Errorf("Mu(2kl,kl) = %v, want ln 2", mu)
	}
	if mu := p.Mu(40, 80); math.Abs(mu+math.Log(2)) > 1e-12 {
		t.Errorf("Mu(kl/2,kl) = %v, want -ln 2", mu)
	}
	// Clamping.
	if mu := p.Mu(1e9, 1); mu != muMax {
		t.Errorf("huge skew mu = %v, want clamp %v", mu, muMax)
	}
	if mu := p.Mu(1e-9, 1); mu != -muMax {
		t.Errorf("tiny skew mu = %v, want clamp %v", mu, -muMax)
	}
	// Degenerate inputs read as "too many supers".
	if mu := p.Mu(0, 80); mu != -muMax {
		t.Errorf("Mu(0,kl) = %v", mu)
	}
}

func TestScaleDirections(t *testing.T) {
	p := DefaultParams()
	xc0, xa0 := p.ScaleFor(0)
	if xc0 != 1 || xa0 != 1 {
		t.Fatalf("X at mu=0 is (%v,%v), want (1,1)", xc0, xa0)
	}
	xcPos, _ := p.ScaleFor(1)
	xcNeg, _ := p.ScaleFor(-1)
	if !(xcPos < 1 && xcNeg > 1) {
		t.Fatalf("X directions wrong: X(+1)=%v X(-1)=%v", xcPos, xcNeg)
	}
}

func TestThresholdDirections(t *testing.T) {
	p := DefaultParams()
	// μ>0 (need supers): promotion easier (higher Zp), demotion harder
	// (higher Zd). μ<0: the reverse. Both metrics' thresholds move in the
	// same direction; the age channel moves faster (it carries the
	// ratio-control response).
	for _, z := range []func(float64) float64{p.ZPromoteCapa, p.ZPromoteAge, p.ZDemoteCapa, p.ZDemoteAge} {
		if !(z(1) > z(0) && z(0) > z(-1)) {
			t.Error("threshold not increasing in mu")
		}
	}
	// Probe inside the clamp region: at large μ both thresholds saturate.
	if !(p.ZPromoteAge(0.1)-p.ZPromoteAge(0) > p.ZPromoteCapa(0.1)-p.ZPromoteCapa(0)) {
		t.Error("age threshold should respond faster than capacity threshold")
	}
	// Clamps hold at extremes.
	if z := p.ZPromoteAge(100); z != zMax {
		t.Errorf("ZPromoteAge clamp: %v", z)
	}
	if z := p.ZDemoteAge(-100); z != zMin {
		t.Errorf("ZDemoteAge clamp: %v", z)
	}
}

// Property: X and Z are monotone in μ and always inside their clamps.
func TestControllerMonotoneProperty(t *testing.T) {
	p := DefaultParams()
	f := func(aRaw, bRaw int16) bool {
		a := float64(aRaw) / 1000
		b := float64(bRaw) / 1000
		if a > b {
			a, b = b, a
		}
		xcA, xaA := p.ScaleFor(a)
		xcB, xaB := p.ScaleFor(b)
		if xcA < xcB-1e-12 || xaA < xaB-1e-12 {
			return false // X must be non-increasing in mu
		}
		for _, x := range []float64{xcA, xaA, xcB, xaB} {
			if x < xMin || x > xMax {
				return false
			}
		}
		if p.ZPromoteAge(a) > p.ZPromoteAge(b)+1e-12 || p.ZDemoteAge(a) > p.ZDemoteAge(b)+1e-12 ||
			p.ZPromoteCapa(a) > p.ZPromoteCapa(b)+1e-12 || p.ZDemoteCapa(a) > p.ZDemoteCapa(b)+1e-12 {
			return false // Z must be non-decreasing in mu
		}
		for _, z := range []float64{p.ZPromoteAge(a), p.ZDemoteAge(b), p.ZPromoteCapa(a), p.ZDemoteCapa(b)} {
			if z < zMin || z > zMax {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestCountingMatchesPaperPseudocode(t *testing.T) {
	p := DefaultParams()
	now := Time(100)
	ma := NewMachine(&p, 0)
	// Three entries: capacities 10, 20, 30; ages 10, 20, 30.
	for i, c := range []float64{10, 20, 30} {
		ma.observe(uintID(i), c, c, now, 0)
	}
	// Self: capacity 20, age 20, X = 1.
	yc, ya := ma.counting(20, 20, now, 1, 1)
	if math.Abs(yc-1.0/3) > 1e-12 || math.Abs(ya-1.0/3) > 1e-12 {
		t.Fatalf("Y = (%v,%v), want (1/3,1/3)", yc, ya)
	}
	// X = 2 doubles everyone else's metrics: 20,40,60 vs self 20 -> 2/3.
	yc, ya = ma.counting(20, 20, now, 2, 2)
	if math.Abs(yc-2.0/3) > 1e-12 || math.Abs(ya-2.0/3) > 1e-12 {
		t.Fatalf("scaled Y = (%v,%v), want (2/3,2/3)", yc, ya)
	}
	// Empty set.
	empty := NewMachine(&p, 0)
	if yc, ya := empty.counting(1, 1, now, 1, 1); yc != 0 || ya != 0 {
		t.Fatal("empty set should give zero counters")
	}
}

func TestAgeExtrapolation(t *testing.T) {
	p := DefaultParams()
	ma := NewMachine(&p, 0)
	// Observed at t=50 with age 20 -> joined at t=30.
	ma.observe(7, 100, 20, 50, 0)
	if _, age, ok := ma.Related(7, 80); !ok || age != 50 {
		t.Fatalf("extrapolated age = %v,%v, want 50,true", age, ok)
	}
}

const klMu0 = 20 // any matching lnn=kl pair gives mu=0

// decide is decideInto returning its Decision.
func decide(ma *Machine, capacity, age float64, now Time, lnn, kl float64, promote bool) Decision {
	var d Decision
	ma.decideInto(&d, capacity, age, now, lnn, kl, promote)
	return d
}

func TestDecideConditions(t *testing.T) {
	p := DefaultParams()
	now := Time(100)

	// A strong leaf among weak supers must promote at mu=0.
	ma := NewMachine(&p, 0)
	for i := 0; i < 10; i++ {
		ma.observe(uintID(i), 10, 10, now, 0)
	}
	d := decide(ma, 100, 100, now, klMu0, klMu0, true)
	if !d.ShouldSwitch {
		t.Fatalf("strong leaf not promoted: %+v", d)
	}
	// A weak leaf must not promote.
	d = decide(ma, 1, 1, now, klMu0, klMu0, true)
	if d.ShouldSwitch {
		t.Fatalf("weak leaf promoted: %+v", d)
	}
	// A weak super among strong leaves must demote at mu=0.
	maS := NewMachine(&p, 0)
	for i := 0; i < 10; i++ {
		maS.observe(uintID(i), 100, 100, now, 0)
	}
	d = decide(maS, 1, 1, now, klMu0, klMu0, false)
	if !d.ShouldSwitch {
		t.Fatalf("weak super not demoted: %+v", d)
	}
	// A strong super must stay.
	d = decide(maS, 1000, 1000, now, klMu0, klMu0, false)
	if d.ShouldSwitch {
		t.Fatalf("strong super demoted: %+v", d)
	}
}

// TestScaledComparisonOvercomesRank reproduces the paper's motivating
// scenario for scaled comparison: the system needs more super-peers but
// every leaf is weaker than every super. Direct comparison would block
// all promotions; the scaled comparison must let the leaf through.
func TestScaledComparisonOvercomesRank(t *testing.T) {
	p := DefaultParams()
	now := Time(100)
	ma := NewMachine(&p, 0)
	// Supers all moderately stronger than the leaf (ratio 1.5 on both
	// metrics).
	for i := 0; i < 10; i++ {
		ma.observe(uintID(i), 15, 15, now, 0)
	}
	// Direct comparison at mu=0: Y=1 -> no promotion.
	d := decide(ma, 10, 10, now, 20, 20, true)
	if d.ShouldSwitch {
		t.Fatal("promotion should fail at mu=0 for a weaker leaf")
	}
	// Strong shortage (lnn far above kl -> mu at clamp): X shrinks the
	// supers' metrics enough for the leaf to win.
	d = decide(ma, 10, 10, now, 20*math.E*math.E, 20, true)
	if d.XCapa >= 1 {
		t.Fatalf("X should shrink under shortage, got %v", d.XCapa)
	}
	if !d.ShouldSwitch {
		t.Fatalf("scaled comparison failed to promote under shortage: %+v", d)
	}
}

func uintID(i int) msg.PeerID { return msg.PeerID(1000 + i) }

// candidate and evaluateStandalone are the reference the machine-backed
// path is checked against: Phases 2-4 on explicit inputs — self against
// an explicit related set, with the observed l_nn and the constant k_l.
type candidate struct {
	Capacity float64
	Age      float64
}

func (p *Params) evaluateStandalone(self candidate, related []candidate, lnn, kl float64, promote bool) Decision {
	var d Decision
	d.Mu, d.XCapa, d.XAge = p.MuScale(lnn, kl)
	n := float64(len(related))
	for _, r := range related {
		if r.Capacity*d.XCapa > self.Capacity {
			d.YCapa += 1 / n
		}
		if r.Age*d.XAge > self.Age {
			d.YAge += 1 / n
		}
	}
	p.applyThresholds(&d, promote)
	return d
}

func TestEvaluateStandaloneMatchesDecide(t *testing.T) {
	p := DefaultParams()
	related := []candidate{
		{Capacity: 10, Age: 50},
		{Capacity: 100, Age: 200},
		{Capacity: 40, Age: 120},
	}
	self := candidate{Capacity: 60, Age: 150}
	d := p.evaluateStandalone(self, related, 30, 20, true)
	// Replicate through the machine path.
	now := Time(1000)
	ma := NewMachine(&p, 0)
	for i, r := range related {
		ma.observe(uintID(i), r.Capacity, r.Age, now, 0)
	}
	d2 := decide(ma, self.Capacity, self.Age, now, 30, 20, true)
	if d != d2 {
		t.Fatalf("standalone and machine-backed decisions diverge:\n%+v\n%+v", d, d2)
	}
	// Empty related set: counters zero, decision from thresholds alone.
	d = p.evaluateStandalone(self, nil, 30, 20, true)
	if d.YCapa != 0 || d.YAge != 0 {
		t.Fatalf("empty set counters %v/%v", d.YCapa, d.YAge)
	}
}

func TestSwitchProbability(t *testing.T) {
	p := DefaultParams()
	p.SelectionSharpness = 0
	// Balanced network: no switching either way.
	if got := p.SwitchProbability(20, 20, 10, 0, true); got != 0 {
		t.Fatalf("promote prob at r=1: %v", got)
	}
	if got := p.SwitchProbability(20, 20, 10, 0, false); got != 0 {
		t.Fatalf("demote prob at r=1: %v", got)
	}
	// Shortage: promotion probability positive, demotion zero.
	pp := p.SwitchProbability(30, 20, 10, 0, true)
	if !(pp > 0 && pp <= 1) {
		t.Fatalf("promote prob at r=1.5: %v", pp)
	}
	if got := p.SwitchProbability(30, 20, 10, 0, false); got != 0 {
		t.Fatalf("demote prob at r=1.5: %v", got)
	}
	// Surplus: the reverse.
	if got := p.SwitchProbability(10, 20, 10, 0, true); got != 0 {
		t.Fatalf("promote prob at r=0.5: %v", got)
	}
	if got := p.SwitchProbability(10, 20, 10, 0, false); got <= 0 {
		t.Fatalf("demote prob at r=0.5: %v", got)
	}
	// Rate limit off: always 1.
	p.RateLimit = false
	if got := p.SwitchProbability(20, 20, 10, 0.5, true); got != 1 {
		t.Fatalf("ratelimit off prob: %v", got)
	}
}

func TestSwitchProbabilitySelectionWeighting(t *testing.T) {
	p := DefaultParams() // sharpness 2
	// A leaf that beats all its supers (Y_capa=0) must switch with a
	// higher probability than a marginal one (Y_capa=0.6).
	strong := p.SwitchProbability(30, 20, 10, 0, true)
	weak := p.SwitchProbability(30, 20, 10, 0.6, true)
	if !(strong > weak) {
		t.Fatalf("selection weighting inverted: strong %v vs weak %v", strong, weak)
	}
	// Demotion is the mirror: the weakest super (high Y_capa) goes first.
	weakSuper := p.SwitchProbability(10, 20, 10, 0.9, false)
	strongSuper := p.SwitchProbability(10, 20, 10, 0.1, false)
	if !(weakSuper > strongSuper) {
		t.Fatalf("demote weighting inverted: %v vs %v", weakSuper, strongSuper)
	}
}
