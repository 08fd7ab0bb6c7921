package workload

import (
	"math"
	"testing"
	"testing/quick"

	"dlm/internal/sim"
)

func approx(t *testing.T, name string, got, want, tol float64) {
	t.Helper()
	if math.Abs(got-want) > tol {
		t.Errorf("%s = %.4f, want %.4f±%.4f", name, got, want, tol)
	}
}

func empiricalMean(d Dist, n int, seed int64) float64 {
	r := sim.NewSource(seed)
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += d.Sample(r)
	}
	return sum / float64(n)
}

func TestAnalyticMeansMatchEmpirical(t *testing.T) {
	cases := []struct {
		name string
		d    Dist
		tol  float64
	}{
		{"constant", Constant(7), 0},
		{"uniform", Uniform{Lo: 2, Hi: 10}, 0.05},
		{"exponential", Exponential{MeanVal: 3}, 0.05},
		{"lognormal", Lognormal{Mu: 1, Sigma: 0.5}, 0.05},
		{"boundedpareto", BoundedPareto{Lo: 1, Hi: 100, Alpha: 1.5}, 0.05},
		{"scaled", Scaled{Base: Uniform{Lo: 0, Hi: 2}, Factor: 3}, 0.05},
	}
	for _, c := range cases {
		got := empiricalMean(c.d, 300000, 11)
		approx(t, c.name+" empirical mean", got, c.d.Mean(), c.tol*math.Max(1, c.d.Mean()))
	}
}

func TestMixtureMeanAndSupport(t *testing.T) {
	m := NewMixture(
		[]Dist{Constant(1), Constant(10)},
		[]float64{3, 1},
	)
	approx(t, "mixture mean", m.Mean(), (3*1+1*10)/4.0, 1e-12)
	r := sim.NewSource(5)
	ones, tens := 0, 0
	for i := 0; i < 100000; i++ {
		switch m.Sample(r) {
		case 1:
			ones++
		case 10:
			tens++
		default:
			t.Fatal("mixture produced value outside components")
		}
	}
	approx(t, "component 0 frequency", float64(ones)/100000, 0.75, 0.01)
	_ = tens
}

func TestMixtureConstructionPanics(t *testing.T) {
	for name, f := range map[string]func(){
		"empty":    func() { NewMixture(nil, nil) },
		"mismatch": func() { NewMixture([]Dist{Constant(1)}, []float64{1, 2}) },
		"negative": func() { NewMixture([]Dist{Constant(1)}, []float64{-1}) },
		"zero-sum": func() { NewMixture([]Dist{Constant(1)}, []float64{0}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", name)
				}
			}()
			f()
		}()
	}
}

func TestLognormalWithMedian(t *testing.T) {
	l := LognormalWithMedian(60, 1.2)
	approx(t, "median", math.Exp(l.Mu), 60, 1e-9)
	r := sim.NewSource(9)
	below := 0
	const n = 100000
	for i := 0; i < n; i++ {
		if l.Sample(r) < 60 {
			below++
		}
	}
	approx(t, "fraction below median", float64(below)/n, 0.5, 0.01)
}

func TestSaroiuMixtureShape(t *testing.T) {
	m := SaroiuBandwidthMixture()
	r := sim.NewSource(17)
	const n = 200000
	var lowEnd, highEnd int
	for i := 0; i < n; i++ {
		v := m.Sample(r)
		if v < 2 || v > 4000 {
			t.Fatalf("capacity %v outside configured support", v)
		}
		if v < 48 {
			lowEnd++
		}
		if v >= 800 {
			highEnd++
		}
	}
	// ~65% of peers below cable speeds, ~2% at the very top: the mix must
	// be heterogeneous, which is the premise of super-peer architectures.
	approx(t, "low-end fraction", float64(lowEnd)/n, 0.65, 0.02)
	approx(t, "high-end fraction", float64(highEnd)/n, 0.02, 0.005)
}

func TestStaticProfile(t *testing.T) {
	p := &StaticProfile{
		Capacity:       SaroiuBandwidthMixture(),
		Lifetime:       LognormalWithMedian(60, 1.2),
		ObjectsPerPeer: DefaultObjects(),
	}
	r := sim.NewSource(23)
	for i := 0; i < 1000; i++ {
		s := p.NewPeer(0, r)
		if s.Capacity <= 0 || s.Lifetime <= 0 {
			t.Fatalf("non-positive endowment %+v", s)
		}
		if s.Objects < 0 {
			t.Fatalf("negative object count %d", s.Objects)
		}
	}
}

func TestScheduledProfileRegimes(t *testing.T) {
	base := &StaticProfile{Capacity: Constant(100), Lifetime: Constant(60)}
	p := PaperDynamicProfile(base)
	r := sim.NewSource(1)

	s := p.NewPeer(100, r)
	if s.Capacity != 100 || s.Lifetime != 60 {
		t.Fatalf("pre-regime peer %+v, want capacity 100 lifetime 60", s)
	}
	s = p.NewPeer(300, r)
	if s.Capacity != 100 || s.Lifetime != 30 {
		t.Fatalf("t=300 peer %+v, want lifetime halved", s)
	}
	s = p.NewPeer(1500, r)
	if s.Capacity != 200 || s.Lifetime != 30 {
		t.Fatalf("t=1500 peer %+v, want capacity doubled and lifetime still halved", s)
	}
}

func TestScheduledProfileSortsChanges(t *testing.T) {
	base := &StaticProfile{Capacity: Constant(1), Lifetime: Constant(1)}
	p := NewScheduledProfile(base,
		RegimeChange{From: 200, Modifier: Modifier{CapacityFactor: 3, LifetimeFactor: 1}},
		RegimeChange{From: 100, Modifier: Modifier{CapacityFactor: 2, LifetimeFactor: 1}},
	)
	if got := p.ActiveModifier(150).CapacityFactor; got != 2 {
		t.Fatalf("ActiveModifier(150).CapacityFactor = %v, want 2", got)
	}
	if got := p.ActiveModifier(250).CapacityFactor; got != 3 {
		t.Fatalf("ActiveModifier(250).CapacityFactor = %v, want 3", got)
	}
}

func TestPeriodicProfile(t *testing.T) {
	base := &StaticProfile{Capacity: Constant(10), Lifetime: Constant(60)}
	p := PaperPeriodicProfile(base, 200, 400)
	r := sim.NewSource(2)

	if s := p.NewPeer(100, r); s.Capacity != 10 {
		t.Fatalf("pre-start capacity %v, want 10", s.Capacity)
	}
	if s := p.NewPeer(450, r); s.Capacity != 30 {
		t.Fatalf("high phase capacity %v, want 30 (3x)", s.Capacity)
	}
	if s := p.NewPeer(550, r); math.Abs(s.Capacity-10.0/3) > 1e-12 {
		t.Fatalf("low phase capacity %v, want 10/3", s.Capacity)
	}
	if s := p.NewPeer(650, r); s.Capacity != 30 {
		t.Fatalf("second high phase capacity %v, want 30", s.Capacity)
	}
}

func TestZipfMassSumsToOne(t *testing.T) {
	z := NewZipf(100, 0.8)
	sum := 0.0
	for i := 0; i < z.N; i++ {
		sum += z.Mass(i)
	}
	approx(t, "zipf total mass", sum, 1, 1e-9)
	if z.Mass(-1) != 0 || z.Mass(100) != 0 {
		t.Fatal("out-of-range mass should be zero")
	}
}

func TestZipfSkew(t *testing.T) {
	z := NewZipf(1000, 1.0)
	r := sim.NewSource(31)
	counts := make([]int, z.N)
	const n = 200000
	for i := 0; i < n; i++ {
		counts[z.Rank(r)]++
	}
	if counts[0] <= counts[1] || counts[1] <= counts[10] {
		t.Fatalf("zipf not monotone at head: %d, %d, %d", counts[0], counts[1], counts[10])
	}
	approx(t, "rank-0 frequency", float64(counts[0])/n, z.Mass(0), 0.01)
}

// Property: Scaled distribution scales samples exactly.
func TestScaledProperty(t *testing.T) {
	f := func(seed int64, factorRaw uint8) bool {
		factor := float64(factorRaw%10) + 0.5
		base := Uniform{Lo: 1, Hi: 2}
		s := Scaled{Base: base, Factor: factor}
		a := base.Sample(sim.NewSource(seed))
		b := s.Sample(sim.NewSource(seed))
		return math.Abs(b-factor*a) < 1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: BoundedPareto samples always stay in range.
func TestBoundedParetoRangeProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := sim.NewSource(seed)
		d := BoundedPareto{Lo: 2, Hi: 50, Alpha: 1.2}
		for i := 0; i < 100; i++ {
			v := d.Sample(r)
			if v < 2 || v > 50 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestModifierString(t *testing.T) {
	m := Modifier{CapacityFactor: 2, LifetimeFactor: 0.5}
	if m.String() != "capacity×2 lifetime×0.5" {
		t.Fatalf("String() = %q", m.String())
	}
}

func TestSinusoidalProfile(t *testing.T) {
	base := &StaticProfile{Capacity: Constant(100), Lifetime: Constant(60)}
	p := &SinusoidalProfile{Base: base, Period: 100, CapacityAmplitude: 0.5, LifetimeAmplitude: 0.2}
	r := sim.NewSource(1)
	// Peak of the sine at t = 25 (quarter period).
	if s := p.NewPeer(25, r); math.Abs(s.Capacity-150) > 1e-9 || math.Abs(s.Lifetime-72) > 1e-9 {
		t.Fatalf("peak: %+v", s)
	}
	// Trough at t = 75.
	if s := p.NewPeer(75, r); math.Abs(s.Capacity-50) > 1e-9 || math.Abs(s.Lifetime-48) > 1e-9 {
		t.Fatalf("trough: %+v", s)
	}
	// Zero crossings at t = 0 and t = 50.
	if s := p.NewPeer(0, r); math.Abs(s.Capacity-100) > 1e-9 {
		t.Fatalf("zero crossing: %+v", s)
	}
	// Zero period: identity.
	pz := &SinusoidalProfile{Base: base}
	if s := pz.NewPeer(33, r); s.Capacity != 100 {
		t.Fatalf("zero period modified capacity: %+v", s)
	}
}
