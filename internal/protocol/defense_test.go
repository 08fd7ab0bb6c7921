package protocol

import (
	"crypto/sha256"
	"fmt"
	"strings"
	"testing"

	"dlm/internal/msg"
	"dlm/internal/sim"
)

// defenseTrace drives one scripted leaf machine for 60 ticks — feeding it
// l_nn reports and value responses from rotating neighbors — and returns
// its full decision transcript. kl=30 against observed l_nn of 30..49
// keeps the rate limit's deficit positive, so eligible peers really draw.
func defenseTrace(seed int64, p Params, selfCap float64) string {
	rng := sim.NewSource(seed).Stream("defense-trace")
	ma := NewMachine(&p, 0)
	ep := &captureEndpoint{leafNeighbors: map[msg.PeerID]bool{}}
	self := Self{ID: 1, Capacity: selfCap}
	var b strings.Builder
	for t := Time(1); t <= 60; t++ {
		self.Age = float64(t)
		from := msg.PeerID(2 + int64(t)%5)
		nn := msg.NeighNumResponse(from, 1, 30+int(int64(t)%20))
		ma.HandleMessage(self, &nn, t, ep)
		vr := msg.ValueResponse(from, 1, 50+float64(int64(t)%7)*300, float64(t)*0.5)
		ma.HandleMessage(self, &vr, t, ep)
		res := ma.Evaluate(self, t, 30, 40, rng)
		fmt.Fprintf(&b, "t=%g size=%d ev=%v el=%v act=%s y=%.4f,%.4f\n",
			t, ma.Size(), res.Evaluated, res.Eligible, res.Action,
			res.Decision.YCapa, res.Decision.YAge)
	}
	return b.String()
}

// TestDefenseOffTracePins pins the scripted decision transcripts of a
// defense-free machine byte-for-byte: DefaultParams must keep producing
// exactly these bytes, and setting DefenseMaxCapacity to an explicit zero
// must be indistinguishable from not having the field at all. The liar
// transcript consumes Bernoulli draws, so the pins are seed-sensitive.
func TestDefenseOffTracePins(t *testing.T) {
	pins := []struct {
		seed         int64
		honest, liar string
	}{
		{3,
			"70e75687a7355b11a05c0c508f59199c442d540f01642f358053824e8669142c",
			"23580a9ba005a547f4a1940a8c4e92548d708248012ae3a71d95ce7e47f9bb12"},
		{17,
			"70e75687a7355b11a05c0c508f59199c442d540f01642f358053824e8669142c",
			"3e5204ba4e2e6ad9a3b2891f25ca34d571fb5751027ae15507359a947ffce547"},
	}
	for _, pin := range pins {
		t.Run(fmt.Sprintf("seed=%d", pin.seed), func(t *testing.T) {
			for name, selfCap := range map[string]float64{"honest": 100, "liar": 1e6} {
				want := pin.honest
				if name == "liar" {
					want = pin.liar
				}
				def := defenseTrace(pin.seed, DefaultParams(), selfCap)
				if got := fmt.Sprintf("%x", sha256.Sum256([]byte(def))); got != want {
					t.Errorf("%s trace drifted: sha256 = %s, want %s\nhead:\n%s",
						name, got, want, def[:200])
				}
				zero := DefaultParams()
				zero.DefenseMaxCapacity = 0
				if got := defenseTrace(pin.seed, zero, selfCap); got != def {
					t.Errorf("%s trace with explicit zero defense differs from default", name)
				}
			}
		})
	}
}

// TestDefenseTransparentForHonestPeers: with every claim inside the bound
// the defense's gates are pure no-ops — the transcript must be
// byte-identical with the defense on and off, draws included.
func TestDefenseTransparentForHonestPeers(t *testing.T) {
	for _, seed := range []int64{3, 17} {
		off := defenseTrace(seed, DefaultParams(), 100)
		p := DefaultParams()
		p.DefenseMaxCapacity = 4000
		if on := defenseTrace(seed, p, 100); on != off {
			t.Errorf("seed %d: honest transcript changed when defense enabled", seed)
		}
	}
}

// TestDefenseBoundsLiarPromotion: a leaf claiming an implausible capacity
// promotes under the default params but must never promote with the
// defense on — while still being scored eligible (the gate sits after
// the comparison, before the rate-limit draw).
func TestDefenseBoundsLiarPromotion(t *testing.T) {
	for _, seed := range []int64{3, 17} {
		off := defenseTrace(seed, DefaultParams(), 1e6)
		if !strings.Contains(off, "act=promote") {
			t.Fatalf("seed %d: liar never promoted with defense off", seed)
		}
		p := DefaultParams()
		p.DefenseMaxCapacity = 4000
		on := defenseTrace(seed, p, 1e6)
		if strings.Contains(on, "act=promote") {
			t.Errorf("seed %d: liar promoted despite the defense", seed)
		}
		if !strings.Contains(on, "el=true") {
			t.Errorf("seed %d: defense suppressed eligibility, want only the switch gated", seed)
		}
	}
}

// TestDefenseRejectsImplausibleObservations: neither a super's G, from a
// ValueResponse, nor a leaf's, from a super's ValueRequest, may admit
// claims above the capacity bound or ahead of the clock; plausible claims
// pass untouched, and a refused request is still answered.
func TestDefenseRejectsImplausibleObservations(t *testing.T) {
	cases := []struct {
		name     string
		capacity float64
		age      float64
		admitted bool
	}{
		{"plausible", 3000, 5, true},
		{"capacity above bound", 5000, 5, false},
		{"age ahead of clock", 100, 50, false},
		{"capacity at bound", 4000, 5, true},
		{"age at clock", 100, 10, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := DefaultParams()
			p.DefenseMaxCapacity = 4000
			ma := NewMachine(&p, 0)
			ep := &captureEndpoint{leafNeighbors: map[msg.PeerID]bool{9: true}}
			self := Self{ID: 1, Capacity: 500, Age: 10, IsSuper: true}
			m := msg.ValueResponse(9, 1, tc.capacity, tc.age)
			ma.HandleMessage(self, &m, 10, ep)
			if got := ma.Has(9); got != tc.admitted {
				t.Errorf("response: admitted = %v, want %v", got, tc.admitted)
			}

			leaf := NewMachine(&p, 0)
			ep = &captureEndpoint{}
			self = Self{ID: 1, Capacity: 20, Age: 10}
			m = valueRequest(Self{ID: 9, Capacity: tc.capacity, Age: tc.age}, 1)
			leaf.HandleMessage(self, &m, 10, ep)
			if got := leaf.Has(9); got != tc.admitted {
				t.Errorf("request: admitted = %v, want %v", got, tc.admitted)
			}
			if want := msg.ValueResponse(1, 9, 20, 10); len(ep.sent) != 1 || ep.sent[0] != want {
				t.Errorf("request answered with %+v, want %+v", ep.sent, want)
			}
		})
	}
}

// TestDefenseSurvivesReset: Reset clears the machine's observations but
// must keep its parameters — including the defense bound.
func TestDefenseSurvivesReset(t *testing.T) {
	p := DefaultParams()
	p.DefenseMaxCapacity = 123
	ma := NewMachine(&p, 0)
	ma.observe(2, 50, 1, 5, 0)
	ma.Reset(40)
	if ma.Size() != 0 {
		t.Fatalf("Reset left %d observations", ma.Size())
	}
	if got := ma.Params().DefenseMaxCapacity; got != 123 {
		t.Errorf("DefenseMaxCapacity after Reset = %v, want 123", got)
	}
	// And the defense still bites after the reset.
	ep := &captureEndpoint{leafNeighbors: map[msg.PeerID]bool{}}
	m := msg.ValueResponse(3, 1, 1000, 1)
	ma.HandleMessage(Self{ID: 1, Capacity: 50, Age: 41}, &m, 41, ep)
	if ma.Has(3) {
		t.Error("claim above the bound admitted after Reset")
	}
}

// TestDefenseValidate: the new parameter obeys the Params contract.
func TestDefenseValidate(t *testing.T) {
	p := DefaultParams()
	p.DefenseMaxCapacity = -1
	if err := p.Validate(); err == nil {
		t.Error("negative DefenseMaxCapacity validated")
	}
	p.DefenseMaxCapacity = 4000
	if err := p.Validate(); err != nil {
		t.Errorf("DefenseMaxCapacity = 4000 rejected: %v", err)
	}
}
