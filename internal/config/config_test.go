package config

import (
	"math"
	"strings"
	"testing"
)

func TestTable2MatchesPaper(t *testing.T) {
	s := table2()
	if err := s.Validate(); err != nil {
		t.Fatalf("Table2 invalid: %v", err)
	}
	if s.Eta != 40 || s.M != 2 || s.KS != 3 {
		t.Fatalf("structure %v/%v/%v, want 40/2/3", s.Eta, s.M, s.KS)
	}
	if s.KL() != 80 {
		t.Fatalf("k_l = %v, want 80 (Table 2)", s.KL())
	}
	if got := s.PreferredSupers(); got != 1220 {
		t.Fatalf("n_s = %d, want 1220 (Table 2)", got)
	}
}

func TestScaled(t *testing.T) {
	for _, n := range []int{100, 500, 2000, 50020} {
		s := Scaled(n)
		if err := s.Validate(); err != nil {
			t.Fatalf("Scaled(%d) invalid: %v", n, err)
		}
		if s.N != n {
			t.Fatalf("Scaled(%d).N = %d", n, s.N)
		}
		if ns := s.PreferredSupers(); ns < 15 {
			t.Fatalf("Scaled(%d) super-layer too small: %d", n, ns)
		}
	}
	// Large n keeps the paper's eta.
	if Scaled(50020).Eta != 40 {
		t.Fatal("large scaled scenario should keep eta=40")
	}
}

func TestEquationConsistency(t *testing.T) {
	// Equations a and b must be mutually consistent: n_s·k_l ≈ n_l·m.
	for _, s := range []Scenario{table2(), Scaled(1000), Scaled(300)} {
		lhs := float64(s.PreferredSupers()) * s.KL()
		rhs := float64(s.N-s.PreferredSupers()) * float64(s.M)
		if math.Abs(lhs-rhs)/rhs > 0.01 {
			t.Errorf("%s: out-degree balance %v vs %v", s.Name, lhs, rhs)
		}
	}
}

func TestValidateRejects(t *testing.T) {
	mutations := map[string]func(*Scenario){
		"N":        func(s *Scenario) { s.N = 0 },
		"Eta":      func(s *Scenario) { s.Eta = 0 },
		"M":        func(s *Scenario) { s.M = 0 },
		"KS":       func(s *Scenario) { s.KS = 0 },
		"Growth":   func(s *Scenario) { s.GrowthRate = 0 },
		"Duration": func(s *Scenario) { s.Duration = 0 },
		"Sample":   func(s *Scenario) { s.SampleEvery = 0 },
		"Warmup":   func(s *Scenario) { s.Warmup = s.Duration },
		"Lifetime": func(s *Scenario) { s.LifetimeMedian = 0 },
		"Rate":     func(s *Scenario) { s.QueryRate = -1 },
		"TTL":      func(s *Scenario) { s.QueryRate = 1; s.TTL = 0 },
		"TTL: 256": func(s *Scenario) { s.TTL = 256 },
	}
	for name, mutate := range mutations {
		s := table2()
		mutate(&s)
		if err := s.Validate(); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestBaseProfileSamples(t *testing.T) {
	s := table2()
	p := s.BaseProfile()
	if p.Capacity == nil || p.Lifetime == nil || p.ObjectsPerPeer == nil {
		t.Fatal("profile incomplete")
	}
}

func TestJSONRoundTrip(t *testing.T) {
	want := Scaled(777)
	want.Seed = 99
	var sb strings.Builder
	if err := want.WriteJSON(&sb); err != nil {
		t.Fatal(err)
	}
	got, err := ReadJSON(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("round trip:\n got %+v\nwant %+v", got, want)
	}
}

func TestReadJSONRejects(t *testing.T) {
	if _, err := ReadJSON(strings.NewReader(`{"N": 0}`)); err == nil {
		t.Fatal("invalid scenario accepted")
	}
	if _, err := ReadJSON(strings.NewReader(`{"Bogus": 1}`)); err == nil {
		t.Fatal("unknown field accepted")
	}
	if _, err := ReadJSON(strings.NewReader(`{{`)); err == nil {
		t.Fatal("malformed JSON accepted")
	}
}

func TestFileRoundTrip(t *testing.T) {
	path := t.TempDir() + "/scenario.json"
	want := table2()
	if err := want.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	got, err := LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatal("file round trip mismatch")
	}
	if _, err := LoadFile(path + ".missing"); err == nil {
		t.Fatal("missing file accepted")
	}
}
