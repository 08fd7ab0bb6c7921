package core

import "testing"

// The controller math is tested in internal/protocol; this file covers
// the adapter surface: parameter validation at construction.

func TestDefaultParamsValid(t *testing.T) {
	if err := DefaultParams().Validate(); err != nil {
		t.Fatalf("default params invalid: %v", err)
	}
}

func TestNewManagerPanicsOnInvalid(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for invalid params")
		}
	}()
	p := DefaultParams()
	p.EvalProbability = 0
	NewManager(p)
}
