package overlay

import (
	"math"
	"testing"
)

func TestLinkValidate(t *testing.T) {
	nan := math.NaN()
	bad := []struct {
		name string
		l    Link
	}{
		{"negative loss", Link{Loss: -0.1}},
		{"certain loss", Link{Loss: 1}},
		{"NaN loss", Link{Loss: nan}},
		{"negative dup", Link{Dup: -0.1}},
		{"certain dup", Link{Dup: 1}},
		{"NaN dup", Link{Dup: nan}},
		{"negative jitter min", Link{JitterMin: -1, JitterMode: 1, JitterMax: 2}},
		{"mode below min", Link{JitterMin: 1, JitterMode: 0.5, JitterMax: 2}},
		{"max below mode", Link{JitterMin: 0, JitterMode: 2, JitterMax: 1}},
		{"negative reorder window", Link{ReorderWindow: -1}},
	}
	for _, tc := range bad {
		if err := tc.l.Validate(); err == nil {
			t.Errorf("%s: accepted %+v", tc.name, tc.l)
		}
	}
	if err := (Link{Loss: 0.2, Dup: 0.1, JitterMode: 0.5, JitterMax: 2, ReorderWindow: 20}).Validate(); err != nil {
		t.Errorf("a valid link rejected: %v", err)
	}
}
