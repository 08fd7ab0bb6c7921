package scenario

import (
	"math"
	"strings"
	"testing"
)

// TestAdversarialTinyN sweeps the full six-scenario pack at a toy
// population: every scenario must run through its oracles cleanly and
// reduce to a well-formed row.
func TestAdversarialTinyN(t *testing.T) {
	rows, err := Adversarial([]int{300}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 6 {
		t.Fatalf("got %d rows, want 6", len(rows))
	}
	byName := map[string]*Result{}
	for _, r := range rows {
		byName[r.Name] = r
		if r.N != 300 {
			t.Errorf("%s: N = %d", r.Name, r.N)
		}
		if len(r.Invariants) != 0 {
			t.Errorf("%s: invariant violations: %v", r.Name, r.Invariants)
		}
		if !(r.Final.Ratio > 0) || math.IsInf(r.Final.Ratio, 0) {
			t.Errorf("%s: final ratio %v", r.Name, r.Final.Ratio)
		}
	}
	if r := byName["flashcrowd"]; r.ExtraJoins == 0 {
		t.Error("flashcrowd: no extra joins")
	}
	if r := byName["partition"]; r.PartitionDrops == 0 {
		t.Error("partition: no partition drops")
	}
	if r := byName["masskill"]; r.Killed == 0 {
		t.Error("masskill: nobody killed")
	}
	if r := byName["liars"]; r.LiarPopPct == 0 {
		t.Error("liars: no liars in the population")
	}
	out := FormatAdversarial(rows)
	for name := range byName {
		if !strings.Contains(out, name) {
			t.Errorf("FormatAdversarial missing scenario %q", name)
		}
	}
	if !strings.Contains(out, "reconv") {
		t.Error("FormatAdversarial missing header")
	}
}

// TestFormatAdversarialSentinels covers the non-finite renderings: a
// scenario with no disturbance edge prints "-", one that never
// re-converged prints "never".
func TestFormatAdversarialSentinels(t *testing.T) {
	rows := []*Result{
		{Name: "steady", N: 10, PreErrPct: math.NaN(), ReconvergeTime: math.NaN()},
		{Name: "stuck", N: 10, PreErrPct: 5, ReconvergeTime: math.Inf(1)},
	}
	out := FormatAdversarial(rows)
	if !strings.Contains(out, "-") {
		t.Error("NaN metric not rendered as '-'")
	}
	if !strings.Contains(out, "never") {
		t.Error("unreached re-convergence not rendered as 'never'")
	}
}
