package experiments

import (
	"math"
	"strings"
	"testing"

	"dlm/internal/config"
)

// TestSettledWindowConstants pins the shared measurement window: the
// golden figures run to SettledWindowEnd and the robustness sweep
// measures from SettledWindowStart, so the two must keep bracketing a
// non-empty tail.
func TestSettledWindowConstants(t *testing.T) {
	if SettledWindowStart <= 0 || SettledWindowEnd <= SettledWindowStart {
		t.Fatalf("settled window [%v, %v] is not a forward interval",
			SettledWindowStart, SettledWindowEnd)
	}
	if SettledWindowStart != 600 || SettledWindowEnd != 1600 {
		t.Fatalf("settled window [%v, %v] drifted from the golden-artifact window [600, 1600]",
			SettledWindowStart, SettledWindowEnd)
	}
}

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
	byName := map[string]AdversarialRow{}
	for _, r := range rows {
		byName[r.Scenario] = r
		if r.N != 300 {
			t.Errorf("%s: N = %d", r.Scenario, r.N)
		}
		if r.Invariants != 0 {
			t.Errorf("%s: %d invariant violations", r.Scenario, r.Invariants)
		}
		if !(r.FinalRatio > 0) || math.IsInf(r.FinalRatio, 0) {
			t.Errorf("%s: final ratio %v", r.Scenario, r.FinalRatio)
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
	rows := []AdversarialRow{
		{Scenario: "steady", N: 10, PreErrPct: math.NaN(), ReconvergeTime: math.NaN()},
		{Scenario: "stuck", N: 10, PreErrPct: 5, ReconvergeTime: math.Inf(1)},
	}
	out := FormatAdversarial(rows)
	if !strings.Contains(out, "-") {
		t.Error("NaN metric not rendered as '-'")
	}
	if !strings.Contains(out, "never") {
		t.Error("unreached re-convergence not rendered as 'never'")
	}
}

// TestRobustnessShortSweep drives the adverse-link sweep at toy scale:
// the zero-loss control must stay retry-free (the fault-free determinism
// pin) while the lossy point records drops and retries.
func TestRobustnessShortSweep(t *testing.T) {
	sc := config.Scaled(400)
	sc.Seed = 1
	sc.Duration = 120
	sc.Warmup = 40
	rows, err := Robustness(sc, []float64{0, 10})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("got %d rows, want 2", len(rows))
	}
	clean, lossy := rows[0], rows[1]
	if clean.Retries != 0 || clean.Abandoned != 0 || clean.LinkDrops != 0 {
		t.Errorf("zero-loss control saw faults: %+v", clean)
	}
	if lossy.LinkDrops == 0 {
		t.Error("10%% loss dropped nothing")
	}
	if lossy.Retries == 0 {
		t.Error("10%% loss triggered no retries")
	}
	if !(clean.RatioMean > 0) {
		t.Errorf("control ratio %v", clean.RatioMean)
	}
	out := FormatRobustness(rows)
	if !strings.Contains(out, "loss%") || len(strings.Split(strings.TrimSpace(out), "\n")) != 3 {
		t.Errorf("FormatRobustness malformed:\n%s", out)
	}
}

// TestScaleShortSweep runs the throughput sweep at toy scale and checks
// the derived rates are consistent with the raw measurements.
func TestScaleShortSweep(t *testing.T) {
	rows, err := Scale([]int{400}, []int{1, 2}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("got %d rows, want 2", len(rows))
	}
	for _, r := range rows {
		if r.N != 400 || r.Events == 0 || r.WallSeconds <= 0 {
			t.Errorf("implausible row: %+v", r)
		}
		if r.EventsPerSec <= 0 || r.PeerUnitsPerSec <= 0 {
			t.Errorf("non-positive rates: %+v", r)
		}
	}
	if rows[0].Events != rows[1].Events {
		t.Errorf("event count differs across shard counts: %d vs %d",
			rows[0].Events, rows[1].Events)
	}
	if rows[0].LaneEvents != rows[1].LaneEvents || rows[0].Batches != rows[1].Batches {
		t.Errorf("event-plane counters differ across shard counts: (%d,%d) vs (%d,%d)",
			rows[0].LaneEvents, rows[0].Batches, rows[1].LaneEvents, rows[1].Batches)
	}
	if rows[0].LaneEvents == 0 {
		t.Error("no lane events fired — the sweep never scheduled a peer-targeted event")
	}
	out := FormatScale(rows)
	if !strings.Contains(out, "events") || !strings.Contains(out, "laneev") {
		t.Errorf("FormatScale malformed:\n%s", out)
	}
}
