package dlm_test

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"dlm"
)

// hostScale marks a knob no committed artifact sweeps yet: it stays a
// field because hosts rescale it (the live plane's tests and the fuzzers
// shrink durations, draw probabilities and table bounds).
const hostScale = "host-scale"

// paramEvidence maps every protocol.Params field to the results/ artifact
// that sweeps or exercises it. DESIGN.md §1 prints the same table.
var paramEvidence = map[string]string{
	"LambdaCapa":         "gain_lambda.txt",
	"LambdaAge":          "gain_lambda.txt",
	"BetaPromoteCapa":    "gain_betacapa.txt",
	"BetaPromoteAge":     "gain_beta.txt",
	"BetaDemoteCapa":     "gain_betacapa.txt",
	"BetaDemoteAge":      "gain_beta.txt",
	"MaxRelatedSet":      hostScale,
	"LeafWindow":         "gain_window.txt",
	"DecisionCooldown":   "gain_cooldown.txt",
	"DemotionCooldown":   "gain_democooldown.txt",
	"EvalProbability":    hostScale,
	"EmptyGDemoteAfter":  hostScale,
	"RateLimit":          "gain_ratelimit.txt",
	"RateGain":           "gain_rategain.txt",
	"SelectionSharpness": "gain_sharpness.txt",
	"Exchange":           "policy_ablation.txt",
	"PeriodicInterval":   "policy_ablation.txt",
	"RefreshInterval":    "gain_refresh.txt",
	"RequestTimeout":     "robustness.txt",
	"MaxRetries":         "robustness.txt",
	"DefenseMaxCapacity": "adversarial.txt",
	"LnnSmoothing":       hostScale,
}

// TestEveryParamHasEvidence keeps the knob audit from rotting: a new
// Params field fails here until it names the committed artifact that
// shows what its default buys (or is declared host-scale), and an
// artifact cannot be deleted while a knob still rests on it.
func TestEveryParamHasEvidence(t *testing.T) {
	typ := reflect.TypeOf(dlm.Params{})
	if typ.NumField() != len(paramEvidence) {
		t.Errorf("protocol.Params has %d fields, the evidence table %d", typ.NumField(), len(paramEvidence))
	}
	for i := 0; i < typ.NumField(); i++ {
		name := typ.Field(i).Name
		evidence, ok := paramEvidence[name]
		if !ok {
			t.Errorf("Params.%s has no evidence row: sweep it into results/ or make it a constant", name)
			continue
		}
		if evidence == hostScale {
			continue
		}
		if _, err := os.Stat(filepath.Join("results", evidence)); err != nil {
			t.Errorf("Params.%s: %v", name, err)
		}
	}
}
