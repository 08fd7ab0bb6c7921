package dlm_test

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"dlm/internal/protocol"
)

// hostScale marks a knob no committed artifact sweeps yet: it stays a
// field because hosts rescale it (the live plane's tests and the fuzzers
// shrink durations, draw probabilities and table bounds).
const hostScale = "host-scale"

// paramEvidence maps every protocol.Params field to the results/ artifact
// that sweeps or exercises it. DESIGN.md §1's knob table prints it with
// each field's default, and TestEveryParamHasEvidence holds that table to
// this map and to protocol.DefaultParams.
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

// knobRow is one row of DESIGN.md §1's knob table:
// | `Field` | default | evidence |.
var knobRow = regexp.MustCompile("^\\| `([A-Za-z]+)` \\| ([^|]+) \\| ([^|]+) \\|$")

// knobTable returns DESIGN.md §1's knob table: each row's default and
// evidence cell, by field name.
func knobTable(t *testing.T) map[string][2]string {
	src, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	_, sec, _ := strings.Cut(string(src), "\n## 1. ")
	sec, _, _ = strings.Cut(sec, "\n## 2. ")
	rows := make(map[string][2]string)
	for _, line := range strings.Split(sec, "\n") {
		if m := knobRow.FindStringSubmatch(line); m != nil {
			if _, dup := rows[m[1]]; dup {
				t.Errorf("DESIGN.md §1 lists Params.%s twice", m[1])
			}
			rows[m[1]] = [2]string{m[2], m[3]}
		}
	}
	return rows
}

// docDefault formats a Params field's value as the knob table prints
// it: a bool as on/off, a named policy by its String, a number in its
// shortest form.
func docDefault(v reflect.Value) string {
	if s, ok := v.Interface().(fmt.Stringer); ok {
		return s.String()
	}
	switch v.Kind() {
	case reflect.Bool:
		if v.Bool() {
			return "on"
		}
		return "off"
	case reflect.Float32, reflect.Float64:
		return strconv.FormatFloat(v.Float(), 'g', -1, 64)
	}
	return fmt.Sprint(v.Interface())
}

// TestEveryParamHasEvidence keeps the knob audit from rotting: a new
// Params field fails here until it names the committed artifact that
// shows what its default buys (or is declared host-scale), and an
// artifact cannot be deleted while a knob still rests on it. DESIGN.md
// §1's table must list every field once, with the evidence named here and
// the default protocol.DefaultParams returns, so a changed default or
// artifact cannot leave the document behind.
func TestEveryParamHasEvidence(t *testing.T) {
	typ := reflect.TypeOf(protocol.Params{})
	defaults := reflect.ValueOf(protocol.DefaultParams())
	table := knobTable(t)
	if typ.NumField() != len(paramEvidence) || typ.NumField() != len(table) {
		t.Errorf("protocol.Params has %d fields, the evidence map %d, DESIGN.md §1's table %d",
			typ.NumField(), len(paramEvidence), len(table))
	}
	for i := 0; i < typ.NumField(); i++ {
		name := typ.Field(i).Name
		evidence, ok := paramEvidence[name]
		if !ok {
			t.Errorf("Params.%s has no evidence row: sweep it into results/ or make it a constant", name)
			continue
		}
		row, ok := table[name]
		if !ok {
			t.Errorf("DESIGN.md §1's knob table has no row for Params.%s", name)
		} else {
			got, _, _ := strings.Cut(strings.TrimSpace(row[0]), " ")
			if want := docDefault(defaults.Field(i)); got != want {
				t.Errorf("DESIGN.md §1 gives Params.%s the default %s; protocol.DefaultParams has %s", name, got, want)
			}
			cite := "`results/" + evidence + "`"
			if evidence == hostScale {
				cite = hostScale
			}
			if !strings.HasPrefix(row[1], cite) {
				t.Errorf("DESIGN.md §1 gives Params.%s the evidence %q; want it to start with %s", name, row[1], cite)
			}
		}
		if evidence == hostScale {
			continue
		}
		if _, err := os.Stat(filepath.Join("results", evidence)); err != nil {
			t.Errorf("Params.%s: %v", name, err)
		}
	}
}
