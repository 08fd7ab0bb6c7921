package dlm_test

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"dlm"
)

// TestGoldenFigures regenerates every figure CSV with the dlmbench
// defaults and compares the bytes against the committed artifacts in
// results/. This is the determinism pin for the whole pipeline: any
// change that perturbs a random stream, the event order, or the fault
// injection in its disabled state shows up here as a byte diff. The runs
// take tens of seconds, so the test is skipped under -short.
func TestGoldenFigures(t *testing.T) {
	if testing.Short() {
		t.Skip("golden figure regeneration is slow; skipped with -short")
	}

	// The dlmbench figure defaults (cmd/dlmbench/main.go).
	base := dlm.Scaled(2000)
	base.Seed = 1
	base.Duration = dlm.SettledWindowEnd
	base.Warmup = 200
	base.SampleEvery = 10

	figures := []struct {
		name string
		run  func(dlm.Scenario) (*dlm.FigureResult, error)
		prep func(dlm.Scenario) dlm.Scenario
	}{
		{name: "fig4", run: dlm.Figure4},
		{name: "fig5", run: dlm.Figure5},
		{name: "fig6", run: dlm.Figure6},
		{name: "fig7", run: dlm.Figure7, prep: func(sc dlm.Scenario) dlm.Scenario {
			sc.QueryRate = 5
			return sc
		}},
		{name: "fig8", run: dlm.Figure8},
	}
	for _, fig := range figures {
		fig := fig
		t.Run(fig.name, func(t *testing.T) {
			t.Parallel()
			want, err := os.ReadFile(filepath.Join("results", fig.name+".csv"))
			if err != nil {
				t.Fatalf("missing golden artifact: %v", err)
			}
			sc := base
			if fig.prep != nil {
				sc = fig.prep(sc)
			}
			res, err := fig.run(sc)
			if err != nil {
				t.Fatal(err)
			}
			var got bytes.Buffer
			if err := dlm.WriteFigureCSV(res, &got); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got.Bytes(), want) {
				t.Fatalf("%s.csv drifted from the committed golden bytes "+
					"(got %d bytes, want %d); if the change is intentional, "+
					"regenerate with `go run ./cmd/dlmbench -out results`",
					fig.name, got.Len(), len(want))
			}
		})
	}
}
