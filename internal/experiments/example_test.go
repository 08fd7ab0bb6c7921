package experiments_test

import (
	"fmt"

	"dlm/internal/config"
	"dlm/internal/experiments"
)

// ExampleRun shows the minimal end-to-end run: build a scaled Table 2
// scenario, run DLM on it, and read the maintained layer ratio. (The exact
// numbers are seed-dependent by design; see examples/quickstart for a
// runnable program.)
func ExampleRun() {
	sc := config.Scaled(500)
	sc.Seed = 7
	sc.Duration = 300

	res, err := experiments.Run(experiments.RunConfig{Scenario: sc, Manager: experiments.ManagerDLM})
	if err != nil {
		panic(err)
	}
	fmt.Printf("ratio held near η=%.0f: %v\n", sc.Eta, res.Final.Ratio > sc.Eta/2)
	// Output: ratio held near η=19: true
}

// ExampleFigure7 regenerates the paper's headline comparison figure and
// renders it as an ASCII chart.
func ExampleFigure7() {
	sc := config.Scaled(400)
	sc.Seed = 42
	sc.Duration = 300
	sc.Warmup = 100

	fig, err := experiments.Figure7(sc)
	if err != nil {
		panic(err)
	}
	fmt.Println(len(fig.Series) == 2) // DLM and Preconfigured series
	// Output: true
}
