package experiments

import (
	"fmt"
	"io"

	"dlm/internal/config"
	"dlm/internal/plot"
	"dlm/internal/sim"
	"dlm/internal/stats"
	"dlm/internal/workload"
)

// FigureResult is a rendered figure: labelled series plus headline
// numbers for EXPERIMENTS.md.
type FigureResult struct {
	Title  string
	Series []*stats.Series
	// Notes holds headline scalar findings ("super-layer mean age 4.1x
	// leaf-layer over the window").
	Notes []string
	// LogY marks figures the paper plots on a log axis (Figure 6).
	LogY bool
}

// Render draws the figure's series as an ASCII chart with a plot area of
// width columns by height rows.
func (f *FigureResult) Render(width, height int) string {
	return plot.Render(plot.Options{
		Title:  f.Title,
		Width:  width,
		Height: height,
		LogY:   f.LogY,
		XLabel: "simulation time (minutes)",
	}, f.Series...)
}

// WriteCSV writes the figure's series as CSV with a shared time axis (the
// results/fig*.csv format).
func (f *FigureResult) WriteCSV(w io.Writer) error {
	return (&stats.SeriesSet{Series: f.Series}).WriteCSV(w)
}

// DynamicScenario wraps a scenario with the paper's Figures 4-6 dynamics:
// new-peer lifetimes halve at t=300 and capacities double at t=1000.
func DynamicScenario(sc config.Scenario) RunConfig {
	return RunConfig{
		Scenario: sc,
		Profile:  workload.PaperDynamicProfile(sc.BaseProfile()),
		Manager:  ManagerDLM,
	}
}

// DynamicFigures reproduces Figures 4, 5 and 6 from one run of the
// dynamic network (DynamicScenario). Expected shapes:
//
//   - Figure 4, "Average Age": the super-layer's mean age sits well above
//     the leaf-layer's throughout, including after the lifetime regime
//     change at t=300.
//   - Figure 5, "Average Capacity": the super-layer's mean capacity sits
//     above the leaf-layer's, adapting across the capacity regime change
//     at t=1000.
//   - Figure 6, "Layer Sizes" (log y-axis): near-constant sizes, i.e. a
//     maintained ratio, through both regime changes.
func DynamicFigures(sc config.Scenario) ([]*FigureResult, error) {
	res, err := Run(DynamicScenario(sc))
	if err != nil {
		return nil, err
	}
	layers := func(super, leaf string) []*stats.Series {
		return []*stats.Series{
			rename(res.Series.Get(super), "SuperLayer"),
			rename(res.Series.Get(leaf), "LeafLayer"),
		}
	}
	w := res.Window(sc)
	return []*FigureResult{{
		Title:  "Figure 4: Average Age Comparison (dynamic network)",
		Series: layers("age_super", "age_leaf"),
		Notes: []string{fmt.Sprintf("super-layer mean age %.2fx leaf-layer over [%.0f,%.0f]",
			w.AgeSeparation, sc.Warmup, sc.Duration)},
	}, {
		Title:  "Figure 5: Average Capacity Comparison (dynamic network)",
		Series: layers("cap_super", "cap_leaf"),
		Notes: []string{fmt.Sprintf("super-layer mean capacity %.2fx leaf-layer over [%.0f,%.0f]",
			w.CapSeparation, sc.Warmup, sc.Duration)},
	}, {
		Title:  "Figure 6: Layer Sizes (log scale, dynamic network)",
		Series: layers("supers", "leaves"),
		LogY:   true,
		Notes: []string{fmt.Sprintf("ratio mean %.1f (target η=%.0f), rmse %.1f over [%.0f,%.0f]",
			w.RatioMean, sc.Eta, w.RatioRMSE, sc.Warmup, sc.Duration)},
	}}, nil
}

// comparisonScenario wraps a scenario with the Figures 7-8 dynamics: the
// mean capacity of new peers flips between 2x and 0.5x every period.
func comparisonScenario(sc config.Scenario, kind ManagerKind) RunConfig {
	period := sim.Duration(sc.Duration / 4)
	return RunConfig{
		Scenario: sc,
		Profile:  workload.PaperPeriodicProfile(sc.BaseProfile(), period, sim.Time(sc.Warmup/2)),
		Manager:  kind,
		Queries:  sc.QueryRate > 0,
	}
}

// Figure7 reproduces "Layer Size Ratios on Same Success Rate": the layer
// size ratio over time for DLM versus the preconfigured algorithm while
// the capacity mix of joining peers oscillates. Expected shape: DLM holds
// a flat ratio near η while the preconfigured curve oscillates with the
// capacity mean. When the scenario enables queries, both systems run the
// same search workload so the comparison is at matched success rates.
func Figure7(sc config.Scenario) (*FigureResult, error) {
	dlm, err := Run(comparisonScenario(sc, ManagerDLM))
	if err != nil {
		return nil, err
	}
	pre, err := Run(comparisonScenario(sc, ManagerPreconfigured))
	if err != nil {
		return nil, err
	}
	f := &FigureResult{
		Title: "Figure 7: Layer Size Ratio, DLM vs Preconfigured (oscillating capacity mix)",
		Series: []*stats.Series{
			rename(dlm.Series.Get("ratio"), "DLM"),
			rename(pre.Series.Get("ratio"), "Preconfigured"),
		},
	}
	from, to := sc.Warmup, sc.Duration
	dr := dlm.Series.Get("ratio")
	pr := pre.Series.Get("ratio")
	f.Notes = append(f.Notes,
		fmt.Sprintf("DLM ratio rmse %.2f vs preconfigured %.2f (target η=%.0f)",
			dlm.Window(sc).RatioRMSE, pre.Window(sc).RatioRMSE, sc.Eta),
		fmt.Sprintf("stability (std around own mean): DLM %.2f vs preconfigured %.2f",
			dr.StdOver(from, to), pr.StdOver(from, to)),
		fmt.Sprintf("DLM ratio range [%.1f,%.1f]; preconfigured [%.1f,%.1f]",
			dr.MinOver(from, to), dr.MaxOver(from, to), pr.MinOver(from, to), pr.MaxOver(from, to)))
	if dlm.QueriesIssued > 0 {
		f.Notes = append(f.Notes,
			fmt.Sprintf("query success: DLM %.1f%% vs preconfigured %.1f%% at TTL %d",
				100*dlm.QuerySuccess, 100*pre.QuerySuccess, sc.TTL))
	}
	return f, nil
}

// Figure8 reproduces "Average Age Comparisons": per-layer mean ages for
// DLM versus the preconfigured algorithm under the same oscillating
// scenario. Expected shape: DLM's layers are sharply divided with a much
// older super-layer; the preconfigured layers are closer together.
func Figure8(sc config.Scenario) (*FigureResult, error) {
	dlm, err := Run(comparisonScenario(sc, ManagerDLM))
	if err != nil {
		return nil, err
	}
	pre, err := Run(comparisonScenario(sc, ManagerPreconfigured))
	if err != nil {
		return nil, err
	}
	f := &FigureResult{
		Title: "Figure 8: Average Age, DLM vs Preconfigured",
		Series: []*stats.Series{
			rename(dlm.Series.Get("age_super"), "SuperLayer-DLM"),
			rename(pre.Series.Get("age_super"), "SuperLayer-Preconf"),
			rename(dlm.Series.Get("age_leaf"), "LeafLayer-DLM"),
			rename(pre.Series.Get("age_leaf"), "LeafLayer-Preconf"),
		},
	}
	from, to := sc.Warmup, sc.Duration
	dlmSep, preSep := dlm.Window(sc).AgeSeparation, pre.Window(sc).AgeSeparation
	dlmSuper := dlm.Series.Get("age_super").MeanOver(from, to)
	preSuper := pre.Series.Get("age_super").MeanOver(from, to)
	f.Notes = append(f.Notes,
		fmt.Sprintf("age separation super/leaf: DLM %.2fx vs preconfigured %.2fx", dlmSep, preSep),
		fmt.Sprintf("super-layer mean age: DLM %.1f vs preconfigured %.1f (%.2fx)",
			dlmSuper, preSuper, dlmSuper/preSuper))
	return f, nil
}

// rename clones a series under a new name (series share points).
func rename(s *stats.Series, name string) *stats.Series {
	out := stats.NewSeries(name)
	for _, p := range s.Points() {
		out.Add(p.T, p.V)
	}
	return out
}
