// Benchmarks regenerating each table and figure of the paper at a reduced
// scale. Each benchmark reports, besides time, the headline *shape*
// metric of its artifact via b.ReportMetric — e.g. the ratio RMSE for
// Figure 6 or the age separation for Figure 4 — so that a bench run
// doubles as a quick reproduction check. cmd/dlmbench produces the
// full-size artifacts.
package dlm_test

import (
	"math"
	"testing"

	"dlm/internal/config"
	"dlm/internal/experiments"
)

// benchScenario is sized so one iteration costs well under a second.
func benchScenario(seed int64) config.Scenario {
	sc := config.Scaled(600)
	sc.Seed = seed
	sc.Duration = 400
	sc.Warmup = 150
	sc.SampleEvery = 5
	return sc
}

func BenchmarkFigure4AverageAge(b *testing.B) {
	var sep float64
	for i := 0; i < b.N; i++ {
		figs, err := experiments.DynamicFigures(benchScenario(int64(i + 1)))
		if err != nil {
			b.Fatal(err)
		}
		sup, leaf := figs[0].Series[0], figs[0].Series[1]
		sep = sup.MeanOver(150, 400) / leaf.MeanOver(150, 400)
	}
	b.ReportMetric(sep, "ageSep_x")
}

func BenchmarkFigure5AverageCapacity(b *testing.B) {
	var sep float64
	for i := 0; i < b.N; i++ {
		figs, err := experiments.DynamicFigures(benchScenario(int64(i + 1)))
		if err != nil {
			b.Fatal(err)
		}
		sep = figs[1].Series[0].MeanOver(150, 400) / figs[1].Series[1].MeanOver(150, 400)
	}
	b.ReportMetric(sep, "capSep_x")
}

func BenchmarkFigure6LayerSizes(b *testing.B) {
	var rmse float64
	for i := 0; i < b.N; i++ {
		sc := benchScenario(int64(i + 1))
		res, err := experiments.Run(experiments.RunConfig{Scenario: sc, Manager: experiments.ManagerDLM})
		if err != nil {
			b.Fatal(err)
		}
		rmse = res.Series.Get("ratio").RMSEAgainst(sc.Eta, sc.Warmup, sc.Duration)
	}
	b.ReportMetric(rmse, "ratioRMSE")
}

func BenchmarkFigure7RatioComparison(b *testing.B) {
	var dlmRMSE, preRMSE float64
	for i := 0; i < b.N; i++ {
		// The comparison needs a super-layer large enough that DLM's
		// role-change quantization does not dominate its own variance,
		// and a window covering a few population turnovers.
		sc := config.Scaled(800)
		sc.Seed = int64(i + 1)
		sc.Eta = 10
		sc.Warmup = 150
		sc.SampleEvery = 5
		sc.Duration = 700
		f, err := experiments.Figure7(sc)
		if err != nil {
			b.Fatal(err)
		}
		dlmRMSE = f.Series[0].RMSEAgainst(sc.Eta, sc.Warmup, sc.Duration)
		preRMSE = f.Series[1].RMSEAgainst(sc.Eta, sc.Warmup, sc.Duration)
	}
	b.ReportMetric(dlmRMSE, "dlmRMSE")
	b.ReportMetric(preRMSE, "preconfRMSE")
}

func BenchmarkFigure8AgeComparison(b *testing.B) {
	var advantage float64
	for i := 0; i < b.N; i++ {
		sc := benchScenario(int64(i + 1))
		f, err := experiments.Figure8(sc)
		if err != nil {
			b.Fatal(err)
		}
		dlmSuper := f.Series[0].MeanOver(sc.Warmup, sc.Duration)
		preSuper := f.Series[1].MeanOver(sc.Warmup, sc.Duration)
		advantage = dlmSuper / preSuper
	}
	b.ReportMetric(advantage, "superAge_x")
}

func BenchmarkTable3PAO(b *testing.B) {
	var worst float64
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Table3([]int{400, 1200}, int64(100+i))
		if err != nil {
			b.Fatal(err)
		}
		worst = 0
		for _, r := range rows {
			worst = math.Max(worst, r.PAOOverNLCO)
		}
	}
	b.ReportMetric(worst, "worstPAO_pct")
}

func BenchmarkOverheadStudy(b *testing.B) {
	var share float64
	for i := 0; i < b.N; i++ {
		sc := benchScenario(int64(i + 1))
		sc.QueryRate = 10
		res, err := experiments.Overhead(sc)
		if err != nil {
			b.Fatal(err)
		}
		share = res.MsgShare
	}
	b.ReportMetric(share, "dlmMsgShare_pct")
}

func BenchmarkPolicyAblation(b *testing.B) {
	var eventMsgs float64
	for i := 0; i < b.N; i++ {
		sc := benchScenario(int64(i + 1))
		sc.Duration = 300
		rows, err := experiments.PolicyAblation(sc, []float64{5})
		if err != nil {
			b.Fatal(err)
		}
		eventMsgs = float64(rows[0].DLMMessages)
	}
	b.ReportMetric(eventMsgs, "eventDrivenMsgs")
}

func BenchmarkGainAblation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		sc := benchScenario(int64(i + 1))
		sc.Duration = 300
		if _, err := experiments.GainAblation(sc, "rategain", []float64{1, 4}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBaselineSweep(b *testing.B) {
	var dlmCapSep float64
	for i := 0; i < b.N; i++ {
		sc := benchScenario(int64(i + 1))
		sc.Duration = 300
		rows, err := experiments.BaselineSweep(sc)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			if r.Manager == "dlm" {
				dlmCapSep = r.CapSeparation
			}
		}
	}
	b.ReportMetric(dlmCapSep, "dlmCapSep_x")
}

// BenchmarkSearchEfficiency regenerates the motivating pure-vs-super-peer
// search comparison and reports the message-cost advantage at TTL 6.
func BenchmarkSearchEfficiency(b *testing.B) {
	var advantage float64
	for i := 0; i < b.N; i++ {
		sc := benchScenario(int64(i + 1))
		sc.N = 500
		sc.Warmup = 150
		sc.CatalogSize = 300
		rows, err := experiments.SearchEfficiency(sc, []int{6}, 150)
		if err != nil {
			b.Fatal(err)
		}
		advantage = rows[0].PureMsgsPer / math.Max(rows[0].SuperMsgsPer, 1)
	}
	b.ReportMetric(advantage, "msgAdvantage_x")
}

// BenchmarkRedundancySweep regenerates the leaf-redundancy study and
// reports the under-connection exposure at the paper's m=2.
func BenchmarkRedundancySweep(b *testing.B) {
	var under float64
	for i := 0; i < b.N; i++ {
		sc := benchScenario(int64(i + 1))
		sc.N = 400
		sc.Duration = 300
		sc.CatalogSize = 300
		rows, err := experiments.RedundancySweep(sc, []int{2})
		if err != nil {
			b.Fatal(err)
		}
		under = rows[0].UnderFrac
	}
	b.ReportMetric(under, "underFrac_m2")
}

// BenchmarkEquationInvariants measures a plain steady-state run and
// reports how closely the measured average leaf degree tracks
// k_l = m·η (Equation a) — the structural identity DLM's μ estimation
// rests on.
func BenchmarkEquationInvariants(b *testing.B) {
	var relErr float64
	for i := 0; i < b.N; i++ {
		sc := benchScenario(int64(i + 1))
		res, err := experiments.Run(experiments.RunConfig{Scenario: sc, Manager: experiments.ManagerStatic})
		if err != nil {
			b.Fatal(err)
		}
		// Under the static manager the ratio is exact, so measured l_nn
		// should approach m·(actual ratio).
		f := res.Final
		expect := f.AvgSuperDegreeOfLeaves * f.Ratio
		relErr = math.Abs(f.AvgLeafDegree-expect) / expect
	}
	b.ReportMetric(relErr, "eqA_relErr")
}

// BenchmarkSimulationThroughput reports raw simulated peer-minutes per
// second of wall time for the full DLM stack.
func BenchmarkSimulationThroughput(b *testing.B) {
	sc := benchScenario(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Run(experiments.RunConfig{Scenario: sc, Manager: experiments.ManagerDLM}); err != nil {
			b.Fatal(err)
		}
	}
	peerUnits := float64(sc.N) * sc.Duration
	b.ReportMetric(peerUnits*float64(b.N)/b.Elapsed().Seconds(), "peer-units/s")
}
