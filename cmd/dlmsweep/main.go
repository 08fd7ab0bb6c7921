// Command dlmsweep runs parameter sweeps with parallel replicated trials
// and emits a CSV: one row per sweep point with mean ± CI for the key
// outcome metrics. It answers "how does DLM behave as η / n / m changes?"
// with proper replication, fanned across CPU cores.
//
//	dlmsweep -param eta -values 5,10,20,40,80 -n 1500 -repeats 4
//	dlmsweep -param n -values 500,1000,2000,4000 -repeats 3 -csv sweep.csv
//	dlmsweep -param m -values 1,2,3,4 -n 1500
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"dlm/internal/config"
	"dlm/internal/experiments"
	"dlm/internal/parexp"
	"dlm/internal/stats"
)

type outcome struct {
	experiments.WindowSummary
	pao float64
}

func main() {
	var (
		param    = flag.String("param", "eta", "sweep parameter: eta|n|m")
		values   = flag.String("values", "5,10,20,40", "comma-separated sweep values")
		n        = flag.Int("n", 1500, "population (ignored for -param n)")
		repeats  = flag.Int("repeats", 3, "trials per sweep point")
		duration = flag.Float64("duration", 600, "simulated time units")
		seed     = flag.Int64("seed", 1, "base seed")
		csvPath  = flag.String("csv", "", "write results as CSV")
	)
	flag.Parse()

	var points []float64
	for _, part := range strings.Split(*values, ",") {
		v, err := strconv.ParseFloat(strings.TrimSpace(part), 64)
		if err != nil {
			fatal(fmt.Errorf("bad -values: %w", err))
		}
		points = append(points, v)
	}

	scenarioFor := func(v float64) config.Scenario {
		size := *n
		if *param == "n" {
			size = int(v)
		}
		sc := config.Scaled(size)
		sc.Duration = *duration
		sc.Warmup = *duration / 3
		switch *param {
		case "eta":
			sc.Eta = v
		case "m":
			sc.M = int(v)
		case "n":
		default:
			fatal(fmt.Errorf("unknown -param %q", *param))
		}
		return sc
	}

	results, err := parexp.Sweep(points, *repeats, parexp.Options{BaseSeed: *seed},
		func(v float64, trialSeed int64) (outcome, error) {
			sc := scenarioFor(v)
			sc.Seed = trialSeed*101 + 7
			res, err := experiments.Run(experiments.RunConfig{
				Scenario: sc, Manager: experiments.ManagerDLM,
			})
			if err != nil {
				return outcome{}, err
			}
			return outcome{res.Window(sc), res.WindowCounters.PAOOverNLCO()}, nil
		})
	if err != nil {
		fatal(err)
	}

	var b strings.Builder
	fmt.Fprintf(&b, "%s,ratio_mean,ratio_mean_ci,ratio_rmse,cap_sep,age_sep,pao_pct\n", *param)
	fmt.Printf("%-10s %-18s %-12s %-10s %-10s %s\n",
		*param, "ratio mean ±CI", "ratio RMSE", "cap sep", "age sep", "PAO%")
	for i, v := range points {
		var rm, rr, cs, as, pao stats.Welford
		for _, o := range results[i] {
			rm.Add(o.RatioMean)
			rr.Add(o.RatioRMSE)
			cs.Add(o.CapSeparation)
			as.Add(o.AgeSeparation)
			pao.Add(o.pao)
		}
		fmt.Printf("%-10g %7.1f ± %-8.1f %-12.1f %-10.2f %-10.2f %.2f\n",
			v, rm.Mean(), rm.CI95(), rr.Mean(), cs.Mean(), as.Mean(), pao.Mean())
		fmt.Fprintf(&b, "%g,%g,%g,%g,%g,%g,%g\n",
			v, rm.Mean(), rm.CI95(), rr.Mean(), cs.Mean(), as.Mean(), pao.Mean())
	}

	if *csvPath != "" {
		if err := os.WriteFile(*csvPath, []byte(b.String()), 0o644); err != nil {
			fatal(err)
		}
		fmt.Printf("csv written to %s\n", *csvPath)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "dlmsweep:", err)
	os.Exit(1)
}
