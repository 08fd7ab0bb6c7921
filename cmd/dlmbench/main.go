// Command dlmbench regenerates every table and figure of the paper's
// evaluation, printing ASCII renditions and writing CSV artifacts.
//
//	dlmbench                  # everything at the default scale
//	dlmbench -run fig7        # one experiment
//	dlmbench -n 5000 -out results/
//
// Scale note: -n sets the population for the figure scenarios; Table 3
// uses its own size ladder (-table3sizes).
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"

	"dlm"
)

func main() {
	var (
		run        = flag.String("run", "all", "experiment: all|fig4|fig5|fig6|fig7|fig8|table3|overhead|policy|gain|baselines|search|redundancy|latency|failure|cap|robustness|scale|adversarial (scale and adversarial are opt-in: not part of all)")
		n          = flag.Int("n", 2000, "population for figure scenarios")
		seed       = flag.Int64("seed", 1, "base seed")
		outDir     = flag.String("out", "", "directory for CSV artifacts (empty = no files)")
		t3sizes    = flag.String("table3sizes", "1000,4000,16000", "comma-separated network sizes for Table 3")
		scSizes    = flag.String("scalesizes", "10000,100000,1000000", "comma-separated population sizes for -run scale")
		advSizes   = flag.String("advsizes", "10000,100000,1000000", "comma-separated population sizes for -run adversarial")
		workers    = flag.Int("workers", 0, "worker pool cap for parallel sweeps (0 = GOMAXPROCS; results are identical for any value)")
		dur        = flag.Float64("duration", dlm.SettledWindowEnd, "figure scenario duration (covers both regime changes)")
		cpuProfile = flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
		memProfile = flag.String("memprofile", "", "write a heap profile at exit to this file")
	)
	flag.Parse()

	if *cpuProfile != "" {
		fh, err := os.Create(*cpuProfile)
		if err != nil {
			fatal(err)
		}
		if err := pprof.StartCPUProfile(fh); err != nil {
			fatal(err)
		}
		defer func() {
			pprof.StopCPUProfile()
			fh.Close()
		}()
	}
	if *memProfile != "" {
		defer func() {
			fh, err := os.Create(*memProfile)
			if err != nil {
				fatal(err)
			}
			defer fh.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(fh); err != nil {
				fatal(err)
			}
		}()
	}

	dlm.SetWorkers(*workers)

	if *outDir != "" {
		if err := os.MkdirAll(*outDir, 0o755); err != nil {
			fatal(err)
		}
	}

	sc := dlm.Scaled(*n)
	sc.Seed = *seed
	sc.Duration = *dur
	sc.Warmup = 200
	sc.SampleEvery = 10

	start := time.Now()

	for _, fig := range []struct {
		id  string
		run func(dlm.Scenario) (*dlm.FigureResult, error)
	}{{"fig4", dlm.Figure4}, {"fig5", dlm.Figure5}, {"fig6", dlm.Figure6}, {"fig7", dlm.Figure7}, {"fig8", dlm.Figure8}} {
		if *run != "all" && *run != fig.id {
			continue
		}
		fsc := sc
		if fig.id == "fig7" {
			fsc.QueryRate = 5
		}
		figure(fsc, fig.id, fig.run, *outDir)
	}
	for _, st := range studies(*t3sizes, *scSizes, *advSizes) {
		if *run != st.name && (st.optIn || *run != "all") {
			continue
		}
		ssc := sc
		if st.tweak != nil {
			st.tweak(&ssc)
		}
		text, err := st.run(ssc)
		if err != nil {
			fatal(err)
		}
		if st.title != "" {
			section(st.title)
		}
		fmt.Print(text)
		writeText(*outDir, st.file, text)
	}

	fmt.Printf("\ndone in %.1fs\n", time.Since(start).Seconds())
}

// study is one text artifact of the evaluation: the scenario tweak it
// applies to the figure scenario, the driver that renders it, and the
// results/ file it is written to.
type study struct {
	name  string // the -run selector
	title string // section heading; empty continues the previous study's section
	file  string
	optIn bool // runs only when named: not part of "all"
	tweak func(*dlm.Scenario)
	run   func(dlm.Scenario) (string, error)
}

// formatted adapts a driver's (rows, error) to a study's text.
func formatted[T any](format func(T) string) func(T, error) (string, error) {
	return func(rows T, err error) (string, error) {
		if err != nil {
			return "", err
		}
		return format(rows), nil
	}
}

// studies lists the text artifacts in the order dlmbench runs and prints
// them. The size lists are parsed only by the study that uses them.
func studies(t3sizes, scSizes, advSizes string) []study {
	short := func(sc *dlm.Scenario) { sc.Duration = 600 }
	gain := func(title, knob string, values ...float64) study {
		return study{name: "gain", title: title, file: "gain_" + knob + ".txt", tweak: short,
			run: func(sc dlm.Scenario) (string, error) {
				return formatted(dlm.FormatGainAblation)(dlm.GainAblation(sc, knob, values))
			}}
	}
	return []study{
		{name: "table3", title: "Table 3: Peer Adjustment Overhead Analysis", file: "table3.txt",
			run: func(sc dlm.Scenario) (string, error) {
				return formatted(dlm.FormatTable3)(dlm.Table3(parseSizes("table3sizes", t3sizes), sc.Seed))
			}},
		{name: "overhead", title: "§6 Overhead Study: DLM info exchange vs search traffic", file: "overhead.txt",
			tweak: func(sc *dlm.Scenario) { sc.QueryRate, sc.Duration = 10, 600 },
			run: func(sc dlm.Scenario) (string, error) {
				return formatted((*dlm.OverheadResult).Format)(dlm.Overhead(sc))
			}},
		{name: "policy", title: "Ablation A1: event-driven vs periodic information exchange", file: "policy_ablation.txt",
			tweak: short,
			run: func(sc dlm.Scenario) (string, error) {
				return formatted(dlm.FormatPolicyAblation)(dlm.PolicyAblation(sc, []float64{1, 5, 20}))
			}},
		gain("Ablation A2: reconstructed controller gains", "beta", 0.25, 0.5, 1, 2),
		gain("", "rategain", 1, 2, 4, 8),
		gain("", "ratelimit", 0, 1),
		gain("", "window", 0, 30, 60, 120),
		gain("", "refresh", 0, 15, 30, 60),
		gain("", "sharpness", 0, 2, 4),
		gain("", "betacapa", 0.1, 0.3, 1, 2),
		gain("", "lambda", 0.5, 1, 2, 4),
		gain("", "cooldown", 0, 2, 5, 10, 20),
		gain("", "democooldown", 0, 50, 100, 200),
		{name: "search", title: "Motivation: search efficiency, pure P2P vs super-peer (same workload)", file: "search.txt",
			tweak: func(sc *dlm.Scenario) { sc.Duration, sc.Warmup = 400, 250 },
			run: func(sc dlm.Scenario) (string, error) {
				return formatted(dlm.FormatSearchRows)(dlm.SearchEfficiency(sc, []int{2, 3, 4, 5, 6, 7}, 300))
			}},
		{name: "latency", title: "Extension: message-latency sweep (stale-by-transit information)", file: "latency.txt",
			tweak: func(sc *dlm.Scenario) { sc.Duration, sc.QueryRate = 600, 2 },
			run: func(sc dlm.Scenario) (string, error) {
				return formatted(dlm.FormatLatency)(dlm.LatencyAblation(sc, []float64{0, 0.05, 0.2, 1}))
			}},
		{name: "cap", title: "Extension: leaf-degree cap vs the μ signal (deployment warning)", file: "cap.txt",
			tweak: func(sc *dlm.Scenario) { sc.Duration, sc.Warmup = 600, 250 },
			run: func(sc dlm.Scenario) (string, error) {
				return formatted(dlm.FormatCap)(dlm.CapAblation(sc, []float64{0, 3, 2, 1.2, 0.8}))
			}},
		{name: "failure", title: "Extension: correlated super-layer failure and recovery", file: "failure.txt",
			tweak: func(sc *dlm.Scenario) { sc.Duration, sc.Warmup, sc.QueryRate = 800, 300, 5 },
			run: func(sc dlm.Scenario) (string, error) {
				return formatted(dlm.FormatFailure)(dlm.FailureSweep(sc, []float64{0.25, 0.5, 0.75}))
			}},
		{name: "robustness", title: "Extension: robustness under message loss/jitter/duplication", file: "robustness.txt",
			// The ratio converges slowly; measure the settled tail only.
			tweak: func(sc *dlm.Scenario) { sc.Warmup = dlm.SettledWindowStart },
			run: func(sc dlm.Scenario) (string, error) {
				return formatted(dlm.FormatRobustness)(dlm.Robustness(sc, []float64{0, 1, 5, 10, 20}))
			}},
		{name: "redundancy", title: "Extension: leaf redundancy sweep (what m buys)", file: "redundancy.txt",
			tweak: func(sc *dlm.Scenario) { sc.Duration, sc.Warmup = 500, 200 },
			run: func(sc dlm.Scenario) (string, error) {
				return formatted(dlm.FormatRedundancy)(dlm.RedundancySweep(sc, []int{1, 2, 3, 4}))
			}},
		// scale and adversarial are opt-in: the top size simulates a million peers.
		{name: "scale", title: "Scaling: end-to-end throughput vs population size", file: "scale.txt", optIn: true,
			run: func(sc dlm.Scenario) (string, error) {
				// Serial against what this host can run in parallel: one row
				// per N when that is also 1.
				shardCounts := []int{1}
				if procs := runtime.GOMAXPROCS(0); procs > 1 {
					shardCounts = append(shardCounts, procs)
				}
				return formatted(dlm.FormatScale)(dlm.Scale(parseSizes("scalesizes", scSizes), shardCounts, sc.Seed))
			}},
		{name: "adversarial", title: "Extension: adversarial scenario pack (flash crowd, diurnal, partition, liars, mass kill)", file: "adversarial.txt", optIn: true,
			run: func(sc dlm.Scenario) (string, error) {
				return formatted(dlm.FormatAdversarial)(dlm.Adversarial(parseSizes("advsizes", advSizes), sc.Seed))
			}},
		{name: "baselines", title: "Ablation A3: policy spectrum (DLM vs preconfigured vs static vs oracle)", file: "baselines.txt",
			tweak: short,
			run: func(sc dlm.Scenario) (string, error) {
				return formatted(dlm.FormatBaselineSweep)(dlm.BaselineSweep(sc))
			}},
	}
}

func figure(sc dlm.Scenario, id string, f func(dlm.Scenario) (*dlm.FigureResult, error), outDir string) {
	res, err := f(sc)
	if err != nil {
		fatal(fmt.Errorf("%s: %w", id, err))
	}
	section(res.Title)
	fmt.Print(dlm.RenderFigure(res, 72, 18))
	for _, note := range res.Notes {
		fmt.Printf("note: %s\n", note)
	}
	if outDir != "" {
		path := filepath.Join(outDir, id+".csv")
		fh, err := os.Create(path)
		if err != nil {
			fatal(err)
		}
		if err := dlm.WriteFigureCSV(res, fh); err != nil {
			fatal(err)
		}
		if err := fh.Close(); err != nil {
			fatal(err)
		}
		fmt.Printf("csv: %s\n", path)
	}
}

func section(title string) {
	fmt.Printf("\n%s\n%s\n", title, strings.Repeat("=", len(title)))
}

func writeText(dir, name, content string) {
	if dir == "" {
		return
	}
	if err := os.WriteFile(filepath.Join(dir, name), []byte(content), 0o644); err != nil {
		fatal(err)
	}
}

// parseSizes reads a comma-separated list of population sizes, the value
// of the named flag.
func parseSizes(flagName, s string) []int {
	var sizes []int
	for _, part := range strings.Split(s, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil {
			fatal(fmt.Errorf("bad -%s: %w", flagName, err))
		}
		sizes = append(sizes, v)
	}
	return sizes
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "dlmbench:", err)
	os.Exit(1)
}
