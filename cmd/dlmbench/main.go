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

	want := func(name string) bool { return *run == "all" || *run == name }
	start := time.Now()

	if want("fig4") {
		figure(sc, "fig4", dlm.Figure4, *outDir)
	}
	if want("fig5") {
		figure(sc, "fig5", dlm.Figure5, *outDir)
	}
	if want("fig6") {
		figure(sc, "fig6", dlm.Figure6, *outDir)
	}
	if want("fig7") {
		qsc := sc
		qsc.QueryRate = 5
		figure(qsc, "fig7", dlm.Figure7, *outDir)
	}
	if want("fig8") {
		figure(sc, "fig8", dlm.Figure8, *outDir)
	}
	if want("table3") {
		sizes := parseSizes("table3sizes", *t3sizes)
		rows, err := dlm.Table3(sizes, *seed)
		if err != nil {
			fatal(err)
		}
		section("Table 3: Peer Adjustment Overhead Analysis")
		fmt.Print(dlm.FormatTable3(rows))
		writeText(*outDir, "table3.txt", dlm.FormatTable3(rows))
	}
	if want("overhead") {
		osc := sc
		osc.QueryRate = 10
		osc.Duration = 600
		res, err := dlm.Overhead(osc)
		if err != nil {
			fatal(err)
		}
		section("§6 Overhead Study: DLM info exchange vs search traffic")
		fmt.Print(res.Format())
		writeText(*outDir, "overhead.txt", res.Format())
	}
	if want("policy") {
		psc := sc
		psc.Duration = 600
		rows, err := dlm.PolicyAblation(psc, []float64{1, 5, 20})
		if err != nil {
			fatal(err)
		}
		section("Ablation A1: event-driven vs periodic information exchange")
		fmt.Print(dlm.FormatPolicyAblation(rows))
		writeText(*outDir, "policy_ablation.txt", dlm.FormatPolicyAblation(rows))
	}
	if want("gain") {
		gsc := sc
		gsc.Duration = 600
		section("Ablation A2: reconstructed controller gains")
		for _, knob := range []struct {
			name   string
			values []float64
		}{
			{"beta", []float64{0.25, 0.5, 1, 2}},
			{"rategain", []float64{1, 2, 4, 8}},
			{"ratelimit", []float64{0, 1}},
			{"window", []float64{0, 30, 60, 120}},
			{"refresh", []float64{0, 15, 30, 60}},
			{"sharpness", []float64{0, 2, 4}},
		} {
			rows, err := dlm.GainAblation(gsc, knob.name, knob.values)
			if err != nil {
				fatal(err)
			}
			fmt.Print(dlm.FormatGainAblation(rows))
			writeText(*outDir, "gain_"+knob.name+".txt", dlm.FormatGainAblation(rows))
		}
	}
	if want("search") {
		ssc := sc
		ssc.Duration = 400
		ssc.Warmup = 250
		rows, err := dlm.SearchEfficiency(ssc, []int{2, 3, 4, 5, 6, 7}, 300)
		if err != nil {
			fatal(err)
		}
		section("Motivation: search efficiency, pure P2P vs super-peer (same workload)")
		fmt.Print(dlm.FormatSearchRows(rows))
		writeText(*outDir, "search.txt", dlm.FormatSearchRows(rows))
	}
	if want("latency") {
		lsc := sc
		lsc.Duration = 600
		lsc.QueryRate = 2
		rows, err := dlm.LatencyAblation(lsc, []float64{0, 0.05, 0.2, 1})
		if err != nil {
			fatal(err)
		}
		section("Extension: message-latency sweep (stale-by-transit information)")
		fmt.Print(dlm.FormatLatency(rows))
		writeText(*outDir, "latency.txt", dlm.FormatLatency(rows))
	}
	if want("cap") {
		csc := sc
		csc.Duration = 600
		csc.Warmup = 250
		rows, err := dlm.CapAblation(csc, []float64{0, 3, 2, 1.2, 0.8})
		if err != nil {
			fatal(err)
		}
		section("Extension: leaf-degree cap vs the μ signal (deployment warning)")
		fmt.Print(dlm.FormatCap(rows))
		writeText(*outDir, "cap.txt", dlm.FormatCap(rows))
	}
	if want("failure") {
		fsc := sc
		fsc.Duration = 800
		fsc.Warmup = 300
		fsc.QueryRate = 5
		rows, err := dlm.FailureSweep(fsc, []float64{0.25, 0.5, 0.75})
		if err != nil {
			fatal(err)
		}
		section("Extension: correlated super-layer failure and recovery")
		fmt.Print(dlm.FormatFailure(rows))
		writeText(*outDir, "failure.txt", dlm.FormatFailure(rows))
	}
	if want("robustness") {
		asc := sc
		// The ratio converges slowly; measure the settled tail only.
		asc.Warmup = dlm.SettledWindowStart
		rows, err := dlm.Robustness(asc, []float64{0, 1, 5, 10, 20})
		if err != nil {
			fatal(err)
		}
		section("Extension: robustness under message loss/jitter/duplication")
		fmt.Print(dlm.FormatRobustness(rows))
		writeText(*outDir, "robustness.txt", dlm.FormatRobustness(rows))
	}
	if want("redundancy") {
		rsc := sc
		rsc.Duration = 500
		rsc.Warmup = 200
		rows, err := dlm.RedundancySweep(rsc, []int{1, 2, 3, 4})
		if err != nil {
			fatal(err)
		}
		section("Extension: leaf redundancy sweep (what m buys)")
		fmt.Print(dlm.FormatRedundancy(rows))
		writeText(*outDir, "redundancy.txt", dlm.FormatRedundancy(rows))
	}
	if *run == "scale" { // opt-in only: the top size simulates a million peers
		sizes := parseSizes("scalesizes", *scSizes)
		// Serial against what this host can run in parallel: one row
		// per N when that is also 1.
		shardCounts := []int{1}
		if procs := runtime.GOMAXPROCS(0); procs > 1 {
			shardCounts = append(shardCounts, procs)
		}
		rows, err := dlm.Scale(sizes, shardCounts, *seed)
		if err != nil {
			fatal(err)
		}
		section("Scaling: end-to-end throughput vs population size")
		fmt.Print(dlm.FormatScale(rows))
		writeText(*outDir, "scale.txt", dlm.FormatScale(rows))
	}
	if *run == "adversarial" { // opt-in only: the top size simulates a million peers
		sizes := parseSizes("advsizes", *advSizes)
		rows, err := dlm.Adversarial(sizes, *seed)
		if err != nil {
			fatal(err)
		}
		section("Extension: adversarial scenario pack (flash crowd, diurnal, partition, liars, mass kill)")
		fmt.Print(dlm.FormatAdversarial(rows))
		writeText(*outDir, "adversarial.txt", dlm.FormatAdversarial(rows))
	}
	if want("baselines") {
		bsc := sc
		bsc.Duration = 600
		rows, err := dlm.BaselineSweep(bsc)
		if err != nil {
			fatal(err)
		}
		section("Ablation A3: policy spectrum (DLM vs preconfigured vs static vs oracle)")
		fmt.Print(dlm.FormatBaselineSweep(rows))
		writeText(*outDir, "baselines.txt", dlm.FormatBaselineSweep(rows))
	}

	fmt.Printf("\ndone in %.1fs\n", time.Since(start).Seconds())
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
