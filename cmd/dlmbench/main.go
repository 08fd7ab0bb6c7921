// Command dlmbench regenerates every table and figure of the paper's
// evaluation, printing ASCII renditions and writing the results/ files.
//
//	dlmbench                  # everything at the default scale
//	dlmbench -run fig7        # one experiment
//	dlmbench -n 5000 -out results/
//
// Scale note: -n sets the population for the figure scenarios; Table 3
// uses its own size ladder (-table3sizes).
package main

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"

	"dlm/internal/config"
	"dlm/internal/experiments"
	"dlm/internal/scenario"
)

// The flags. TestGoldenFigures reads them at their defaults.
var (
	run        = flag.String("run", "all", "experiment: all, or one named by itself or by the stem of a file it writes: fig4|fig5|fig6 (one run: prints and writes all three)|fig7|fig8|table3|overhead|policy|gain (all ten gain_*.txt)|search|latency|cap|failure|robustness|redundancy|baselines|scale|adversarial (scale and adversarial are opt-in: not part of all)")
	n          = flag.Int("n", 2000, "population for figure scenarios")
	seed       = flag.Int64("seed", 1, "base seed")
	outDir     = flag.String("out", "", "directory for the results/ files (empty = no files)")
	t3sizes    = flag.String("table3sizes", "1000,4000,16000", "comma-separated network sizes for Table 3")
	scSizes    = flag.String("scalesizes", "10000,100000,1000000", "comma-separated population sizes for -run scale")
	advSizes   = flag.String("advsizes", "10000,100000,1000000", "comma-separated population sizes for -run adversarial")
	workers    = flag.Int("workers", 0, "worker pool cap for parallel sweeps (0 = GOMAXPROCS; results are identical for any value)")
	dur        = flag.Float64("duration", experiments.SettledWindowEnd, "figure scenario duration (covers both regime changes)")
	cpuProfile = flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
	memProfile = flag.String("memprofile", "", "write a heap profile at exit to this file")
)

func main() {
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

	experiments.DefaultWorkers = *workers

	if *outDir != "" {
		if err := os.MkdirAll(*outDir, 0o755); err != nil {
			fatal(err)
		}
	}

	sc := defaults(*n, *seed, *dur)
	start := time.Now()
	selected := false
	for _, a := range artifacts() {
		if !a.selectedBy(*run) {
			continue
		}
		selected = true
		outs, err := a.run(sc)
		if err != nil {
			fatal(fmt.Errorf("%s: %w", a.name, err))
		}
		for i, out := range outs {
			if out.title != "" {
				section(out.title)
			}
			fmt.Print(out.text)
			if *outDir == "" {
				continue
			}
			path := filepath.Join(*outDir, a.files[i])
			if err := os.WriteFile(path, out.data, 0o644); err != nil {
				fatal(err)
			}
			if filepath.Ext(path) == ".csv" {
				fmt.Printf("csv: %s\n", path)
			}
		}
	}
	if !selected {
		fatal(fmt.Errorf("-run %q names no experiment", *run))
	}

	fmt.Printf("\ndone in %.1fs\n", time.Since(start).Seconds())
}

// defaults is the scenario every artifact starts from: the figure
// scenario at population n.
func defaults(n int, seed int64, duration float64) config.Scenario {
	sc := config.Scaled(n)
	sc.Seed = seed
	sc.Duration = duration
	sc.Warmup = 200
	sc.SampleEvery = 10
	return sc
}

// artifact is one experiment of the evaluation: the driver that adjusts
// the default scenario, runs and renders, and the results/ files it
// writes.
type artifact struct {
	name  string   // selects it for -run, as does the stem of each of its files
	files []string // one per output, in order
	optIn bool     // runs only when selected: not part of "all"
	run   func(config.Scenario) ([]output, error)
}

// output is one file an artifact writes, and what dlmbench prints for it.
type output struct {
	title string // section heading; empty continues the previous section
	text  string
	data  []byte
}

func (a artifact) selectedBy(run string) bool {
	if run == "all" {
		return !a.optIn
	}
	for _, f := range a.files {
		if strings.TrimSuffix(f, filepath.Ext(f)) == run {
			return true
		}
	}
	return run == a.name
}

// figures prints each figure as a chart with its notes and writes it as
// CSV.
func figures(figs []*experiments.FigureResult, err error) ([]output, error) {
	if err != nil {
		return nil, err
	}
	outs := make([]output, len(figs))
	for i, f := range figs {
		var text strings.Builder
		text.WriteString(f.Render(72, 18))
		for _, note := range f.Notes {
			fmt.Fprintf(&text, "note: %s\n", note)
		}
		var csv bytes.Buffer
		if err := f.WriteCSV(&csv); err != nil {
			return nil, err
		}
		outs[i] = output{title: f.Title, text: text.String(), data: csv.Bytes()}
	}
	return outs, nil
}

func one(f *experiments.FigureResult, err error) ([]*experiments.FigureResult, error) {
	return []*experiments.FigureResult{f}, err
}

// text adapts a study driver's (rows, error) to its one output: the
// formatted rows under a section title, printed and written as they are.
func text[T any](title string, format func(T) string) func(T, error) ([]output, error) {
	return func(rows T, err error) ([]output, error) {
		if err != nil {
			return nil, err
		}
		s := format(rows)
		return []output{{title: title, text: s, data: []byte(s)}}, nil
	}
}

// gains are the Ablation A2 sweeps, one results/gain_<knob>.txt each.
var gains = []struct {
	knob   string
	values []float64
}{
	{"beta", []float64{0.25, 0.5, 1, 2}},
	{"rategain", []float64{1, 2, 4, 8}},
	{"ratelimit", []float64{0, 1}},
	{"window", []float64{0, 30, 60, 120}},
	{"refresh", []float64{0, 15, 30, 60}},
	{"sharpness", []float64{0, 2, 4}},
	{"betacapa", []float64{0.1, 0.3, 1, 2}},
	{"lambda", []float64{0.5, 1, 2, 4}},
	{"cooldown", []float64{0, 2, 5, 10, 20}},
	{"democooldown", []float64{0, 50, 100, 200}},
}

// artifacts lists the evaluation in the order dlmbench runs and prints it.
// The size lists are parsed only by the artifact that uses them.
func artifacts() []artifact {
	var gainFiles []string
	for _, g := range gains {
		gainFiles = append(gainFiles, "gain_"+g.knob+".txt")
	}
	return []artifact{
		{name: "fig4-6", files: []string{"fig4.csv", "fig5.csv", "fig6.csv"}, run: func(sc config.Scenario) ([]output, error) {
			return figures(experiments.DynamicFigures(sc))
		}},
		{name: "fig7", files: []string{"fig7.csv"}, run: func(sc config.Scenario) ([]output, error) {
			sc.QueryRate = 5
			return figures(one(experiments.Figure7(sc)))
		}},
		{name: "fig8", files: []string{"fig8.csv"}, run: func(sc config.Scenario) ([]output, error) {
			return figures(one(experiments.Figure8(sc)))
		}},
		{name: "table3", files: []string{"table3.txt"}, run: func(sc config.Scenario) ([]output, error) {
			return text("Table 3: Peer Adjustment Overhead Analysis", experiments.FormatTable3)(
				experiments.Table3(parseSizes("table3sizes", *t3sizes), sc.Seed))
		}},
		{name: "overhead", files: []string{"overhead.txt"}, run: func(sc config.Scenario) ([]output, error) {
			sc.QueryRate, sc.Duration = 10, 600
			return text("§6 Overhead Study: DLM info exchange vs search traffic", (*experiments.OverheadResult).Format)(
				experiments.Overhead(sc))
		}},
		{name: "policy", files: []string{"policy_ablation.txt"}, run: func(sc config.Scenario) ([]output, error) {
			sc.Duration = 600
			return text("Ablation A1: event-driven vs periodic information exchange", experiments.FormatPolicyAblation)(
				experiments.PolicyAblation(sc, []float64{1, 5, 20}))
		}},
		{name: "gain", files: gainFiles, run: func(sc config.Scenario) ([]output, error) {
			sc.Duration = 600
			var outs []output
			for _, g := range gains {
				rows, err := experiments.GainAblation(sc, g.knob, g.values)
				if err != nil {
					return nil, err
				}
				s := experiments.FormatGainAblation(rows)
				outs = append(outs, output{text: s, data: []byte(s)})
			}
			outs[0].title = "Ablation A2: reconstructed controller gains"
			return outs, nil
		}},
		{name: "search", files: []string{"search.txt"}, run: func(sc config.Scenario) ([]output, error) {
			sc.Duration, sc.Warmup = 400, 250
			return text("Motivation: search efficiency, pure P2P vs super-peer (same workload)", experiments.FormatSearchRows)(
				experiments.SearchEfficiency(sc, []int{2, 3, 4, 5, 6, 7}, 300))
		}},
		{name: "latency", files: []string{"latency.txt"}, run: func(sc config.Scenario) ([]output, error) {
			sc.Duration, sc.QueryRate = 600, 2
			return text("Extension: message-latency sweep (stale-by-transit information)", experiments.FormatLatency)(
				experiments.LatencyAblation(sc, []float64{0, 0.05, 0.2, 1}))
		}},
		{name: "cap", files: []string{"cap.txt"}, run: func(sc config.Scenario) ([]output, error) {
			sc.Duration, sc.Warmup = 600, 250
			return text("Extension: leaf-degree cap vs the μ signal (deployment warning)", experiments.FormatCap)(
				experiments.CapAblation(sc, []float64{0, 3, 2, 1.2, 0.8}))
		}},
		{name: "failure", files: []string{"failure.txt"}, run: func(sc config.Scenario) ([]output, error) {
			sc.Duration, sc.Warmup, sc.QueryRate = 800, 300, 5
			return text("Extension: correlated super-layer failure and recovery", experiments.FormatFailure)(
				experiments.FailureSweep(sc, []float64{0.25, 0.5, 0.75}))
		}},
		{name: "robustness", files: []string{"robustness.txt"}, run: func(sc config.Scenario) ([]output, error) {
			// The ratio converges slowly; measure the settled tail only.
			sc.Warmup = experiments.SettledWindowStart
			return text("Extension: robustness under message loss/jitter/duplication", experiments.FormatRobustness)(
				experiments.Robustness(sc, []float64{0, 1, 5, 10, 20}))
		}},
		{name: "redundancy", files: []string{"redundancy.txt"}, run: func(sc config.Scenario) ([]output, error) {
			sc.Duration, sc.Warmup = 500, 200
			return text("Extension: leaf redundancy sweep (what m buys)", experiments.FormatRedundancy)(
				experiments.RedundancySweep(sc, []int{1, 2, 3, 4}))
		}},
		// scale and adversarial are opt-in: the top size simulates a million
		// peers, and scale records wall-clock columns.
		{name: "scale", files: []string{"scale.txt"}, optIn: true, run: func(sc config.Scenario) ([]output, error) {
			// Serial against what this host can run in parallel: one row
			// per N when that is also 1.
			shardCounts := []int{1}
			if procs := runtime.GOMAXPROCS(0); procs > 1 {
				shardCounts = append(shardCounts, procs)
			}
			return text("Scaling: end-to-end throughput vs population size", experiments.FormatScale)(
				experiments.Scale(parseSizes("scalesizes", *scSizes), shardCounts, sc.Seed))
		}},
		{name: "adversarial", files: []string{"adversarial.txt"}, optIn: true, run: func(sc config.Scenario) ([]output, error) {
			return text("Extension: adversarial scenario pack (flash crowd, diurnal, partition, liars, mass kill)", scenario.FormatAdversarial)(
				scenario.Adversarial(parseSizes("advsizes", *advSizes), sc.Seed))
		}},
		{name: "baselines", files: []string{"baselines.txt"}, run: func(sc config.Scenario) ([]output, error) {
			sc.Duration = 600
			return text("Ablation A3: policy spectrum (DLM vs preconfigured vs static vs oracle)", experiments.FormatBaselineSweep)(
				experiments.BaselineSweep(sc))
		}},
	}
}

func section(title string) {
	fmt.Printf("\n%s\n%s\n", title, strings.Repeat("=", len(title)))
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
