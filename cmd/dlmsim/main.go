// Command dlmsim runs one super-peer simulation scenario and reports the
// layer statistics, optionally plotting the ratio series and exporting
// CSV/trace artifacts.
//
// Examples:
//
//	dlmsim -n 2000 -duration 600
//	dlmsim -n 5000 -manager preconfigured -plot
//	dlmsim -n 1000 -queries 10 -csv run.csv -trace run.jsonl
package main

import (
	"flag"
	"fmt"
	"os"

	"dlm"
	"dlm/internal/config"
	"dlm/internal/experiments"
	"dlm/internal/plot"
	"dlm/internal/stats"
)

// options are the flags that do not edit the scenario.
type options struct {
	manager   string
	doPlot    bool
	csvPath   string
	tracePath string
	dynamic   bool
	savePath  string
}

// parseFlags reads the command line into the scenario to run and the
// remaining options. The scenario starts from -config's file (or Scaled(n))
// and only flags actually given edit it: a flag's default must not
// overwrite what the file says.
func parseFlags(fs *flag.FlagSet, args []string) (dlm.Scenario, options, error) {
	var o options
	var (
		n        = fs.Int("n", 2000, "steady-state population")
		eta      = fs.Float64("eta", 0, "target layer size ratio (0 = scenario default)")
		duration = fs.Float64("duration", 0, "simulated time units (0 = scenario default)")
		warmup   = fs.Float64("warmup", 0, "warm-up units before measurement (0 = default)")
		seed     = fs.Int64("seed", 1, "random seed")
		queries  = fs.Float64("queries", 0, "queries per time unit (0 = off)")
		ttl      = fs.Int("ttl", 7, "query TTL")
		confPath = fs.String("config", "", "load the scenario from a JSON file (other scenario flags still override)")
	)
	fs.StringVar(&o.manager, "manager", "dlm", "layer manager: dlm|preconfigured|static|oracle|none")
	fs.BoolVar(&o.doPlot, "plot", false, "render an ASCII ratio chart")
	fs.StringVar(&o.csvPath, "csv", "", "write the sampled series as CSV")
	fs.StringVar(&o.tracePath, "trace", "", "write the lifecycle trace as JSONL")
	fs.BoolVar(&o.dynamic, "dynamic", false, "apply the paper's Figures 4-6 regime changes")
	fs.StringVar(&o.savePath, "saveconfig", "", "write the effective scenario as JSON and exit")
	if err := fs.Parse(args); err != nil {
		return dlm.Scenario{}, o, err
	}

	sc := dlm.Scaled(*n)
	if *confPath != "" {
		loaded, err := config.LoadFile(*confPath)
		if err != nil {
			return dlm.Scenario{}, o, err
		}
		sc = loaded
	}
	if *eta > 0 {
		sc.Eta = *eta
	}
	if *duration > 0 {
		sc.Duration = *duration
	}
	if *warmup > 0 {
		sc.Warmup = *warmup
	}
	fs.Visit(func(f *flag.Flag) {
		switch f.Name {
		case "seed":
			sc.Seed = *seed
		case "queries":
			sc.QueryRate = *queries
		case "ttl":
			sc.TTL = *ttl
		}
	})
	return sc, o, nil
}

func main() {
	sc, o, err := parseFlags(flag.CommandLine, os.Args[1:])
	if err != nil {
		fatal(err)
	}

	if o.savePath != "" {
		if err := sc.SaveFile(o.savePath); err != nil {
			fatal(err)
		}
		fmt.Printf("scenario written to %s\n", o.savePath)
		return
	}

	rc := dlm.RunConfig{
		Scenario: sc,
		Manager:  dlm.ManagerKind(o.manager),
		Queries:  sc.QueryRate > 0,
	}
	if o.dynamic {
		rc = experiments.DynamicScenario(sc)
		rc.Manager = dlm.ManagerKind(o.manager)
	}

	var traceFile *os.File
	if o.tracePath != "" {
		f, err := os.Create(o.tracePath)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		traceFile = f
		rc.TraceTo = f
	}

	res, err := dlm.Run(rc)
	if err != nil {
		fatal(err)
	}

	f := res.Final
	fmt.Printf("scenario %s  manager=%s  seed=%d\n", sc.Name, res.ManagerName, sc.Seed)
	fmt.Printf("t=%.0f  supers=%d  leaves=%d  ratio=%.2f (target η=%.0f)\n",
		f.Time, f.NumSupers, f.NumLeaves, f.Ratio, sc.Eta)
	fmt.Printf("avg age:      super %.1f   leaf %.1f\n", f.AvgAgeSuper, f.AvgAgeLeaf)
	fmt.Printf("avg capacity: super %.1f   leaf %.1f\n", f.AvgCapSuper, f.AvgCapLeaf)
	fmt.Printf("avg l_nn=%.1f (k_l=%.0f)\n", f.AvgLeafDegree, sc.KL())
	c := res.WindowCounters
	fmt.Printf("window: joins=%d leaves=%d promotions=%d demotions=%d PAO/NLCO=%.2f%%\n",
		c.Joins, c.Leaves, c.Promotions, c.Demotions, c.PAOOverNLCO())
	fmt.Printf("traffic: %s\n", res.Traffic.String())
	if res.QueriesIssued > 0 {
		fmt.Printf("queries: %d issued, %.1f%% success, %.1f msgs/query, %.1f hops to first hit\n",
			res.QueriesIssued, 100*res.QuerySuccess, res.QueryMsgsPer, res.QueryHops)
	}
	if len(res.Invariants) > 0 {
		fmt.Printf("INVARIANT VIOLATIONS: %v\n", res.Invariants)
		os.Exit(1)
	}

	if o.doPlot {
		ratio := res.Series.Get("ratio")
		target := stats.NewSeries(fmt.Sprintf("target η=%.0f", sc.Eta))
		if pts := ratio.Points(); len(pts) > 0 {
			target.Add(pts[0].T, sc.Eta)
			target.Add(pts[len(pts)-1].T, sc.Eta)
		}
		fmt.Println(plot.Render(plot.Options{
			Title:  "layer size ratio over time",
			XLabel: "simulation time (minutes)",
			YLabel: "n_l / n_s",
		}, ratio, target))
	}

	if o.csvPath != "" {
		f, err := os.Create(o.csvPath)
		if err != nil {
			fatal(err)
		}
		if err := res.Series.WriteCSV(f); err != nil {
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
		fmt.Printf("series written to %s\n", o.csvPath)
	}
	if traceFile != nil {
		fmt.Printf("trace written to %s\n", traceFile.Name())
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "dlmsim:", err)
	os.Exit(1)
}
