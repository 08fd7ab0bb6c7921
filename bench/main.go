// Command bench is the repository's benchmark: six workloads through the
// real user path (experiments.RunOn on a reused engine), eleven end-to-end
// metrics from untraced repeats, and per-layer metrics from one traced run
// whose spans are recorded here, from outside the packages they time.
//
//	go run -C bench .                       # every workload, traced runs, probes
//	go run -C bench . -selfcheck            # the end-to-end set twice, compared
//	bash bench/run.sh --workload steady100k --seed 3 --seconds 15 --trace 0
//
// The last form is the command of BENCHMARK.json: one workload, one JSON
// object on the last line of standard output. See README.md.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/signal"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"syscall"
	"time"
)

const (
	// runSeeds is how many seeds the harness derives from -seed. A set's
	// repeats take them in turn, and each simulated metric is the median over
	// them: one seed moves cap_sep_x by 12 to 15 % on a 30000-peer overlay,
	// the median of three by 7 to 8 %, at the cost of no extra run.
	runSeeds   = 3
	minRepeats = runSeeds
	maxRepeats = 15
	// selfcheckRepeats is the size of each of -selfcheck's two sets.
	selfcheckRepeats = 5
	// setupSamples is how many extra children a set starts only to time
	// their set-up: setup_s is a few hundredths of a second, single values
	// range over a factor of two, and the median of three is at the mercy
	// of one slow process start.
	setupSamples = 16
	// suiteProbeSeconds and contractProbeSeconds are each probe's time
	// budget: a full second when the suite runs once, a quarter inside a
	// contract run, which must fit eight probes beside three children.
	suiteProbeSeconds    = 1.0
	contractProbeSeconds = 0.25
)

func main() {
	var (
		workloadName = flag.String("workload", "", "run one workload and print the contract's JSON line (default: the whole suite)")
		seed         = flag.Int64("seed", 1, "the only input to workload generation")
		seconds      = flag.Float64("seconds", 15, "measuring budget per workload: repeats beyond the third are added while they fit")
		trace        = flag.Int("trace", 0, "with -workload: 0 reports the end-to-end metrics, 1 the per-layer metrics")
		selfcheck    = flag.Bool("selfcheck", false, "run the end-to-end set twice and check the second against the first by the same-seed tolerances")
		outDir       = flag.String("out", "out", "directory for trace-<workload>.json")

		child     = flag.Bool("child", false, "internal: run one (workload, repeat) in this process")
		traced    = flag.Bool("traced", false, "internal: the child runs traced")
		setupOnly = flag.Bool("setuponly", false, "internal: the child stops when its set-up is done")
		shards    = flag.Int("shards", 1, "internal: the child's intra-run worker count")
		procs     = flag.Int("procs", 0, "internal: the child's GOMAXPROCS")
	)
	flag.Parse()

	if *child {
		err := childMain(childSpec{
			workload: *workloadName, seed: *seed, shards: *shards, procs: *procs,
			traced: *traced, setupOnly: *setupOnly, outDir: *outDir,
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench child:", err)
			os.Exit(1)
		}
		return
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	spec, err := loadBenchmarkJSON()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	h := &harness{
		ctx:    ctx,
		procs:  min(runtime.NumCPU(), 4),
		outDir: *outDir,
		spec:   spec,
	}
	switch {
	case *workloadName != "":
		err = h.contract(*workloadName, *seed, *seconds, *trace)
	case *selfcheck:
		err = h.selfcheck(*seed)
	default:
		err = h.suite(*seed, *seconds)
	}
	if err != nil {
		stop()
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// harness runs children one at a time and folds their results.
type harness struct {
	ctx    context.Context
	procs  int
	outDir string
	spec   *benchmarkJSON
}

// stat is one metric over a run's repeats.
type stat struct{ median, min, max float64 }

func statOf(values []float64) stat {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	mid := len(s) / 2
	med := s[mid]
	if len(s)%2 == 0 {
		med = (s[mid-1] + s[mid]) / 2
	}
	return stat{median: med, min: s[0], max: s[len(s)-1]}
}

// report is one workload's metrics plus its operation tally.
type report struct {
	metrics   map[string]stat
	attempted int
	failed    int
	failures  []string
	digest    string
	// base is the set's first repeat, at runSeed(seed, 0): the untraced
	// baseline of the traced run when the suite runs both.
	base *childResult
}

func (r *report) fail(format string, args ...any) {
	r.failed++
	r.failures = append(r.failures, fmt.Sprintf(format, args...))
}

// tally adds a child's operations to the report: its trials plus, where the
// workload searches, the queries it issued.
func (r *report) tally(s simStats) {
	r.attempted += s.Trials + int(s.QueriesIssued)
	r.failed += s.FailedTrials
	r.failures = append(r.failures, s.FailureMessages...)
}

// child is what the harness asks of a fresh process: the named workload at
// full size, on procs cores.
func (h *harness) child(w workloadDef, seed int64, shards int) childSpec {
	return childSpec{workload: w.name, seed: seed, shards: shards, procs: h.procs, outDir: h.outDir}
}

// runSeed is the seed of a set's repeat i: -seed fans out into runSeeds
// seeds, which the repeats take in turn.
func runSeed(seed int64, i int) int64 {
	return seed*runSeeds + int64(i%runSeeds)
}

// runSet is one set of untraced repeats of a workload, plus the set-up
// times of the children started only to sample them.
type runSet struct {
	runs   []*childResult
	setups []float64
}

// addRepeat runs one more repeat: a fresh child through experiments.RunOn
// with Shards = procs, at the next of the set's seeds.
func (h *harness) addRepeat(s *runSet, w workloadDef, seed int64) error {
	res, err := spawn(h.ctx, h.child(w, runSeed(seed, len(s.runs)), h.procs))
	if err != nil {
		return err
	}
	s.runs = append(s.runs, res)
	s.setups = append(s.setups, res.SetupS)
	return nil
}

// addSetup starts one more child that stops when its set-up is done.
func (h *harness) addSetup(s *runSet, w workloadDef, seed int64) error {
	spec := h.child(w, seed, h.procs)
	spec.setupOnly = true
	res, err := spawn(h.ctx, spec)
	if err != nil {
		return err
	}
	s.setups = append(s.setups, res.SetupS)
	return nil
}

// endToEnd measures one set: at least minRepeats repeats, more while
// another one fits in the seconds budget, then the set-up samples.
func (h *harness) endToEnd(w workloadDef, seed int64, seconds float64) (*report, error) {
	var s runSet
	start := time.Now()
	for len(s.runs) < maxRepeats {
		if n := len(s.runs); n >= minRepeats {
			perRun := time.Since(start).Seconds() / float64(n)
			if time.Since(start).Seconds()+perRun > seconds {
				break
			}
		}
		if err := h.addRepeat(&s, w, seed); err != nil {
			return nil, err
		}
	}
	for i := 0; i < setupSamples; i++ {
		if err := h.addSetup(&s, w, seed); err != nil {
			return nil, err
		}
	}
	return fold(w, seed, &s), nil
}

// fold reports every end-to-end metric of one set, under the issue's names:
// host measurements as medians over all repeats, simulated statistics as
// medians over the set's runSeeds seeds. Operations are those of one repeat
// per seed; a later repeat of a seed must reproduce its digest.
func fold(w workloadDef, seed int64, s *runSet) *report {
	runs := s.runs
	rep := &report{metrics: map[string]stat{}, base: runs[0]}
	var digests []string
	notFound := 0
	for i, r := range runs {
		if i < runSeeds {
			rep.tally(r.Sim)
			digests = append(digests, r.Sim.Digest)
			// A query that found nothing is not a failed operation (no trial
			// broke: the object's holders left or sit beyond the TTL, and the
			// seed decides), but it is an operation that did not succeed.
			notFound += int(r.Sim.QueriesIssued - r.Sim.QueriesFound)
		} else if first := runs[i%runSeeds].Sim.Digest; r.Sim.Digest != first {
			rep.fail("%s seed %d: repeat %d digest %s, repeat %d digest %s", w.name, runSeed(seed, i), i, r.Sim.Digest, i%runSeeds, first)
		}
	}
	rep.digest = strings.Join(digests, " ")
	median := func(runs []*childResult, get func(*childResult) float64) stat {
		values := make([]float64, len(runs))
		for i, r := range runs {
			values[i] = get(r)
		}
		return statOf(values)
	}
	units := w.peerUnits()
	host := map[string]func(*childResult) float64{
		"wall_s":               func(r *childResult) float64 { return r.WallS },
		"peer_units_per_s":     func(r *childResult) float64 { return units / r.WallS },
		"peak_rss_mb":          func(r *childResult) float64 { return r.PeakRSSMB },
		"allocs_per_peer_unit": func(r *childResult) float64 { return float64(r.Mallocs) / units },
	}
	for name, get := range host {
		rep.metrics[name] = median(runs, get)
	}
	rep.metrics["setup_s"] = statOf(s.setups)
	simulated := map[string]func(*childResult) float64{
		"ratio_err_pct":      func(r *childResult) float64 { return r.Sim.RatioErrPct },
		"age_sep_x":          func(r *childResult) float64 { return r.Sim.AgeSepX },
		"cap_sep_x":          func(r *childResult) float64 { return r.Sim.CapSepX },
		"pao_over_nlco_pct":  func(r *childResult) float64 { return r.Sim.PAOOverNLCOPct },
		"msgs_per_peer_unit": func(r *childResult) float64 { return r.Sim.MsgsPerPeerUnit },
	}
	for name, get := range simulated {
		rep.metrics[name] = median(runs[:runSeeds], get)
	}
	failedPct := 100 * float64(rep.failed+notFound) / float64(rep.attempted)
	rep.metrics["ops_failed_pct"] = stat{failedPct, failedPct, failedPct}
	return rep
}

// perLayer runs the traced child and an untraced Shards=1 child and reports
// every per-layer metric, the given probe results among them. base is the
// untraced Shards=procs baseline; nil runs one. The three digests must
// agree.
func (h *harness) perLayer(w workloadDef, seed int64, base *childResult, probes map[string]float64) (*report, error) {
	var err error
	if base == nil {
		if base, err = spawn(h.ctx, h.child(w, seed, h.procs)); err != nil {
			return nil, err
		}
	}
	spec := h.child(w, seed, h.procs)
	spec.traced = true
	tr, err := spawn(h.ctx, spec)
	if err != nil {
		return nil, err
	}
	rep := &report{metrics: map[string]stat{}, digest: base.Sim.Digest}
	rep.tally(base.Sim)
	if tr.Sim.Digest != base.Sim.Digest {
		rep.fail("%s seed %d: traced digest %s, untraced digest %s", w.name, seed, tr.Sim.Digest, base.Sim.Digest)
	}
	// A trial batch already pins Shards=1 and spends procs on trials.
	serial := base
	if w.trials == 1 {
		if serial, err = spawn(h.ctx, h.child(w, seed, 1)); err != nil {
			return nil, err
		}
		if serial.Sim.Digest != base.Sim.Digest {
			rep.fail("%s seed %d: Shards=1 digest %s, Shards=%d digest %s", w.name, seed, serial.Sim.Digest, h.procs, base.Sim.Digest)
		}
	}
	values, err := mergeLayers(h.spec.PerLayer, base, tr, serial, probes)
	if err != nil {
		return nil, fmt.Errorf("%s seed %d: %w", w.name, seed, err)
	}
	for name, v := range values {
		rep.metrics[name] = stat{v, v, v}
	}
	return rep, nil
}

// mergeLayers assembles every per-layer metric from the three children and
// the probes, and checks two things: that what was measured is exactly what
// BENCHMARK.json lists, and the accounting identity the trace rests on (the
// kinds' self times, the root's included, add up to the time under the
// root spans).
func mergeLayers(listed []metric, base, tr, serial *childResult, probes map[string]float64) (map[string]float64, error) {
	s := base.Sim
	values := map[string]float64{
		"run.trace_overhead_pct": 100 * (tr.WallS - base.WallS) / base.WallS,
		"run.serial_wall_s":      serial.WallS,
		"run.shard_speedup_x":    serial.WallS / base.WallS,

		"sim.events":       float64(s.Events),
		"sim.lane_events":  float64(s.LaneEvents),
		"sim.batches":      float64(s.Batches),
		"sim.events_per_s": float64(s.Events) / base.WallS,

		"overlay.promotions":         float64(s.Promotions),
		"overlay.demotions":          float64(s.Demotions),
		"overlay.repair_connections": float64(s.RepairConnections),
		"overlay.churn_reconnects":   float64(s.ChurnReconnects),

		"transport.msgs":        float64(s.Msgs),
		"transport.bytes":       float64(s.Bytes),
		"transport.dlm_msgs":    float64(s.DLMMsgs),
		"transport.search_msgs": float64(s.SearchMsgs),
		"transport.link_drops":  float64(s.LinkDrops),
		"transport.link_dups":   float64(s.LinkDups),

		"core.request_retries": float64(s.RequestRetries),
		"core.request_drops":   float64(s.RequestDrops),

		"query.issued":         float64(s.QueriesIssued),
		"query.success_pct":    ratio(100*float64(s.QueriesFound), float64(s.QueriesIssued)),
		"query.msgs_per_query": s.QueryMsgsPer,
		"query.hops_mean":      s.QueryHopsMean,
	}
	for _, m := range []map[string]float64{tr.Layers, probes} {
		for name, v := range m {
			values[name] = v
		}
	}
	for _, m := range listed {
		if _, ok := values[m.Name]; !ok {
			return nil, fmt.Errorf("per-layer metric %s of BENCHMARK.json was not measured", m.Name)
		}
	}
	if len(values) != len(listed) {
		return nil, fmt.Errorf("%d per-layer metrics measured, BENCHMARK.json lists %d", len(values), len(listed))
	}
	var selfSum float64
	for _, name := range selfTimes {
		selfSum += values[name]
	}
	if busy := values["run.traced_busy_s"]; math.Abs(selfSum-busy) > 0.01*busy {
		return nil, fmt.Errorf("self times sum to %.4f s, root spans to %.4f s", selfSum, busy)
	}
	return values, nil
}

// ratio is a/b, or 0 when b is 0 (a count that stayed at zero on this
// workload).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// contract is one run of the BENCHMARK.json command: a single workload,
// progress on standard error, the result object alone on standard output,
// holding exactly the metrics BENCHMARK.json lists for this kind of run.
func (h *harness) contract(name string, seed int64, seconds float64, trace int) error {
	w, ok := findWorkload(name, 1)
	if !ok {
		return fmt.Errorf("unknown workload %q", name)
	}
	var rep *report
	var err error
	list := h.spec.EndToEnd
	switch trace {
	case 0:
		rep, err = h.endToEnd(w, seed, seconds)
	case 1:
		list = h.spec.PerLayer
		var probes map[string]float64
		if probes, err = runProbes(seed, contractProbeSeconds); err == nil {
			rep, err = h.perLayer(w, runSeed(seed, 0), nil, probes)
		}
	default:
		err = fmt.Errorf("-trace %d, want 0 or 1", trace)
	}
	if err != nil {
		return err
	}
	for _, f := range rep.failures {
		fmt.Fprintln(os.Stderr, "FAILED:", f)
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{rep.failed == 0, rep.attempted, rep.failed, map[string]value{}}
	for _, m := range list {
		from, f := m.Name, func(x float64) float64 { return x }
		if nz, ok := neverZero[m.Name]; ok {
			from, f = nz.from, nz.f
		}
		s, ok := rep.metrics[from]
		if !ok {
			return fmt.Errorf("metric %s of BENCHMARK.json was not measured", m.Name)
		}
		out.Metrics[m.Name] = value{f(s.median), m.Unit}
	}
	line, err := json.Marshal(out)
	if err != nil {
		return err
	}
	fmt.Printf("%s\n", line)
	if rep.failed > 0 {
		return fmt.Errorf("%s: %d of %d operations failed", name, rep.failed, rep.attempted)
	}
	return nil
}

// suite runs everything once: the layer probes, then per workload the
// end-to-end repeats and the traced run against the first of them.
func (h *harness) suite(seed int64, seconds float64) error {
	h.stamp()
	probes, err := runProbes(seed, suiteProbeSeconds)
	if err != nil {
		return err
	}
	failed := 0
	for i, w := range workloads {
		e2e, err := h.endToEnd(w, seed, seconds)
		if err != nil {
			return err
		}
		layers, err := h.perLayer(w, runSeed(seed, 0), e2e.base, probes)
		if err != nil {
			return err
		}
		fmt.Printf("\n== %s  (%s)\n", w.name, h.spec.Workloads[i].Why)
		fmt.Printf("sim_digest %s   operations attempted %d failed %d\n", e2e.digest, e2e.attempted, e2e.failed+layers.failed)
		for _, m := range endToEnd {
			printMetric(m.name, m.unit, e2e.metrics[m.name])
		}
		for _, m := range h.spec.PerLayer {
			printMetric(m.Name, m.Unit, layers.metrics[m.Name])
		}
		for _, f := range append(e2e.failures, layers.failures...) {
			fmt.Println("FAILED:", f)
		}
		failed += e2e.failed + layers.failed
	}
	if failed > 0 {
		return fmt.Errorf("%d operations failed", failed)
	}
	return nil
}

// selfcheck measures the end-to-end set twice on this binary at one seed
// and, for every metric on every workload, prints how much worse the second
// median is than the first against the metric's same-seed tolerance. The
// two sets' children alternate, as the two sides of a parent/change
// comparison do, so that host drift over minutes lands on both alike.
func (h *harness) selfcheck(seed int64) error {
	h.stamp()
	over := 0
	fmt.Printf("%-12s %-22s %14s %14s %12s %12s\n", "workload", "metric", "first", "second", "worse by", "tolerance")
	for _, w := range workloads {
		var sets [2]runSet
		for i := 0; i < selfcheckRepeats+setupSamples; i++ {
			add := h.addRepeat
			if i >= selfcheckRepeats {
				add = h.addSetup
			}
			for j := range sets {
				if err := add(&sets[j], w, seed); err != nil {
					return err
				}
			}
		}
		a, b := fold(w, seed, &sets[0]), fold(w, seed, &sets[1])
		if a.failed+b.failed > 0 {
			return fmt.Errorf("%s: %d operations failed: %v", w.name, a.failed+b.failed, append(a.failures, b.failures...))
		}
		if a.digest != b.digest {
			fmt.Printf("%-12s sim_digest differs: %s vs %s\n", w.name, a.digest, b.digest)
			over++
		}
		for _, m := range endToEnd {
			x, y := a.metrics[m.name].median, b.metrics[m.name].median
			worse := y - x
			if m.better == "higher" {
				worse = x - y
			}
			tolerance := math.Max(m.rel*x, m.abs)
			mark := ""
			if worse > tolerance {
				mark = "  OVER"
				over++
			}
			fmt.Printf("%-12s %-22s %14.6g %14.6g %+12.4g %12.4g%s\n", w.name, m.name, x, y, worse, tolerance, mark)
		}
	}
	if over > 0 {
		return fmt.Errorf("selfcheck: %d metrics are worse by more than their tolerance", over)
	}
	return nil
}

func printMetric(name, unit string, s stat) {
	if s.min == s.max {
		fmt.Printf("  %-30s %16.6g %s\n", name, s.median, unit)
	} else {
		fmt.Printf("  %-30s %16.6g %s  [min %.6g max %.6g]\n", name, s.median, unit, s.min, s.max)
	}
}

// stamp prints the environment a result belongs to.
func (h *harness) stamp() {
	commit := "unknown"
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	fmt.Printf("go %s  nproc %d  GOMAXPROCS(children) %d  commit %s\n",
		runtime.Version(), runtime.NumCPU(), h.procs, commit)
}
