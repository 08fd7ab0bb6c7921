package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// childSpec is one (workload, repeat): what the parent asks a fresh child
// process to run.
type childSpec struct {
	workload string
	seed     int64
	shards   int
	procs    int
	traced   bool
	// setupOnly stops the child when its set-up is done: the parent wants
	// one more sample of setup_s and nothing else.
	setupOnly bool
	outDir    string
	// shrink divides the population (tests run at 1/50 size). The parent
	// never sets it: a spawned child always runs the benchmark's own size.
	shrink int
}

// childResult is the one JSON line a child prints.
type childResult struct {
	// ReadyUnixNano is the wall clock at the first timed call; the parent
	// subtracts the instant it started the child to get setup_s.
	ReadyUnixNano int64    `json:"ready_unix_nano"`
	WallS         float64  `json:"wall_s"`
	Mallocs       uint64   `json:"mallocs"`
	PeakRSSMB     float64  `json:"peak_rss_mb"`
	Sim           simStats `json:"sim"`
	// Layers holds the per-layer metrics a traced run can compute alone.
	Layers map[string]float64 `json:"layers,omitempty"`

	// SetupS is filled in by the parent.
	SetupS float64 `json:"-"`
}

// childMain runs one (workload, repeat) in this process and prints its
// result.
func childMain(spec childSpec) error {
	out, err := runChild(spec)
	if err != nil {
		return err
	}
	return json.NewEncoder(os.Stdout).Encode(out)
}

// runChild is the body of a child process: set-up, the timed batch, and
// what the batch leaves behind. GOMAXPROCS is the only runtime setting it
// touches.
func runChild(spec childSpec) (*childResult, error) {
	runtime.GOMAXPROCS(spec.procs)
	w, ok := findWorkload(spec.workload, spec.shrink)
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", spec.workload)
	}
	rg, err := newRig(spec.procs, min(w.trials, spec.procs))
	if err != nil {
		return nil, err
	}
	out := &childResult{ReadyUnixNano: time.Now().UnixNano()}
	if spec.setupOnly {
		return out, nil
	}
	b, err := rg.run(w, spec.seed, spec.shards, spec.traced)
	if err != nil {
		return nil, err
	}
	out.WallS, out.Mallocs = b.wallS, b.mallocs
	out.Sim = summarise(w, b)
	if spec.traced {
		rec, cnt := b.recs[0], b.cnts[0]
		for i := 1; i < len(b.recs); i++ {
			rec.merge(b.recs[i])
			cnt.add(b.cnts[i])
		}
		out.Layers = tracedLayers(b, rec, cnt, len(rg.engines))
		if err := writeTrace(spec, rec, out.Layers); err != nil {
			return nil, err
		}
	}
	out.PeakRSSMB, err = peakRSSMB()
	if err != nil {
		return nil, err
	}
	return out, nil
}

// peakRSSMB reads this process's resident-set high-water mark.
func peakRSSMB() (float64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	sc := bufio.NewScanner(bytes.NewReader(data))
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("parse VmHWM %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM line in /proc/self/status")
}

// spawn runs one child to completion and returns its result. The child is
// this same binary; it is killed if ctx is cancelled and always waited for.
func spawn(ctx context.Context, spec childSpec) (*childResult, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	args := []string{
		"-child",
		"-workload", spec.workload,
		"-seed", strconv.FormatInt(spec.seed, 10),
		"-shards", strconv.Itoa(spec.shards),
		"-procs", strconv.Itoa(spec.procs),
		"-out", spec.outDir,
	}
	if spec.traced {
		args = append(args, "-traced")
	}
	if spec.setupOnly {
		args = append(args, "-setuponly")
	}
	cmd := exec.CommandContext(ctx, exe, args...)
	cmd.Stderr = os.Stderr
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	started := time.Now()
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("child %s seed %d: %w", spec.workload, spec.seed, err)
	}
	var res childResult
	if err := json.Unmarshal(stdout.Bytes(), &res); err != nil {
		return nil, fmt.Errorf("child %s seed %d: bad result: %w", spec.workload, spec.seed, err)
	}
	res.SetupS = float64(res.ReadyUnixNano-started.UnixNano()) / 1e9
	return &res, nil
}

func (c *counts) add(o *counts) {
	c.joins += o.joins
	c.leaves += o.leaves
	c.connects += o.connects
	c.disconnects += o.disconnects
	c.layerChanges += o.layerChanges
	c.evals += o.evals
	c.promoteActions += o.promoteActions
	c.demoteActions += o.demoteActions
	c.newPeers += o.newPeers
	c.growthNs += o.growthNs
}

// tracedLayers turns a traced batch into the per-layer metrics that need
// nothing but that batch. Times are summed over the batch's trials: for
// paper2k, whose trials overlap, they are busy seconds, not wall seconds,
// and run.traced_busy_s is the total they add up to.
func tracedLayers(b *batch, rec *recorder, cnt *counts, workers int) map[string]float64 {
	sec := func(ns int64) float64 { return float64(ns) / 1e9 }
	self := func(k kind) float64 { return sec(rec.scaledSelfNs(k)) }
	total := func(k kind) float64 { return sec(rec.aggs[k].TotalNs) }
	calls := func(k kind) float64 { return float64(rec.aggs[k].Calls) }

	busy := total(kRun)
	ticks := rec.durations(kCoreTick)
	issues := rec.durations(kQueryIssue)
	// The heap-object counter is the process's: while trials overlap on
	// several workers a tick's delta holds the other workers' allocations
	// too, so a trial batch reports 0.
	var tickMallocs uint64
	if workers == 1 {
		for _, s := range rec.lists[kCoreTick] {
			tickMallocs += s.Mallocs
		}
	}
	laneCalls, laneNs := rec.laneTotals()
	trialWalls := make([]float64, len(b.trials))
	for i, t := range b.trials {
		trialWalls[i] = t.wallS
	}
	sort.Float64s(trialWalls)

	return map[string]float64{
		"run.traced_wall_s": b.wallS,
		"run.traced_busy_s": busy,
		"run.residual_s":    self(kRun),
		"run.growth_s":      sec(cnt.growthNs) / float64(len(b.trials)),

		"experiments.build_s":     self(kBuild),
		"experiments.collect_s":   self(kCollect),
		"experiments.trial_p50_s": quantile(trialWalls, 0.5),
		"experiments.trial_max_s": trialWalls[len(trialWalls)-1],
		"parexp.efficiency_pct":   100 * busy / (float64(workers) * b.wallS),

		"overlay.joins":         float64(cnt.joins),
		"overlay.leaves":        float64(cnt.leaves),
		"overlay.connects":      float64(cnt.connects),
		"overlay.disconnects":   float64(cnt.disconnects),
		"overlay.layer_changes": float64(cnt.layerChanges),
		"overlay.join_s":        total(kJoin),
		"overlay.join_self_s":   self(kJoin),
		"overlay.tick_self_s":   self(kOverlayTick),
		"overlay.snapshot_s":    total(kSnapshot),

		"core.tick_calls":             calls(kCoreTick),
		"core.tick_s":                 total(kCoreTick),
		"core.tick_self_s":            self(kCoreTick),
		"core.tick_p50_ms":            1e3 * quantile(ticks, 0.5),
		"core.tick_p95_ms":            1e3 * quantile(ticks, 0.95),
		"core.tick_allocs_per_call":   float64(tickMallocs) / calls(kCoreTick),
		"core.handle_calls":           float64(rec.handleCalls),
		"core.handle_self_s":          self(kHandle),
		"core.handle_lane_calls":      float64(laneCalls),
		"core.handle_lane_cpu_s":      sec(laneNs),
		"core.on_connect_calls":       calls(kOnConnect),
		"core.on_connect_self_s":      self(kOnConnect),
		"core.on_disconnect_self_s":   self(kOnDisconnect),
		"core.on_layer_change_self_s": self(kOnLayerChange),
		"core.initial_layer_self_s":   self(kInitialLayer),

		"protocol.evals":           float64(cnt.evals),
		"protocol.promote_actions": float64(cnt.promoteActions),
		"protocol.demote_actions":  float64(cnt.demoteActions),
		"protocol.action_ratio":    ratio(float64(cnt.promoteActions+cnt.demoteActions), float64(cnt.evals)),

		"query.issue_s":          total(kQueryIssue),
		"query.issue_p50_us":     1e6 * quantile(issues, 0.5),
		"query.issue_p99_us":     1e6 * quantile(issues, 0.99),
		"query.assign_objects_s": total(kAssignObjects),

		"workload.new_peer_calls": float64(cnt.newPeers),
		"workload.new_peer_s":     total(kNewPeer),
	}
}

// traceFile is the JSON written to out/trace-<workload>.json when a traced
// child ends: every kind's aggregate, who opened it, and the kept spans.
type traceFile struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Shards   int    `json:"shards"`
	Procs    int    `json:"procs"`
	// HandleSample: core.handle spans and lane calls are a 1-in-N sample;
	// Kinds and Edges hold the raw sample, Layers the scaled report.
	HandleSample int                           `json:"handle_sample"`
	Kinds        map[string]kindAgg            `json:"kinds"`
	Edges        map[string]map[string]kindAgg `json:"edges"`
	Spans        map[string][]spanRec          `json:"spans"`
	Layers       map[string]float64            `json:"layers"`
}

func writeTrace(spec childSpec, rec *recorder, layers map[string]float64) error {
	tf := traceFile{
		Workload: spec.workload, Seed: spec.seed, Shards: spec.shards, Procs: spec.procs,
		HandleSample: handleSample,
		Kinds:        map[string]kindAgg{},
		Edges:        map[string]map[string]kindAgg{},
		Spans:        map[string][]spanRec{},
		Layers:       layers,
	}
	for k := kind(0); k < numKinds; k++ {
		if rec.aggs[k].Calls == 0 {
			continue
		}
		tf.Kinds[kindNames[k]] = rec.aggs[k]
		if listed[k] {
			tf.Spans[kindNames[k]] = rec.lists[k]
		}
		for c := kind(0); c < numKinds; c++ {
			if e := rec.edges[k][c]; e.Calls > 0 {
				if tf.Edges[kindNames[k]] == nil {
					tf.Edges[kindNames[k]] = map[string]kindAgg{}
				}
				tf.Edges[kindNames[k]][kindNames[c]] = e
			}
		}
	}
	if err := os.MkdirAll(spec.outDir, 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(tf)
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(spec.outDir, "trace-"+spec.workload+".json"), data, 0o644)
}
