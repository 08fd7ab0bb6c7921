package main

import "testing"

// smokeShrink is the size divisor of every test run: 1/50 of the benchmark.
const smokeShrink = 50

func smokeChild(t *testing.T, name string, seed int64, shards int, traced bool) *childResult {
	t.Helper()
	res, err := runChild(childSpec{
		workload: name, seed: seed, shards: shards, procs: 2,
		shrink: smokeShrink, traced: traced, outDir: t.TempDir(),
	})
	if err != nil {
		t.Fatalf("%s seed %d shards %d traced %v: %v", name, seed, shards, traced, err)
	}
	if res.Sim.FailedTrials != 0 {
		t.Fatalf("%s seed %d: failed trials: %v", name, seed, res.Sim.FailureMessages)
	}
	return res
}

// TestWorkloadsSmoke runs all six workloads at 1/50 size the way a traced
// contract run does — untraced at Shards=2, traced, untraced at Shards=1 —
// and checks what the harness promises about them: the digest is stable
// across repeats, shard counts and tracing, it moves with the seed, every
// per-layer metric is measured, and the self times partition the run.
func TestWorkloadsSmoke(t *testing.T) {
	spec, err := loadBenchmarkJSON()
	if err != nil {
		t.Fatal(err)
	}
	probes, err := runProbes(1, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			base := smokeChild(t, w.name, 1, 2, false)
			again := smokeChild(t, w.name, 1, 2, false)
			serial := smokeChild(t, w.name, 1, 1, false)
			traced := smokeChild(t, w.name, 1, 2, true)
			other := smokeChild(t, w.name, 2, 2, false)

			d := base.Sim.Digest
			if again.Sim.Digest != d {
				t.Errorf("digest %s, then %s on a second run of the same seed", d, again.Sim.Digest)
			}
			if serial.Sim.Digest != d {
				t.Errorf("digest %s at Shards=2, %s at Shards=1", d, serial.Sim.Digest)
			}
			if traced.Sim.Digest != d {
				t.Errorf("digest %s untraced, %s traced: the decorators changed the simulation", d, traced.Sim.Digest)
			}
			if other.Sim.Digest == d {
				t.Errorf("digest %s for seeds 1 and 2: the seed does not reach the workload", d)
			}
			if base.WallS <= 0 || base.Mallocs == 0 || base.PeakRSSMB <= 0 || base.Sim.Events == 0 {
				t.Errorf("empty measurements: %+v", base)
			}

			values, err := mergeLayers(spec.PerLayer, base, traced, serial, probes)
			if err != nil {
				t.Fatal(err)
			}
			// The property each workload was chosen for, and its absence on
			// the workloads meant to bypass it.
			searches := values["query.issued"] > 0 && values["query.issue_s"] > 0 && values["query.assign_objects_s"] > 0
			batches := values["sim.batches"] > 0 && values["core.handle_lane_calls"] > 0
			faults := values["transport.link_drops"] > 0 && values["core.request_retries"] > 0
			if searches != (w.name == "search20k") || batches != (w.name == "latency30k") || faults != (w.name == "lossy30k") {
				t.Errorf("searches %v batches %v faults %v", searches, batches, faults)
			}
			if inline := values["core.handle_calls"] > 0; inline != (w.name != "latency30k") {
				t.Errorf("inline handler calls: %v", values["core.handle_calls"])
			}
			// Growth ends inside a trial, and is a mean over trials, not a
			// sum: it cannot outlast the longest one.
			if g := values["run.growth_s"]; g <= 0 || g > values["experiments.trial_max_s"] {
				t.Errorf("run.growth_s %v with the longest trial at %v s", g, values["experiments.trial_max_s"])
			}
			// The observer sees the whole run, the overlay's counters only
			// the window: joins can only be more.
			if values["overlay.joins"] < float64(w.n/smokeShrink) || values["workload.new_peer_calls"] != values["overlay.joins"] {
				t.Errorf("joins %v, endowments drawn %v, population %d", values["overlay.joins"], values["workload.new_peer_calls"], w.n/smokeShrink)
			}
		})
	}
}

// TestContractMetricsAreMeasured checks that every end-to-end metric
// BENCHMARK.json lists is one the harness reports, directly or through
// neverZero. (The per-layer list is checked by mergeLayers on every run,
// the smoke runs above included.)
func TestContractMetricsAreMeasured(t *testing.T) {
	spec, err := loadBenchmarkJSON()
	if err != nil {
		t.Fatal(err)
	}
	reported := map[string]bool{}
	for _, m := range endToEnd {
		reported[m.name] = true
	}
	for _, m := range spec.EndToEnd {
		from := m.Name
		if nz, ok := neverZero[m.Name]; ok {
			from = nz.from
		}
		if !reported[from] {
			t.Errorf("BENCHMARK.json lists %s, which the harness does not report", m.Name)
		}
	}
	if len(spec.EndToEnd) != len(endToEnd) {
		t.Errorf("BENCHMARK.json lists %d end-to-end metrics, the harness reports %d", len(spec.EndToEnd), len(endToEnd))
	}
}

// TestFoldTakesMediansOverSeeds checks what a set's repeats turn into: host
// measurements are medians over every repeat, simulated statistics medians
// over the set's three seeds only, operations are counted once per seed, and
// a fourth repeat must reproduce the digest of the first.
func TestFoldTakesMediansOverSeeds(t *testing.T) {
	w, _ := findWorkload("search20k", 1)
	run := func(wall, capSep float64, digest string) *childResult {
		return &childResult{WallS: wall, Sim: simStats{
			Digest: digest, CapSepX: capSep, Trials: 2, QueriesIssued: 100, QueriesFound: 99,
		}}
	}
	set := &runSet{
		runs:   []*childResult{run(4, 2.0, "a"), run(6, 3.0, "b"), run(5, 2.5, "c"), run(1, 9.9, "a")},
		setups: []float64{0.03, 0.01, 0.02},
	}
	rep := fold(w, 7, set)
	if rep.failed != 0 || rep.attempted != 3*(2+100) || rep.digest != "a b c" || rep.base != set.runs[0] {
		t.Errorf("failed %d attempted %d digest %q", rep.failed, rep.attempted, rep.digest)
	}
	for name, want := range map[string]float64{
		"wall_s": 4.5, "cap_sep_x": 2.5, "setup_s": 0.02, "ops_failed_pct": 100 * 3.0 / 306,
	} {
		if got := rep.metrics[name].median; got != want {
			t.Errorf("%s = %v, want %v", name, got, want)
		}
	}
	set.runs[3].Sim.Digest = "x"
	if rep := fold(w, 7, set); rep.failed != 1 {
		t.Errorf("a repeat with another digest than its seed's first: %d failures, want 1", rep.failed)
	}
}
