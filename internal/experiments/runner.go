// Package experiments contains one driver per table and figure of the
// paper's evaluation (§5, §6), plus the ablation studies called out in
// DESIGN.md. Each driver builds a scenario from internal/config, runs it
// on the discrete-event engine (fanning trials across CPUs via
// internal/parexp where applicable), and returns the series/rows that the
// paper's artifact plots.
package experiments

import (
	"fmt"
	"io"

	"dlm/internal/baseline"
	"dlm/internal/config"
	"dlm/internal/core"
	"dlm/internal/overlay"
	"dlm/internal/query"
	"dlm/internal/sim"
	"dlm/internal/stats"
	"dlm/internal/trace"
	"dlm/internal/workload"
)

// ManagerKind selects the layer-management policy for a run.
type ManagerKind string

// The available policies.
const (
	ManagerDLM           ManagerKind = "dlm"
	ManagerPreconfigured ManagerKind = "preconfigured"
	ManagerStatic        ManagerKind = "static"
	ManagerOracle        ManagerKind = "oracle"
	ManagerNone          ManagerKind = "none"
)

// RunConfig assembles one simulation run.
type RunConfig struct {
	Scenario config.Scenario
	// Profile overrides the scenario's base profile (regime-wrapped
	// dynamics); nil uses the scenario default.
	Profile workload.Profile
	// Manager picks the policy (the zero value is ManagerDLM; any other
	// value outside the constants above is an error); DLMParams applies
	// when it is DLM (nil = core.DefaultParams()).
	Manager   ManagerKind
	DLMParams *core.Params
	// Queries enables the search workload per the scenario's QueryRate.
	Queries bool
	// TraceTo, when non-nil, receives the JSONL lifecycle trace.
	TraceTo io.Writer
	// Seed overrides the scenario seed when non-zero.
	Seed int64
	// Latency sets the one-hop message delay (0 = inline delivery); with
	// latency, query floods run asynchronously through the event queue.
	Latency sim.Duration
	// MaxLeafDegree caps a super-peer's leaf neighbors (0 = uncapped).
	MaxLeafDegree int
	// Link is the message-plane fault model (loss/jitter/dup/reorder);
	// the zero value is a perfect link.
	Link overlay.Link
	// Shards is the intra-run worker count for the tick's lane-parallel
	// decision phase (see sim.Engine.SetShards); zero means serial.
	// Results are byte-identical for every value.
	Shards int
}

// RunResult carries everything a figure or table needs from one run.
type RunResult struct {
	// Series holds the sampled time series:
	// ratio, supers, leaves, age_super, age_leaf, cap_super, cap_leaf,
	// lnn (average leaf degree of supers).
	Series *stats.SeriesSet
	// Final is the last snapshot.
	Final overlay.LayerStats
	// WindowCounters covers [Warmup, Duration] only.
	WindowCounters overlay.Counters
	// Traffic is the whole run's message tally.
	Traffic stats.Traffic
	// QuerySuccess and QueryMsgsPer summarize the search workload over
	// the measurement window (zero when disabled).
	QuerySuccess  float64
	QueryMsgsPer  float64
	QueryHops     float64
	QueriesIssued uint64
	// ManagerName records the policy.
	ManagerName string
	// Invariants holds any structural violations detected at the end
	// (always empty in a healthy run).
	Invariants []string
	// RequestRetries and RequestDrops are the DLM manager's cumulative
	// Phase 1 timeout tallies for the whole run (zero for other managers
	// and on lossless zero-latency transports).
	RequestRetries uint64
	RequestDrops   uint64
}

// WindowSummary is the measurement-window reading the studies report:
// ratio maintenance against η and the super/leaf layer separations.
type WindowSummary struct {
	RatioMean, RatioRMSE float64
	// CapSeparation and AgeSeparation are super-layer mean capacity (age)
	// over the leaf layer's.
	CapSeparation, AgeSeparation float64
}

// Window summarizes the sampled series over sc's [Warmup, Duration].
func (r *RunResult) Window(sc config.Scenario) WindowSummary {
	from, to := sc.Warmup, sc.Duration
	mean := func(name string) float64 { return r.Series.Get(name).MeanOver(from, to) }
	return WindowSummary{
		RatioMean:     mean("ratio"),
		RatioRMSE:     r.Series.Get("ratio").RMSEAgainst(sc.Eta, from, to),
		CapSeparation: mean("cap_super") / mean("cap_leaf"),
		AgeSeparation: mean("age_super") / mean("age_leaf"),
	}
}

// buildManager instantiates the policy; the zero ManagerKind is DLM.
func buildManager(rc RunConfig, seed int64) (overlay.Manager, error) {
	switch rc.Manager {
	case ManagerPreconfigured:
		// The capacity cutoff is calibrated against the base capacity
		// distribution, as the paper's preconfigured scheme is.
		return &baseline.Preconfigured{Threshold: baseline.CalibrateThreshold(
			workload.SaroiuBandwidthMixture(), rc.Scenario.Eta, 20000,
			sim.NewSource(seed).Stream("calibrate"))}, nil
	case ManagerStatic:
		return &baseline.Static{Eta: rc.Scenario.Eta}, nil
	case ManagerOracle:
		return &baseline.Oracle{Interval: 10}, nil
	case ManagerNone:
		return overlay.NopManager{}, nil
	case ManagerDLM, "":
		p := core.DefaultParams()
		if rc.DLMParams != nil {
			p = *rc.DLMParams
		}
		return core.NewManager(p), nil
	default:
		return nil, fmt.Errorf("experiments: unknown manager %q", rc.Manager)
	}
}

// Session is one assembled simulation: the engine reset to the run's
// seed, the overlay under its layer manager, the search subsystem when the
// run has one, and the population process scheduled. Nothing has fired
// yet, so a client still registers its observers and schedules its own
// events and ticker before it steps Eng. Open is the only place that wires
// these pieces together; whatever must see every run — an invariant hook,
// a decision-trace subscriber — attaches here.
type Session struct {
	Eng *sim.Engine
	Net *overlay.Network
	Mgr overlay.Manager
	// Query and Catalog are nil unless RunConfig.Queries is set.
	Query   *query.Engine
	Catalog *query.Catalog
}

// Open assembles the run rc describes on eng, which is Reset to the run's
// seed first (nil allocates a fresh engine; the results are identical
// either way). With rc.Queries the catalog is attached — joining peers
// then draw their shared objects from the churn stream — and the query
// driver is scheduled when the scenario has a query rate.
func Open(eng *sim.Engine, rc RunConfig) (*Session, error) {
	return open(eng, rc, nil, nil)
}

// open is Open with the two in-package variations: patch adjusts the
// overlay configuration before the network is built, and a non-nil mgr
// replaces the manager rc would select.
func open(eng *sim.Engine, rc RunConfig, patch func(*overlay.Config), mgr overlay.Manager) (*Session, error) {
	sc := rc.Scenario
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	seed := sc.Seed
	if rc.Seed != 0 {
		seed = rc.Seed
	}
	if eng == nil {
		eng = sim.NewEngine(seed)
	} else {
		eng.Reset(seed)
	}
	eng.SetShards(rc.Shards)
	if mgr == nil {
		var err error
		if mgr, err = buildManager(rc, seed); err != nil {
			return nil, err
		}
	}
	ocfg := sc.Overlay()
	ocfg.Latency = rc.Latency
	ocfg.MaxLeafDegree = rc.MaxLeafDegree
	ocfg.Link = rc.Link
	if patch != nil {
		patch(&ocfg)
	}
	s := &Session{Eng: eng, Net: overlay.New(eng, ocfg, mgr), Mgr: mgr}

	churn := &overlay.Churn{
		Net:        s.Net,
		Profile:    rc.Profile,
		TargetSize: sc.N,
		GrowthRate: sc.GrowthRate,
	}
	if churn.Profile == nil {
		churn.Profile = sc.BaseProfile()
	}
	if rc.Queries {
		s.Catalog = query.NewCatalog(sc.CatalogSize, 0.8, 0.8)
		s.Query = query.Attach(s.Net, s.Catalog)
		s.Query.DefaultTTL = uint8(sc.TTL)
		churn.Catalog = s.Catalog
	}
	churn.Start()
	if s.Query != nil && sc.QueryRate > 0 {
		(&query.Driver{Engine: s.Query, Rate: sc.QueryRate, Until: sim.Time(sc.Duration)}).Start()
	}
	return s, nil
}

// Run executes one configured simulation and collects its artifacts.
func Run(rc RunConfig) (*RunResult, error) {
	return RunOn(nil, rc)
}

// RunOn is Run against a caller-owned engine, which is Reset to the run's
// seed first — so a worker can execute many trials on one engine, reusing
// the event queue's backing storage instead of re-growing it per trial.
// A nil engine allocates a fresh one; the results are identical either
// way (Reset restores the just-constructed state exactly).
func RunOn(eng *sim.Engine, rc RunConfig) (*RunResult, error) {
	sc := rc.Scenario
	// Without a query rate there is no search workload, and attaching the
	// catalog anyway would change the churn stream's draws.
	rc.Queries = rc.Queries && sc.QueryRate > 0
	s, err := Open(eng, rc)
	if err != nil {
		return nil, err
	}
	eng, net, mgr, qe := s.Eng, s.Net, s.Mgr, s.Query

	var rec *trace.Recorder
	if rc.TraceTo != nil {
		rec = trace.NewRecorder(rc.TraceTo)
		net.Observe(rec)
	}

	res := &RunResult{
		Series:      &stats.SeriesSet{},
		ManagerName: mgr.Name(),
	}
	ratio := res.Series.New("ratio")
	supers := res.Series.New("supers")
	leaves := res.Series.New("leaves")
	ageS := res.Series.New("age_super")
	ageL := res.Series.New("age_leaf")
	capS := res.Series.New("cap_super")
	capL := res.Series.New("cap_leaf")
	lnn := res.Series.New("lnn")

	warm := sim.Time(sc.Warmup)
	sampleEvery := sc.SampleEvery
	nextSample := 0.0
	warmed := false

	eng.Ticker(1, func(e *sim.Engine) bool {
		net.Tick()
		now := float64(e.Now())
		if !warmed && e.Now() >= warm {
			warmed = true
			net.ResetCounters()
			if qe != nil {
				qe.ResetStats()
			}
		}
		if now >= nextSample {
			nextSample = now + sampleEvery
			s := net.Snapshot()
			ratio.Add(now, s.Ratio)
			supers.Add(now, float64(s.NumSupers))
			leaves.Add(now, float64(s.NumLeaves))
			ageS.Add(now, s.AvgAgeSuper)
			ageL.Add(now, s.AvgAgeLeaf)
			capS.Add(now, s.AvgCapSuper)
			capL.Add(now, s.AvgCapLeaf)
			lnn.Add(now, s.AvgLeafDegree)
		}
		return e.Now() < sim.Time(sc.Duration)
	})
	if err := eng.RunUntil(sim.Time(sc.Duration)); err != nil {
		return nil, err
	}

	res.Final = net.Snapshot()
	res.WindowCounters = net.Counters()
	res.Traffic = net.Traffic()
	res.Invariants = net.CheckInvariants()
	if dm, ok := mgr.(*core.Manager); ok {
		res.RequestRetries = dm.RequestRetries
		res.RequestDrops = dm.RequestDrops
	}
	if qe != nil {
		res.QuerySuccess = qe.SuccessRate()
		res.QueryMsgsPer = qe.MsgsPer.Mean()
		res.QueryHops = qe.HopsHist.Mean()
		res.QueriesIssued = qe.Issued
	}
	if rec != nil {
		if err := rec.Flush(); err != nil {
			return nil, err
		}
	}
	return res, nil
}
