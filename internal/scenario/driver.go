package scenario

import (
	"fmt"
	"math"
	"sort"

	"dlm/internal/core"
	"dlm/internal/experiments"
	"dlm/internal/msg"
	"dlm/internal/overlay"
	"dlm/internal/sim"
	"dlm/internal/stats"
	"dlm/internal/workload"
)

// smoothWindow is the trailing-mean window (time units) used for the
// recovery metrics: the raw ratio is noisy at small n, and the paper's
// convergence claims are about the settled level, not tick jitter.
const smoothWindow = 50

// reconvergeRuns is how many consecutive smoothed samples must sit inside
// the band before the system counts as re-converged — one sample grazing
// the band during a transient must not end the clock.
const reconvergeRuns = 3

// Result carries everything the adversarial battery measures from one
// scenario run, plus the oracle outputs.
type Result struct {
	Name string
	N    int
	Eta  float64

	// Ratio is the sampled leaves-per-super time series for the whole
	// run; Supers and Leaves are the layer populations.
	Ratio  *stats.Series
	Supers *stats.Series
	Leaves *stats.Series

	// DisturbStart and DisturbEnd bound the disturbed phases (NaN when no
	// phase is marked Disturbed).
	DisturbStart float64
	DisturbEnd   float64

	// PreErrPct is the mean |ratio-η|/η over the 100 units before the
	// disturbance; PeakErrPct the worst smoothed error from the
	// disturbance start to the end of the run; PostErrPct the mean error
	// over the final 100 units.
	PreErrPct  float64
	PeakErrPct float64
	PostErrPct float64

	// BandPct is the re-convergence band actually used:
	// max(4, PreErrPct) percent of η — the scenario must return to its
	// own pre-disturbance quality, floored at the paper-level 4%.
	BandPct float64
	// ReconvergeTime is how long after DisturbEnd the smoothed ratio
	// re-entered the band and stayed for reconvergeRuns samples
	// (+Inf when it never did, 0 when it never left).
	ReconvergeTime float64
	// EnvelopeEarly and EnvelopeLate are the peak smoothed errors over
	// the first and last quarters of the recovery window — a monotone
	// envelope has Late <= Early.
	EnvelopeEarly float64
	EnvelopeLate  float64

	// LiarSuperPct and LiarPopPct are the liars' share (percent) of the
	// final super layer and of the final population — the capture
	// measurement for the misreporting scenarios.
	LiarSuperPct float64
	LiarPopPct   float64

	// ExtraJoins counts scenario-driven joins beyond replacement churn.
	ExtraJoins uint64
	// Killed counts peers removed by mass-kill triggers.
	Killed int

	// Decision and message overhead for the whole run.
	Promotions uint64
	Demotions  uint64
	DLMMsgs    uint64
	// PartitionDrops counts messages severed by partitions.
	PartitionDrops uint64

	// Invariants holds structural violations found at phase boundaries
	// and at the end of the run (always empty in a healthy run); each is
	// prefixed with the checkpoint label.
	Invariants []string

	// Trace is a deterministic byte transcript of the sampled run
	// (exact float bits of the ratio plus structural counters); equal
	// traces mean byte-identical runs. The shard-determinism test pins
	// Trace equality across shard counts.
	Trace []byte

	// Final is the last snapshot.
	Final overlay.LayerStats
}

// compiledPhase is a Phase resolved onto the absolute timeline.
type compiledPhase struct {
	Phase
	start, end float64
	rate       workload.Rate // nil when the phase adds no extra joins
}

// compile places the phases on the absolute timeline and builds their
// extra-join rate functions from the workload rate primitives.
func compile(phases []Phase) []compiledPhase {
	out := make([]compiledPhase, len(phases))
	at := 0.0
	for i, ph := range phases {
		cp := compiledPhase{Phase: ph, start: at, end: at + ph.Len}
		var parts workload.SumRate
		if ph.ExtraJoinStart > 0 || ph.ExtraJoinEnd > 0 {
			parts = append(parts, workload.RampRate{
				Start: sim.Time(cp.start), End: sim.Time(cp.end),
				From: ph.ExtraJoinStart, To: ph.ExtraJoinEnd,
			})
		}
		if ph.WaveAmplitude > 0 && ph.WavePeriod > 0 {
			parts = append(parts, workload.SinusoidRate{
				Amplitude: ph.WaveAmplitude,
				Period:    sim.Duration(ph.WavePeriod),
				Origin:    sim.Time(cp.start),
			})
		}
		if len(parts) > 0 {
			cp.rate = parts
		}
		out[i] = cp
		at = cp.end
	}
	return out
}

// liarMarker marks a fraction of joining peers as misreporters. It draws
// one uniform variate per join from its dedicated stream, so runs with
// LiarFraction == 0 never construct it and stay byte-identical.
type liarMarker struct {
	overlay.NopObserver
	rng       *sim.Source
	fraction  float64
	capFactor float64
	ageBoost  float64
}

// OnJoin implements overlay.Observer.
func (l *liarMarker) OnJoin(_ *overlay.Network, p *overlay.Peer) {
	if l.rng.Float64() < l.fraction {
		p.MisreportCapFactor = l.capFactor
		p.MisreportAgeBoost = l.ageBoost
	}
}

// Run executes one scenario on a fresh engine.
func Run(cfg Config) (*Result, error) { return RunOn(nil, cfg) }

// RunOn executes one scenario against a caller-owned engine (Reset to the
// scenario seed first; nil allocates a fresh one — results are identical
// either way). The driver schedules each phase's triggers at its start
// time, runs invariant oracles at every phase boundary and at the end,
// and computes the recovery metrics from the sampled series.
func RunOn(eng *sim.Engine, cfg Config) (*Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	sc := cfg.Base
	total := cfg.TotalLen()
	sc.Duration = total
	if sc.Warmup >= total {
		sc.Warmup = 0
	}

	profile := workload.Profile(sc.BaseProfile())
	if cfg.LifetimeWaveAmplitude > 0 {
		profile = &workload.SinusoidalProfile{
			Base:              profile,
			Period:            sim.Duration(cfg.LifetimeWavePeriod),
			LifetimeAmplitude: cfg.LifetimeWaveAmplitude,
		}
	}
	params := core.DefaultParams()
	params.DefenseMaxCapacity = cfg.DefenseMaxCapacity
	s, err := experiments.Open(eng, experiments.RunConfig{
		Scenario:  sc,
		Profile:   profile,
		Manager:   experiments.ManagerDLM,
		DLMParams: &params,
		Shards:    cfg.Shards,
	})
	if err != nil {
		return nil, err
	}
	eng = s.Eng
	net := s.Net

	if cfg.LiarFraction > 0 {
		net.Observe(&liarMarker{
			rng:       eng.Rand().Stream("scenario.liar"),
			fraction:  cfg.LiarFraction,
			capFactor: cfg.LiarCapFactor,
			ageBoost:  cfg.LiarAgeBoost,
		})
	}

	res := &Result{
		Name: cfg.Name, N: sc.N, Eta: sc.Eta,
		Ratio: &stats.Series{}, Supers: &stats.Series{}, Leaves: &stats.Series{},
		DisturbStart: math.NaN(), DisturbEnd: math.NaN(),
	}

	d := &driver{
		eng: eng, net: net, cfg: &cfg, res: res,
		phases:  compile(cfg.Phases),
		profile: profile,
	}
	for _, cp := range d.phases {
		if cp.rate != nil {
			d.anyExtra = true
		}
		if cp.Disturbed {
			if math.IsNaN(res.DisturbStart) {
				res.DisturbStart = cp.start
			}
			res.DisturbEnd = cp.end
		}
	}
	if d.anyExtra {
		d.joinRng = eng.Rand().Stream("scenario.join")
	}

	// Phase-boundary triggers: partition raise/heal, mass kill, and the
	// invariant oracle. Scheduled before the driver ticker, so at a
	// shared timestamp the trigger runs before that tick's decisions.
	for i := range d.phases {
		cp := &d.phases[i]
		eng.Schedule(sim.Time(cp.start), sim.EventFunc(func(e *sim.Engine) {
			d.enterPhase(cp)
		}))
	}

	d.nextSample = 0
	eng.Ticker(1, func(e *sim.Engine) bool {
		net.Tick()
		now := float64(e.Now())
		if d.anyExtra {
			rate := d.rateAt(now)
			for k := d.acc.Take(rate, 1); k > 0; k-- {
				d.spawnExtra()
			}
		}
		if now >= d.nextSample {
			d.nextSample = now + sc.SampleEvery
			d.sample(now)
		}
		return e.Now() < sim.Time(total)
	})
	if err := eng.RunUntil(sim.Time(total)); err != nil {
		return nil, err
	}

	d.checkInvariants("end")
	res.Final = net.Snapshot()
	res.Promotions = net.Counters().Promotions
	res.Demotions = net.Counters().Demotions
	res.DLMMsgs = net.Traffic().DLMMessages()
	res.PartitionDrops = net.Counters().PartitionDrops

	var liarsTotal, liarSupers, pop int
	net.WalkPeers(func(p *overlay.Peer) {
		pop++
		if p.Liar() {
			liarsTotal++
			if p.Layer == overlay.LayerSuper {
				liarSupers++
			}
		}
	})
	if ns := net.NumSupers(); ns > 0 {
		res.LiarSuperPct = 100 * float64(liarSupers) / float64(ns)
	}
	if pop > 0 {
		res.LiarPopPct = 100 * float64(liarsTotal) / float64(pop)
	}

	res.computeRecovery(total)
	return res, nil
}

// driver is the per-run mutable state shared by the ticker and the
// phase-boundary events.
type driver struct {
	eng     *sim.Engine
	net     *overlay.Network
	cfg     *Config
	res     *Result
	phases  []compiledPhase
	profile workload.Profile

	anyExtra   bool
	joinRng    *sim.Source
	acc        workload.RateAccumulator
	nextSample float64
	trace      []byte
}

// rateAt evaluates the extra-join rate of the phase containing now.
func (d *driver) rateAt(now float64) float64 {
	for i := range d.phases {
		cp := &d.phases[i]
		if now < cp.end || i == len(d.phases)-1 {
			if cp.rate == nil || now < cp.start {
				return 0
			}
			return cp.rate.At(sim.Time(now))
		}
	}
	return 0
}

// spawnExtra injects one scenario-driven join. The peer's endowment comes
// from the run's workload profile via the dedicated "scenario.join"
// stream, and its departure is scheduled out-of-band: when it dies it is
// NOT replaced, so the crowd drains away instead of permanently raising
// the population.
func (d *driver) spawnExtra() {
	s := d.profile.NewPeer(d.eng.Now(), d.joinRng)
	p := d.net.Join(s.Capacity, s.Lifetime, nil)
	d.res.ExtraJoins++
	id := p.ID
	net := d.net
	// The death timer waits on the lane that owns the new peer, like every
	// peer-targeted event; firing order is engine-global sequence, so the
	// routing changes only which queue carries it.
	d.eng.AfterLane(net.LaneOf(p), sim.Duration(s.Lifetime), sim.EventFunc(func(*sim.Engine) {
		if q := net.Peer(id); q != nil && q.Alive() {
			net.Leave(q)
		}
	}))
}

// enterPhase fires the phase's edge triggers and runs the invariant
// oracle at the boundary.
func (d *driver) enterPhase(cp *compiledPhase) {
	d.checkInvariants(fmt.Sprintf("enter %s@%g", cp.Name, cp.start))
	if cp.Partition {
		// Bisect by ID parity: deterministic, uniform, and free.
		d.net.SetPartition(func(id msg.PeerID) uint8 { return uint8(id & 1) })
	} else {
		d.net.SetPartition(nil)
	}
	if cp.KillTopFraction > 0 {
		d.massKill(cp.KillTopFraction)
	}
}

// massKill removes the top fraction of the super layer by claimed
// capacity in one tick — the correlated "all the big supers die at once"
// failure. Ordering is fully deterministic (capacity descending, ID
// ascending on ties) and no random draw happens.
func (d *driver) massKill(fraction float64) {
	ids := append([]msg.PeerID(nil), d.net.SuperIDs()...)
	sort.Slice(ids, func(i, j int) bool {
		pi, pj := d.net.Peer(ids[i]), d.net.Peer(ids[j])
		if pi.Capacity != pj.Capacity {
			return pi.Capacity > pj.Capacity
		}
		return ids[i] < ids[j]
	})
	kill := int(fraction * float64(len(ids)))
	for _, id := range ids[:kill] {
		if p := d.net.Peer(id); p != nil && p.Alive() {
			d.net.Leave(p)
			d.res.Killed++
		}
	}
}

// checkInvariants runs the structural oracle and records any violation
// under the checkpoint label.
func (d *driver) checkInvariants(label string) {
	for _, v := range d.net.CheckInvariants() {
		d.res.Invariants = append(d.res.Invariants, label+": "+v)
	}
}

// sample records one observation into the series and appends the exact
// state to the determinism trace.
func (d *driver) sample(now float64) {
	s := d.net.Snapshot()
	d.res.Ratio.Add(now, s.Ratio)
	d.res.Supers.Add(now, float64(s.NumSupers))
	d.res.Leaves.Add(now, float64(s.NumLeaves))
	c := d.net.Counters()
	d.trace = fmt.Appendf(d.trace, "t=%.0f r=%016x s=%d l=%d j=%d v=%d p=%d d=%d x=%d\n",
		now, math.Float64bits(s.Ratio), s.NumSupers, s.NumLeaves,
		c.Joins, c.Leaves, c.Promotions, c.Demotions, c.PartitionDrops)
	d.res.Trace = d.trace
}

// errPct is |v-η|/η in percent.
func (r *Result) errPct(v float64) float64 {
	if r.Eta == 0 || math.IsNaN(v) {
		return math.NaN()
	}
	return 100 * math.Abs(v-r.Eta) / r.Eta
}

// smoothedAt returns the trailing smoothWindow mean of the ratio at t.
func (r *Result) smoothedAt(t float64) float64 {
	return r.Ratio.MeanOver(t-smoothWindow, t+1e-9)
}

// computeRecovery derives the oracle metrics from the sampled series.
func (r *Result) computeRecovery(total float64) {
	tail := math.Min(100, total/4)
	r.PostErrPct = r.errPct(r.Ratio.MeanOver(total-tail, total+1e-9))

	if math.IsNaN(r.DisturbStart) {
		// No disturbed phase: the run is a plain convergence check.
		r.PreErrPct = math.NaN()
		r.PeakErrPct = math.NaN()
		r.BandPct = math.NaN()
		r.ReconvergeTime = math.NaN()
		r.EnvelopeEarly = math.NaN()
		r.EnvelopeLate = math.NaN()
		return
	}

	ds, de := r.DisturbStart, r.DisturbEnd
	pre := math.Min(100, ds)
	r.PreErrPct = r.errPct(r.Ratio.MeanOver(ds-pre, ds))
	r.BandPct = math.Max(4, r.PreErrPct)
	if math.IsNaN(r.BandPct) {
		r.BandPct = 4
	}

	// Peak and envelope use the smoothed trajectory over the samples.
	peak := 0.0
	var recTimes []float64 // sample times in the recovery window (> de)
	var recErrs []float64
	for _, p := range r.Ratio.Points() {
		if p.T <= ds {
			continue
		}
		e := r.errPct(r.smoothedAt(p.T))
		peak = math.Max(peak, e)
		if p.T > de {
			recTimes = append(recTimes, p.T)
			recErrs = append(recErrs, e)
		}
	}
	r.PeakErrPct = peak

	// Re-convergence: first sample after the disturbance from which
	// reconvergeRuns consecutive smoothed samples sit inside the band.
	r.ReconvergeTime = math.Inf(1)
	run := 0
	for i, e := range recErrs {
		if e <= r.BandPct {
			run++
			if run == reconvergeRuns {
				r.ReconvergeTime = recTimes[i-(reconvergeRuns-1)] - de
				break
			}
		} else {
			run = 0
		}
	}

	// Envelope: peak smoothed error over the first vs last quarter of
	// the recovery window.
	if n := len(recErrs); n >= 4 {
		q := n / 4
		for _, e := range recErrs[:q] {
			r.EnvelopeEarly = math.Max(r.EnvelopeEarly, e)
		}
		for _, e := range recErrs[n-q:] {
			r.EnvelopeLate = math.Max(r.EnvelopeLate, e)
		}
	} else {
		r.EnvelopeEarly = math.NaN()
		r.EnvelopeLate = math.NaN()
	}
}
