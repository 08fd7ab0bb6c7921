// Package protocol implements the transport-agnostic core of DLM, the
// paper's Dynamic Layer Management algorithm: one per-peer state machine
// that is driven identically by the discrete-event simulation plane
// (internal/core over internal/overlay) and the goroutine-per-peer live
// plane (internal/live). Every DLM decision is computable from peer-local
// state alone, so the whole protocol fits in a Machine that knows nothing
// about schedulers, networks, or goroutines — hosts bind it to a
// transport through the small Endpoint, Rand, and Self surfaces.
//
// The four phases of the paper map onto this package as follows:
//
//	Phase 1 (information collection)  -> machine.go HandleMessage
//	Phase 2 (ratio estimation, μ)     -> decision.go Mu
//	Phase 3 (scaled comparison, X/Y)  -> decision.go ScaleFor / counting
//	Phase 4 (promotion/demotion, Z)   -> machine.go Decide
//
// The package deliberately imports neither internal/sim nor
// internal/overlay (enforced by TestProtocolImportPurity and a go
// list-based CI gate): any backend that can deliver msg frames and read a
// clock can drive the identical protocol.
package protocol

import (
	"fmt"
	"math"
)

// Time is a point on the protocol clock, measured in abstract protocol
// time units (the paper's unit is one minute). The simulation plane maps
// it to virtual time; the live plane maps it to wall-clock units.
type Time float64

// Duration is a span of protocol time.
type Duration = Time

// ExchangePolicy selects when peers exchange DLM information.
type ExchangePolicy uint8

const (
	// EventDriven exchanges information whenever a new leaf-super
	// connection is created — the policy the paper selects after finding
	// it cheapest at equal accuracy.
	EventDriven ExchangePolicy = iota
	// Periodic exchanges information with all current neighbors every
	// PeriodicInterval time units instead (the ablation policy).
	Periodic
)

// String implements fmt.Stringer.
func (p ExchangePolicy) String() string {
	switch p {
	case EventDriven:
		return "event-driven"
	case Periodic:
		return "periodic"
	}
	return fmt.Sprintf("policy(%d)", uint8(p))
}

// The parts of the reconstruction that take one value everywhere: no
// study, scenario or host sets a second one, so they are constants, not
// Params fields (DESIGN.md §1 lists them beside the knob table).
const (
	// xMin and xMax clamp the scale parameters: a skewed μ tilts a
	// comparison by at most 5x either way.
	xMin, xMax = 0.2, 5
	// zPromote0 is the promotion threshold at μ=0: a leaf promotes when
	// fewer than this fraction of its related supers beat it on both
	// metrics. zDemote0 is its mirror: a super demotes when more than this
	// fraction of its leaves beat it. Symmetric around 1/2, so a balanced
	// network favors neither direction.
	zPromote0, zDemote0 = 0.30, 0.70
	// zMin and zMax clamp all four thresholds strictly inside (0,1), so
	// no skew makes a comparison unwinnable or unlosable.
	zMin, zMax = 0.02, 0.98
	// muMax clamps the ratio skew to ±2 (e² ≈ 7.4x off target); X is
	// already at its clamp from |μ| = ln 5 ≈ 1.6.
	muMax = 2
	// minRelatedSet is the evidence a leaf needs before deciding: one
	// entry, the least a comparison can be made against (a super with an
	// empty G takes the EmptyGDemoteAfter path instead).
	minRelatedSet = 1
	// demoteRateGain is the demotion-side multiplier of the rate limit,
	// kept small: a misjudged demotion disconnects ~k_l leaves (the PAO),
	// a misjudged non-demotion costs nothing — the super-layer also
	// shrinks through ordinary deaths.
	demoteRateGain = 2
)

// Params are DLM's tunables. The paper specifies the directions in which
// the scale parameters (X) and thresholds (Z) respond to the ratio skew μ
// but not the functional forms; the forms here (exponential for X, affine
// for Z, both clamped) are the reconstruction documented in DESIGN.md.
// A field is here because a committed results/ artifact sweeps it, a
// scenario sets it, or a host must rescale it (TestEveryParamHasEvidence).
type Params struct {
	// LambdaCapa and LambdaAge are the gains of the scale parameters:
	// X = clamp(exp(-λ·μ), xMin, xMax).
	LambdaCapa float64
	LambdaAge  float64

	// The affine gains of the per-metric thresholds (the paper keeps
	// Z_capa and Z_age distinct): Z = clamp(Z0 + β·μ, zMin, zMax). The
	// age gains are the ratio-control channel — under a super-layer
	// shortage the age bar drops fast, because any sufficiently strong
	// peer can be recruited young. The capacity gains stay small so the
	// capacity filter remains selective even while the ratio controller
	// is recruiting; otherwise a persistent mild shortage would let
	// weak-capacity peers into the super-layer.
	BetaPromoteCapa float64
	BetaPromoteAge  float64
	BetaDemoteCapa  float64
	BetaDemoteAge   float64

	// MaxRelatedSet caps a leaf's related set; the oldest entry is
	// evicted first. Zero means unbounded (the paper keeps every super
	// contacted since join).
	MaxRelatedSet int
	// LeafWindow is T_l, the recency window for a leaf's related set;
	// entries not seen within the window are pruned at decision time.
	// Zero disables pruning.
	LeafWindow Duration

	// DecisionCooldown is the minimum time between a peer's role changes
	// (and after join) before it may change layer; it prevents flapping.
	DecisionCooldown Duration
	// DemotionCooldown additionally delays comparison-based demotion
	// after a peer becomes a super-peer. A fresh super-peer's leaf set
	// takes tens of time units to fill, so its own l_nn reads as "too
	// many supers" until then; without this guard promotions flap
	// straight back.
	DemotionCooldown Duration
	// EvalProbability staggers decisions: each peer evaluates per tick
	// with this probability, so the layer does not move in lock-step.
	EvalProbability float64
	// EmptyGDemoteAfter demotes a super-peer that has attracted no leaf
	// neighbors for this long (it contributes nothing to the backbone and
	// cannot run the comparison). Zero disables.
	EmptyGDemoteAfter Duration

	// RateLimit enables deficit-proportional switching: with r = l_nn/k_l
	// and P = EvalProbability, an eligible leaf promotes with probability
	// RateGain·(r − 1)/η/P weighted by (1 − Y_capa)^SelectionSharpness,
	// and an eligible super demotes with probability
	// demoteRateGain·(1 − r)/P weighted by Y_capa^SelectionSharpness, both
	// clamped to [0,1].
	// The quantities are computable from purely local information (η and
	// m are protocol constants), and the expected number of switches per
	// tick then matches the estimated layer deficit — preventing the
	// thundering herd where every eligible peer switches at once. This is
	// a reconstruction; see DESIGN.md.
	RateLimit bool
	// RateGain multiplies the deficit-proportional *promotion*
	// probability. Values above 1 reduce the steady-state ratio offset
	// that a purely proportional response leaves behind (promotion flux
	// must offset super-peer deaths), at the cost of more aggressive
	// corrections. It must be positive while RateLimit is on.
	RateGain float64
	// SelectionSharpness biases *which* eligible peers switch without
	// throttling total switch flux: an eligible leaf's promotion
	// probability is weighted by (1−Y_capa)^k and an eligible super's
	// demotion probability by (Y_capa)^k, with k this exponent. The
	// strongest candidates relative to their own related set — still
	// purely local information — switch first, so capacity selection
	// survives even when a shortage has relaxed the eligibility
	// thresholds. Zero disables the weighting.
	SelectionSharpness float64

	// Exchange selects the information-collection policy.
	Exchange ExchangePolicy
	// PeriodicInterval is the exchange period under Periodic.
	PeriodicInterval Duration
	// RefreshInterval makes leaves re-request l_nn from their current
	// supers (with the values, for those outside G(l)) this often even under
	// EventDriven, keeping μ and G(l) fresh on long-lived connections (§6:
	// these can piggyback on keepalives). Zero disables refresh.
	RefreshInterval Duration

	// RequestTimeout is the deadline a peer attaches to each Phase 1
	// answer it awaits, a request's or a new link's pushed Value frame (see
	// Exchange/ExpirePending in pending.go): one still missing after this
	// long is asked for again, giving the exchange bounded
	// at-least-once semantics over lossy transports. Deadlines are
	// computed from the host-supplied clock only, so the protocol core
	// stays transport- and time-import free. Zero disables the pending
	// table entirely.
	RequestTimeout Duration
	// MaxRetries is the number of times a timed-out request is re-sent
	// before being abandoned (so a request is transmitted at most
	// 1+MaxRetries times). Zero retries means timeouts go straight to the
	// abandon count; the most is 65535, the range of a pending row's
	// counter.
	MaxRetries int

	// DefenseMaxCapacity enables the bounded-sanity misreport defense used
	// by the adversarial scenarios (internal/scenario). When positive:
	// (a) a Value frame claiming a capacity above this bound — or an age
	// exceeding the protocol clock, which no peer can truthfully have — is
	// rejected instead of admitted to the related set, so implausible
	// liars vanish from honest peers' comparisons; and (b) a leaf whose
	// own claimed capacity or age fails the same plausibility test never
	// promotes (its counterparts would reject the claim), checked before
	// the rate-limit draw so the draw discipline is unchanged. Only
	// promotion is gated — suppressing demotion would entrench a lying
	// super-peer, the opposite of a defense. Liars whose claims stay
	// within the bound remain undetectable by design: the defense bounds
	// the damage, it cannot eliminate it. Zero disables every check, and
	// no draw or comparison differs, so defense-off runs stay
	// byte-identical to builds without the field.
	DefenseMaxCapacity float64

	// LnnSmoothing is the EWMA coefficient a super-peer applies to its
	// own l_nn before using it in demotion decisions. Leaf attachment is
	// a random arrival process, so instantaneous l_nn fluctuates around
	// k_l; unsmoothed, those fluctuations read as ratio skew and cause
	// the misjudged demotions the paper's Table 3 discussion predicts at
	// small scale. Zero disables smoothing.
	LnnSmoothing float64
}

// DefaultParams returns the tuning used throughout the evaluation.
func DefaultParams() Params {
	return Params{
		LambdaCapa: 1.0,
		LambdaAge:  1.0,

		BetaPromoteCapa: 1.0,
		BetaPromoteAge:  2.0,
		BetaDemoteCapa:  0.3,
		BetaDemoteAge:   1.0,

		MaxRelatedSet: 64,
		LeafWindow:    60,

		DecisionCooldown:   5,
		DemotionCooldown:   100,
		EvalProbability:    0.25,
		EmptyGDemoteAfter:  30,
		RateLimit:          true,
		RateGain:           8,
		SelectionSharpness: 2,

		Exchange:         EventDriven,
		PeriodicInterval: 5,
		RefreshInterval:  30,
		RequestTimeout:   5,
		MaxRetries:       2,
		LnnSmoothing:     0.08,
	}
}

// Validate reports a descriptive error for out-of-range parameters.
func (p Params) Validate() error {
	switch {
	case p.LambdaCapa < 0 || p.LambdaAge < 0:
		return fmt.Errorf("protocol: negative lambda (%v, %v)", p.LambdaCapa, p.LambdaAge)
	case p.BetaPromoteCapa < 0 || p.BetaPromoteAge < 0 || p.BetaDemoteCapa < 0 || p.BetaDemoteAge < 0:
		return fmt.Errorf("protocol: negative threshold gain")
	case p.MaxRelatedSet < 0:
		return fmt.Errorf("protocol: MaxRelatedSet = %d, want >= 0", p.MaxRelatedSet)
	case p.EvalProbability <= 0 || p.EvalProbability > 1:
		return fmt.Errorf("protocol: EvalProbability = %v, want (0,1]", p.EvalProbability)
	case p.DecisionCooldown < 0 || p.DemotionCooldown < 0 || p.LeafWindow < 0 ||
		p.EmptyGDemoteAfter < 0 || p.RefreshInterval < 0 || p.RequestTimeout < 0:
		return fmt.Errorf("protocol: negative duration parameter")
	case p.MaxRetries < 0 || p.MaxRetries > math.MaxUint16:
		return fmt.Errorf("protocol: MaxRetries = %d, want [0, %d]", p.MaxRetries, math.MaxUint16)
	case p.RateLimit && p.RateGain <= 0:
		return fmt.Errorf("protocol: RateGain = %v, want > 0 while RateLimit is on", p.RateGain)
	case p.SelectionSharpness < 0:
		return fmt.Errorf("protocol: SelectionSharpness = %v, want >= 0", p.SelectionSharpness)
	case p.DefenseMaxCapacity < 0:
		return fmt.Errorf("protocol: DefenseMaxCapacity = %v, want >= 0", p.DefenseMaxCapacity)
	case p.LnnSmoothing < 0 || p.LnnSmoothing > 1:
		return fmt.Errorf("protocol: LnnSmoothing = %v, want [0,1]", p.LnnSmoothing)
	case p.Exchange == Periodic && p.PeriodicInterval <= 0:
		return fmt.Errorf("protocol: periodic policy needs PeriodicInterval > 0")
	}
	return nil
}
