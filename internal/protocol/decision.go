package protocol

import "math"

// Mu computes the layer-size-ratio skew μ = log(l_nn / k_l), clamped to
// ±muMax (paper Phase 2). A positive μ means super-peers carry more
// leaves than the optimum k_l = m·η — i.e. there are too few super-peers;
// negative means too many.
func (p *Params) Mu(lnn, kl float64) float64 {
	if lnn <= 0 || kl <= 0 {
		return -muMax // an empty super-layer view reads as "too many supers"
	}
	return clamp(math.Log(lnn/kl), -muMax, muMax)
}

// ScaleFor returns the scale parameters (X_capa, X_age) for the given μ:
// X = clamp(exp(-λ·μ), xMin, xMax). With μ>0 (more supers needed) X drops
// below 1, which lowers both counting variables — making promotion easier
// for leaves and demotion rarer for supers, the four directional rules of
// the paper's Phase 3.
func (p *Params) ScaleFor(mu float64) (xCapa, xAge float64) {
	xCapa = clamp(math.Exp(-p.LambdaCapa*mu), xMin, xMax)
	if p.LambdaAge == p.LambdaCapa {
		// Identical gains (the default) make the two scales identical;
		// skip the second exp — it is the hottest transcendental in the
		// whole simulation.
		return xCapa, xCapa
	}
	xAge = clamp(math.Exp(-p.LambdaAge*mu), xMin, xMax)
	return xCapa, xAge
}

// MuScale computes Mu and ScaleFor in one step. With the default unit
// gains (λ_capa = λ_age = 1) and an unclamped μ, the scale is
// exp(-log(l_nn/k_l)) = k_l/l_nn algebraically; computing the division
// directly skips the hottest transcendental on the decision path (and
// rounds once instead of twice). Any other configuration falls back to
// ScaleFor.
func (p *Params) MuScale(lnn, kl float64) (mu, xCapa, xAge float64) {
	mu = p.Mu(lnn, kl)
	if p.LambdaCapa == 1 && p.LambdaAge == 1 &&
		lnn > 0 && kl > 0 && -muMax < mu && mu < muMax {
		x := clamp(kl/lnn, xMin, xMax)
		return mu, x, x
	}
	xCapa, xAge = p.ScaleFor(mu)
	return mu, xCapa, xAge
}

// ZPromoteCapa returns the capacity promotion threshold for the given μ.
func (p *Params) ZPromoteCapa(mu float64) float64 {
	return clamp(zPromote0+p.BetaPromoteCapa*mu, zMin, zMax)
}

// ZPromoteAge returns the age promotion threshold for the given μ.
func (p *Params) ZPromoteAge(mu float64) float64 {
	return clamp(zPromote0+p.BetaPromoteAge*mu, zMin, zMax)
}

// ZDemoteCapa returns the capacity demotion threshold for the given μ.
func (p *Params) ZDemoteCapa(mu float64) float64 {
	return clamp(zDemote0+p.BetaDemoteCapa*mu, zMin, zMax)
}

// ZDemoteAge returns the age demotion threshold for the given μ.
func (p *Params) ZDemoteAge(mu float64) float64 {
	return clamp(zDemote0+p.BetaDemoteAge*mu, zMin, zMax)
}

// Decision is the outcome of one evaluation.
type Decision struct {
	Mu           float64
	XCapa, XAge  float64
	YCapa, YAge  float64
	ZCapa, ZAge  float64
	ShouldSwitch bool
}

// applyThresholds fills the Z fields and the Phase 4 switch condition:
// for a leaf (promote = true) the switch condition is Y_capa < Z and
// Y_age < Z; for a super it is Y_capa > Z and Y_age > Z.
func (p *Params) applyThresholds(d *Decision, promote bool) {
	if promote {
		d.ZCapa, d.ZAge = p.ZPromoteCapa(d.Mu), p.ZPromoteAge(d.Mu)
		d.ShouldSwitch = d.YCapa < d.ZCapa && d.YAge < d.ZAge
	} else {
		d.ZCapa, d.ZAge = p.ZDemoteCapa(d.Mu), p.ZDemoteAge(d.Mu)
		d.ShouldSwitch = d.YCapa > d.ZCapa && d.YAge > d.ZAge
	}
}

// SwitchProbability exposes the deficit-proportional rate limit for the
// hosts: the probability with which an eligible peer should actually
// switch, given the observed l_nn, the constant k_l, the target η and the
// peer's capacity counter Y_capa (for selection weighting). The per-round
// rate is divided by EvalProbability, the share of rounds a peer
// evaluates in.
func (p *Params) SwitchProbability(lnn, kl, eta, yCapa float64, promote bool) float64 {
	if !p.RateLimit {
		return 1
	}
	r := lnn / kl
	var prob float64
	if promote {
		prob = p.RateGain * (r - 1) / eta / p.EvalProbability
	} else {
		prob = demoteRateGain * (1 - r) / p.EvalProbability
	}
	if k := p.SelectionSharpness; k > 0 {
		// Favor the strongest candidates: a leaf that beats all the
		// supers it knows (Y_capa=0) switches at full probability, a
		// marginal one is damped; symmetrically the weakest supers
		// demote first.
		w := 1 - yCapa
		if !promote {
			w = yCapa
		}
		prob *= math.Pow(w, k)
	}
	if prob < 0 {
		return 0
	}
	if prob > 1 {
		return 1
	}
	return prob
}

func clamp(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}
