// Package bo implements ROBOTune's Bayesian-Optimization engine
// (§3.4, Algorithm 1): a Gaussian-Process surrogate searched through
// an adaptive GP-Hedge portfolio of three acquisition functions —
// Probability of Improvement, Expected Improvement and Lower
// Confidence Bound — each adapted to minimization as in equations
// (2)–(4) of the paper. Acquisition surfaces are optimized with
// multistart L-BFGS-B (§4) on their analytic gradients: each
// acquisition's partials in (μ, σ) chained through the GP posterior's
// gradient.
package bo

import (
	"math"

	"repro/internal/stats"
)

// Acquisition scores a candidate's posterior (μ, σ) against the
// incumbent best observation, and returns the score's partial
// derivatives in μ and σ with it, which the acquisition search chains
// through the posterior's gradient. Higher scores are more desirable.
// All three functions are minimization-adapted per §3.4.
type Acquisition interface {
	Name() string
	Score(mu, sigma, fBest float64) (score, dMu, dSigma float64)
}

// PI is the Probability of Improvement (eq. 2):
// PI(x) = P(f(x) <= f(x+) − ξ) = Φ(d/σ), d = f(x+) − μ(x) − ξ.
type PI struct {
	// Xi is the exploration knob ξ (the paper uses 0.01).
	Xi float64
}

// Name implements Acquisition.
func (PI) Name() string { return "PI" }

// Score implements Acquisition: with z = d/σ, ∂PI/∂μ = −φ(z)/σ and
// ∂PI/∂σ = −z·φ(z)/σ. At σ = 0 PI is a step in μ, flat on each side.
func (a PI) Score(mu, sigma, fBest float64) (score, dMu, dSigma float64) {
	d := fBest - mu - a.Xi
	if sigma <= 0 {
		if d > 0 {
			return 1, 0, 0
		}
		return 0, 0, 0
	}
	z := d / sigma
	pdf := stats.NormPDF(z)
	return stats.NormCDF(z), -pdf / sigma, -z * pdf / sigma
}

// EI is the Expected Improvement (eq. 3):
// EI(x) = d·Φ(d/σ) + σ·φ(d/σ) for σ > 0, else 0.
type EI struct {
	// Xi is the exploration knob ξ (the paper uses 0.01).
	Xi float64
}

// Name implements Acquisition.
func (EI) Name() string { return "EI" }

// Score implements Acquisition: with z = d/σ, ∂EI/∂μ = −Φ(z) and
// ∂EI/∂σ = φ(z). Every branch that returns a constant returns zero
// partials.
func (a EI) Score(mu, sigma, fBest float64) (score, dMu, dSigma float64) {
	if sigma <= 0 {
		return 0, 0, 0
	}
	d := fBest - mu - a.Xi
	if math.IsInf(d, -1) || math.IsNaN(d) {
		return 0, 0, 0
	}
	if math.IsInf(d, 1) {
		return math.MaxFloat64, 0, 0
	}
	z := d / sigma
	cdf, pdf := stats.NormCDF(z), stats.NormPDF(z)
	v := d*cdf + sigma*pdf
	if v < 0 || math.IsNaN(v) {
		// Guard against catastrophic cancellation far below the
		// incumbent.
		return 0, 0, 0
	}
	return v, -cdf, pdf
}

// LCB is the Lower Confidence Bound (eq. 4): LCB(x) = μ(x) − κσ(x).
// As an acquisition score (higher better) it is negated.
type LCB struct {
	// Kappa is the confidence knob κ (the paper uses 1.96).
	Kappa float64
}

// Name implements Acquisition.
func (LCB) Name() string { return "LCB" }

// Score implements Acquisition: ∂/∂μ = −1 and ∂/∂σ = κ.
func (a LCB) Score(mu, sigma, _ float64) (score, dMu, dSigma float64) {
	return -(mu - a.Kappa*sigma), -1, a.Kappa
}

// DefaultPortfolio returns the paper's three-function portfolio with
// ξ = 0.01 and κ = 1.96 (§4: "they perform well in most cases").
func DefaultPortfolio() []Acquisition {
	return []Acquisition{PI{Xi: 0.01}, EI{Xi: 0.01}, LCB{Kappa: 1.96}}
}

// softmax fills out with softmax(η·g), guarding overflow.
func softmax(g []float64, eta float64, out []float64) {
	maxG := math.Inf(-1)
	for _, v := range g {
		if v > maxG {
			maxG = v
		}
	}
	var sum float64
	for i, v := range g {
		out[i] = math.Exp(eta * (v - maxG))
		sum += out[i]
	}
	for i := range out {
		out[i] /= sum
	}
}
