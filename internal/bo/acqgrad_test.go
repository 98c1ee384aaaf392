package bo

import (
	"math"
	"testing"

	"repro/internal/sample"
)

// TestAcquisitionPartialsMatchDifferences: every acquisition's partials
// in μ and σ match finite differences of its score, at points across
// both sides of the incumbent, on EI's zero branch (where both are 0)
// and at σ = 0 (where PI and EI are flat and LCB keeps −1 and κ).
func TestAcquisitionPartialsMatchDifferences(t *testing.T) {
	const h = 1e-6
	for _, acq := range DefaultPortfolio() {
		for _, pt := range []struct{ mu, sigma float64 }{
			{0.2, 0.1}, {0.8, 0.1}, {1.0, 0.5}, {0.5, 0.3}, {1.4, 0.2}, {0.99, 0.02},
		} {
			_, dMu, dSigma := acq.Score(pt.mu, pt.sigma, 1.0)
			hiMu, _, _ := acq.Score(pt.mu+h, pt.sigma, 1.0)
			loMu, _, _ := acq.Score(pt.mu-h, pt.sigma, 1.0)
			hiSigma, _, _ := acq.Score(pt.mu, pt.sigma+h, 1.0)
			loSigma, _, _ := acq.Score(pt.mu, pt.sigma-h, 1.0)
			fdMu, fdSigma := (hiMu-loMu)/(2*h), (hiSigma-loSigma)/(2*h)
			if math.Abs(dMu-fdMu) > 1e-6*math.Max(1, math.Abs(fdMu)) {
				t.Errorf("%s at (μ=%v, σ=%v): ∂/∂μ = %v, finite difference %v", acq.Name(), pt.mu, pt.sigma, dMu, fdMu)
			}
			if math.Abs(dSigma-fdSigma) > 1e-6*math.Max(1, math.Abs(fdSigma)) {
				t.Errorf("%s at (μ=%v, σ=%v): ∂/∂σ = %v, finite difference %v", acq.Name(), pt.mu, pt.sigma, dSigma, fdSigma)
			}
		}
	}

	// EI's zero branch, far below the incumbent where d·Φ(z) + σ·φ(z)
	// cancels to 0, and at σ = 0: a constant score with zero partials.
	for _, pt := range []struct{ mu, sigma float64 }{{50, 0.1}, {0.5, 0}, {1.5, 0}, {math.Inf(1), 0.1}} {
		if s, dMu, dSigma := (EI{Xi: 0.01}).Score(pt.mu, pt.sigma, 1.0); s != 0 || dMu != 0 || dSigma != 0 {
			t.Errorf("EI at (μ=%v, σ=%v) = (%v, %v, %v), want all 0", pt.mu, pt.sigma, s, dMu, dSigma)
		}
	}
	// PI at σ = 0 is a step in μ, flat on both sides.
	for _, mu := range []float64{0.5, 1.5} {
		if _, dMu, dSigma := (PI{Xi: 0.01}).Score(mu, 0, 1.0); dMu != 0 || dSigma != 0 {
			t.Errorf("PI at (μ=%v, σ=0): partials (%v, %v), want 0", mu, dMu, dSigma)
		}
	}
	if s, dMu, dSigma := (LCB{Kappa: 1.96}).Score(0.5, 0, 1.0); s != -0.5 || dMu != -1 || dSigma != 1.96 {
		t.Errorf("LCB at σ=0 = (%v, %v, %v), want (-0.5, -1, 1.96)", s, dMu, dSigma)
	}
}

// TestAcquisitionObjectiveGradient: the acquisition search's objective
// (each portfolio member's negated score chained through the GP
// posterior's gradient, cost-aware or not) matches finite differences
// in x, at points where the k-NN cost is constant across the
// difference.
func TestAcquisitionObjectiveGradient(t *testing.T) {
	const d, h = 4, 1e-6
	for _, costAware := range []bool{false, true} {
		e := New(d, Config{Seed: 3, CostAware: costAware})
		rng := sample.NewRNG(21)
		for _, x := range sample.LHS(24, d, rng) {
			y := math.Sin(3*x[0]) + x[1]*x[1] - 0.5*x[2]
			if err := e.Tell(x, y); err != nil {
				t.Fatal(err)
			}
			e.ObserveCost(x, 10+100*x[3])
		}
		g, err := e.Surrogate()
		if err != nil {
			t.Fatal(err)
		}
		_, fBest, _ := e.Best()
		grad, scratch := make([]float64, d), make([]float64, d)
		checked := 0
		for _, acq := range e.cfg.Portfolio {
			obj := acqObjective{e: e, g: g, acq: acq, fBest: fBest, costAware: costAware}
			for _, x := range sample.LHS(12, d, rng) {
				f := obj.valueGrad(x, grad)
				if f == 0 {
					continue // EI's zero branch: flat, nothing to difference
				}
				xp := append([]float64(nil), x...)
				for j := range x {
					xp[j] = x[j] + h
					hi, cHi := obj.valueGrad(xp, scratch), e.predictCost(xp)
					xp[j] = x[j] - h
					lo, cLo := obj.valueGrad(xp, scratch), e.predictCost(xp)
					xp[j] = x[j]
					if costAware && (cHi != e.predictCost(x) || cLo != e.predictCost(x)) {
						continue // the difference straddles a k-NN cost step
					}
					fd := (hi - lo) / (2 * h)
					if math.Abs(grad[j]-fd) > 1e-4*math.Max(math.Abs(fd), 1e-3) {
						t.Errorf("costAware=%v %s at %v: ∂f/∂x[%d] = %v, finite difference %v",
							costAware, acq.Name(), x, j, grad[j], fd)
					}
					checked++
				}
			}
		}
		if checked < 100 {
			t.Fatalf("costAware=%v: only %d partials checked", costAware, checked)
		}
	}
}
