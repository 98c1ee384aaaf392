package gp

import (
	"math"
	"testing"

	"repro/internal/sample"
)

// finiteGrad is the finite-difference gradient of PredictInto's mean
// and variance at x, with step h per coordinate.
func finiteGrad(g *GP, x []float64, h float64) (dmu, dvar []float64) {
	var s PredictScratch
	dmu, dvar = make([]float64, len(x)), make([]float64, len(x))
	xp := append([]float64(nil), x...)
	for j := range x {
		xp[j] = x[j] + h
		muHi, varHi := g.PredictInto(&s, xp)
		xp[j] = x[j] - h
		muLo, varLo := g.PredictInto(&s, xp)
		xp[j] = x[j]
		dmu[j] = (muHi - muLo) / (2 * h)
		dvar[j] = (varHi - varLo) / (2 * h)
	}
	return dmu, dvar
}

// gradClose reports whether got matches the finite differences want
// to rel relative to want's largest entry, give or take 1e-9: the
// differences' own rounding error near a training point, where the
// variance gradient shrinks to about 1e-8.
func gradClose(got, want []float64, rel float64) bool {
	scale := 0.0
	for _, v := range want {
		scale = math.Max(scale, math.Abs(v))
	}
	for j := range want {
		if math.Abs(got[j]-want[j]) > rel*scale+1e-9 {
			return false
		}
	}
	return true
}

// TestPredictGradMatchesFiniteDifferences: for exact and sparse
// surrogates, PredictGradInto returns PredictInto's mean and variance
// bit for bit and gradients that match finite differences to 1e-4
// relative, at random points and at a training point (where one kernel
// entry sits at r = 0).
func TestPredictGradMatchesFiniteDifferences(t *testing.T) {
	const d = 5
	var s, single PredictScratch
	dmu, dvar := make([]float64, d), make([]float64, d)
	for _, sparse := range []bool{false, true} {
		x, y := randomTraining(37, d, 3)
		cfg := DefaultConfig()
		cfg.Restarts = 1
		if sparse {
			cfg.SparseThreshold = 21
		}
		g, err := Fit(x, y, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if g.Sparse() != sparse {
			t.Fatalf("sparse=%v: Sparse() = %v", sparse, g.Sparse())
		}
		rng := sample.NewRNG(17)
		queries := [][]float64{g.x[0]}
		for q := 0; q < 8; q++ {
			p := make([]float64, d)
			for j := range p {
				p[j] = 0.05 + 0.9*rng.Float64()
			}
			queries = append(queries, p)
		}
		for q, p := range queries {
			mu, variance := g.PredictGradInto(&s, p, dmu, dvar)
			wantMu, wantVar := g.PredictInto(&single, p)
			if mu != wantMu || variance != wantVar {
				t.Fatalf("sparse=%v query %d: (%v,%v), PredictInto (%v,%v)", sparse, q, mu, variance, wantMu, wantVar)
			}
			fdMu, fdVar := finiteGrad(g, p, 1e-6)
			if !gradClose(dmu, fdMu, 1e-4) {
				t.Errorf("sparse=%v query %d: ∇μ = %v, finite differences %v", sparse, q, dmu, fdMu)
			}
			if !gradClose(dvar, fdVar, 1e-4) {
				t.Errorf("sparse=%v query %d: ∇σ² = %v, finite differences %v", sparse, q, dvar, fdVar)
			}
		}
	}
}

// TestPredictGradClampedVariance: where the posterior variance clamps
// at 0 (the training points of a GP whose noise, 1e-20, vanishes
// beside the signal variance, so their variance rounds to or below
// zero), ∇σ² is 0 while ∇μ still matches finite differences.
func TestPredictGradClampedVariance(t *testing.T) {
	const d = 3
	x, y := randomTraining(25, d, 9)
	cfg := DefaultConfig()
	cfg.FitHyper = false
	cfg.Init = Params{LogVariance: 0, LogLength: math.Log(0.5), LogNoise: math.Log(1e-20)}
	g, err := Fit(x, y, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var s PredictScratch
	dmu, dvar := make([]float64, d), make([]float64, d)
	clamped := 0
	for i, p := range x {
		_, variance := g.PredictGradInto(&s, p, dmu, dvar)
		if variance != 0 {
			continue
		}
		clamped++
		for j, v := range dvar {
			if v != 0 {
				t.Errorf("training point %d: σ² = 0 but ∂σ²/∂x[%d] = %v", i, j, v)
			}
		}
		if fdMu, _ := finiteGrad(g, p, 1e-6); !gradClose(dmu, fdMu, 1e-3) {
			t.Errorf("training point %d: ∇μ = %v, finite differences %v", i, dmu, fdMu)
		}
	}
	if clamped == 0 {
		t.Fatal("no training point clamped its variance; the test exercises nothing")
	}
}

// TestPredictGradAllocationFree: once the scratch is warm a gradient
// allocates nothing, and mismatched gradient slices panic.
func TestPredictGradAllocationFree(t *testing.T) {
	x, y := randomTraining(40, 4, 5)
	cfg := DefaultConfig()
	cfg.Restarts = 1
	g, err := Fit(x, y, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var s PredictScratch
	dmu, dvar := make([]float64, 4), make([]float64, 4)
	if allocs := testing.AllocsPerRun(20, func() { g.PredictGradInto(&s, x[3], dmu, dvar) }); allocs != 0 {
		t.Errorf("warm PredictGradInto allocates %v times per call", allocs)
	}
	defer func() {
		if recover() == nil {
			t.Error("short gradient slice accepted")
		}
	}()
	g.PredictGradInto(&s, x[3], dmu[:3], dvar)
}
