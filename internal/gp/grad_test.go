package gp

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/linalg"
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

// lmlFiniteGrad is the central-difference gradient of g's LML at p in
// (log σ_f², log ℓ, log σ_n²), with step h.
func lmlFiniteGrad(t *testing.T, g *GP, c *distCache, p Params, h float64) []float64 {
	t.Helper()
	var s lmlScratch
	at := func(v []float64) float64 {
		lml, ok := g.logMarginalCached(Params{LogVariance: v[0], LogLength: v[1], LogNoise: v[2]}, c, &s)
		if !ok {
			t.Fatalf("LML at %v: factorization failed", v)
		}
		return lml
	}
	v := []float64{p.LogVariance, p.LogLength, p.LogNoise}
	fd := make([]float64, 3)
	for j := range v {
		x := v[j]
		v[j] = x + h
		hi := at(v)
		v[j] = x - h
		lo := at(v)
		v[j] = x
		fd[j] = (hi - lo) / (2 * h)
	}
	return fd
}

// TestLogMarginalGradMatchesFiniteDifferences: logMarginalGrad returns
// logMarginalCached's LML bit for bit and a gradient that matches
// central differences (h = 1e-6) to 1e-4 relative, at random points
// inside hyperBounds, on each face of the box, on the active subset of
// a sparse fit, and for duplicate inputs whose factorization needs
// jitter.
func TestLogMarginalGradMatchesFiniteDifferences(t *testing.T) {
	type probe struct {
		name string
		g    *GP
		p    Params
	}
	fitted := func(n, d int, seed uint64, sparse int) *GP {
		x, y := randomTraining(n, d, seed)
		cfg := DefaultConfig()
		cfg.FitHyper = false
		cfg.SparseThreshold = sparse
		g, err := Fit(x, y, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
	inBox := func(rng interface{ Float64() float64 }) []float64 {
		v := make([]float64, 3)
		for j := range v {
			v[j] = hyperBounds.Lo[j] + rng.Float64()*(hyperBounds.Hi[j]-hyperBounds.Lo[j])
		}
		return v
	}
	params := func(v []float64) Params { return Params{LogVariance: v[0], LogLength: v[1], LogNoise: v[2]} }

	var probes []probe
	rng := sample.NewRNG(23)
	init := DefaultConfig().Init
	for _, n := range []int{12, 40, 90} {
		g := fitted(n, 4, uint64(n), 0)
		for q := 0; q < 4; q++ {
			probes = append(probes, probe{fmt.Sprintf("n=%d random %d", n, q), g, params(inBox(rng))})
		}
		// The faces are probed from the search's default start: with
		// another coordinate far out as well (ℓ on its upper face with
		// σ_f² ≫ σ_n², say) K's condition number passes 1e8 and central
		// differences at h = 1e-6 drift by 1e-3 relative, while steps
		// of 1e-3 and 1e-4 agree with the analytic gradient to 1e-7.
		for j := 0; j < 3; j++ {
			for _, face := range []float64{hyperBounds.Lo[j], hyperBounds.Hi[j]} {
				v := []float64{init.LogVariance, init.LogLength, init.LogNoise}
				v[j] = face
				probes = append(probes, probe{fmt.Sprintf("n=%d face θ%d=%.3g", n, j, face), g, params(v)})
			}
		}
	}
	sparse := fitted(60, 5, 7, 24)
	if !sparse.Sparse() || sparse.ActiveSize() != 24 {
		t.Fatalf("sparse fit: Sparse() = %v, active %d", sparse.Sparse(), sparse.ActiveSize())
	}
	for q := 0; q < 4; q++ {
		probes = append(probes, probe{fmt.Sprintf("sparse active subset %d", q), sparse, params(inBox(rng))})
	}
	// Duplicate rows (with their targets) leave K_f singular, and a
	// noise of 1e-20 does not lift it: the factorization needs jitter,
	// the same 1e-10 at every difference point. The jittered pivot is
	// only good to about ε·σ_f²/1e-10, so the probe sits at the lower
	// face of σ_f², where the LML's slope (about 10³) stands clear of
	// that rounding; at σ_f² = 1 it moves central differences by 1e-3
	// relative.
	x, y := randomTraining(20, 3, 11)
	x = append(x, x[2], x[7])
	y = append(y, y[2], y[7])
	cfg := DefaultConfig()
	cfg.FitHyper = false
	dup, err := Fit(x, y, cfg)
	if err != nil {
		t.Fatal(err)
	}
	jittered := []float64{hyperBounds.Lo[0], math.Log(0.1), math.Log(1e-20)}
	for j := range jittered {
		for _, h := range []float64{-1e-6, 0, 1e-6} {
			v := append([]float64(nil), jittered...)
			v[j] += h
			if _, jitter, err := linalg.Cholesky(dup.kernelMatrix(params(v)), jitterStart, jitterMaxTries); err != nil || jitter != 1e-10 {
				t.Fatalf("duplicate inputs at %v factor with jitter %v (err %v), want 1e-10", v, jitter, err)
			}
		}
	}
	probes = append(probes, probe{"duplicates with jitter", dup, params(jittered)})

	var s, ref lmlScratch
	grad := make([]float64, 3)
	for _, pr := range probes {
		c := newDistCache(pr.g.x)
		lml, ok := pr.g.logMarginalGrad(pr.p, c, &s, grad)
		want, wantOK := pr.g.logMarginalCached(pr.p, c, &ref)
		if !ok || !wantOK || lml != want {
			t.Fatalf("%s: LML %v (ok %v), logMarginalCached %v (ok %v)", pr.name, lml, ok, want, wantOK)
		}
		if fd := lmlFiniteGrad(t, pr.g, c, pr.p, 1e-6); !gradClose(grad, fd, 1e-4) {
			t.Errorf("%s at %+v: ∇LML = %v, finite differences %v", pr.name, pr.p, grad, fd)
		}
	}
}

// TestLogMarginalGradAllocationFree: once the scratch is warm, one
// value-and-gradient evaluation allocates nothing.
func TestLogMarginalGradAllocationFree(t *testing.T) {
	x, y := randomTraining(40, 4, 5)
	cfg := DefaultConfig()
	cfg.FitHyper = false
	g, err := Fit(x, y, cfg)
	if err != nil {
		t.Fatal(err)
	}
	c := newDistCache(x)
	var s lmlScratch
	grad := make([]float64, 3)
	p := Params{LogVariance: 0.2, LogLength: math.Log(0.3), LogNoise: math.Log(1e-3)}
	if allocs := testing.AllocsPerRun(20, func() { g.logMarginalGrad(p, c, &s, grad) }); allocs != 0 {
		t.Errorf("warm logMarginalGrad allocates %v times per call", allocs)
	}
}
