package gp

// Equivalence tests for the GP fast path: every cached/scratch-reusing
// code path is compared against a naive reference implementation (the
// pre-fast-path code, reproduced below). The fast path preserves the
// floating-point operation order (cached vs direct evaluation, scratch
// vs allocating solves), so every comparison is bit-exact.

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/linalg"
	"repro/internal/sample"
)

// naiveKernel is the original per-pair Matérn 5/2 kernel: math.Exp of
// the hyperparameters inside the pair loop.
func naiveKernel(p Params, a, b []float64) float64 {
	variance := math.Exp(p.LogVariance)
	length := math.Exp(p.LogLength)
	var sq float64
	for i := range a {
		d := a[i] - b[i]
		sq += d * d
	}
	r := math.Sqrt(sq) / length
	s5 := math.Sqrt(5) * r
	return variance * (1 + s5 + 5*r*r/3) * math.Exp(-s5)
}

// naiveKernelMatrix is the original kernel-matrix build.
func naiveKernelMatrix(p Params, x [][]float64) *linalg.Matrix {
	n := len(x)
	noise := math.Exp(p.LogNoise)
	k := linalg.NewMatrix(n, n)
	for i := 0; i < n; i++ {
		for j := i; j < n; j++ {
			v := naiveKernel(p, x[i], x[j])
			if i == j {
				v += noise
			}
			k.Set(i, j, v)
		}
	}
	linalg.SymmetricFromUpper(k)
	return k
}

// naiveLogMarginal is the original LML: fresh kernel matrix, fresh
// Cholesky, fresh solves, every call.
func naiveLogMarginal(p Params, x [][]float64, yNorm []float64) (float64, error) {
	k := naiveKernelMatrix(p, x)
	l, _, err := linalg.Cholesky(k, 1e-10, 8)
	if err != nil {
		return math.Inf(-1), err
	}
	alpha := linalg.CholSolveInto(l, yNorm, nil)
	n := float64(len(yNorm))
	return -0.5*linalg.Dot(yNorm, alpha) - 0.5*linalg.LogDetFromChol(l) - 0.5*n*math.Log(2*math.Pi), nil
}

// kernel evaluates the covariance between two points (without the
// white-noise term, which only applies on the diagonal). The package
// resolves p once and calls resolved.kernel directly; this wrapper is
// the tests' convenience form for single evaluations.
func kernel(p Params, a, b []float64) float64 {
	rk := resolve(p)
	return rk.kernel(a, b)
}

// kernelMatrix builds the covariance matrix without a cache; it is the
// reference implementation the cached build is tested against.
func (g *GP) kernelMatrix(p Params) *linalg.Matrix {
	n := len(g.x)
	rk := resolve(p)
	k := linalg.NewMatrix(n, n)
	for i := 0; i < n; i++ {
		for j := i; j < n; j++ {
			v := rk.kernel(g.x[i], g.x[j])
			if i == j {
				v += rk.noise
			}
			k.Set(i, j, v)
		}
	}
	linalg.SymmetricFromUpper(k)
	return k
}

// logMarginal computes the log marginal likelihood for hyperparams p
// from scratch. It is the allocating reference implementation; the
// hyperparameter search uses logMarginalCached.
func (g *GP) logMarginal(p Params) (float64, error) {
	k := g.kernelMatrix(p)
	l, _, err := linalg.Cholesky(k, jitterStart, jitterMaxTries)
	if err != nil {
		return math.Inf(-1), err
	}
	alpha := linalg.CholSolveInto(l, g.yNorm, nil)
	return lmlFrom(g.yNorm, alpha, l), nil
}

// randomTraining builds a reproducible random training set.
func randomTraining(n, d int, seed uint64) ([][]float64, []float64) {
	rng := sample.NewRNG(seed)
	x := make([][]float64, n)
	y := make([]float64, n)
	for i := range x {
		row := make([]float64, d)
		for j := range row {
			row[j] = rng.Float64()
		}
		x[i] = row
		y[i] = math.Sin(3*row[0]) + row[1]*row[1] + 0.1*rng.NormFloat64()
	}
	return x, y
}

// randomParams draws random hyperparameters inside the search bounds.
func randomParams(rng interface{ Float64() float64 }) Params {
	return Params{
		LogVariance: math.Log(0.05) + 3*rng.Float64(),
		LogLength:   math.Log(0.1) + 2*rng.Float64(),
		LogNoise:    math.Log(1e-5) + 4*rng.Float64(),
	}
}

// TestKernelResolvedMatchesNaiveIso: the fast kernel is bit-identical
// to the naive one (same operation order, exponentials merely
// hoisted).
func TestKernelResolvedMatchesNaiveIso(t *testing.T) {
	f := func(seed uint64) bool {
		rng := sample.NewRNG(seed)
		p := randomParams(rng)
		a := []float64{rng.Float64(), rng.Float64(), rng.Float64()}
		b := []float64{rng.Float64(), rng.Float64(), rng.Float64()}
		return kernel(p, a, b) == naiveKernel(p, a, b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestKernelMatrixIntoMatchesDirect: the cache-based matrix build is
// bit-identical to per-pair kernel evaluation.
func TestKernelMatrixIntoMatchesDirect(t *testing.T) {
	f := func(seed uint64, n8 uint8) bool {
		n := int(n8%15) + 2
		d := 4
		x, _ := randomTraining(n, d, seed)
		g := &GP{x: x}
		p := randomParams(sample.NewRNG(seed ^ 0xfeed))
		want := g.kernelMatrix(p)
		cache := newDistCache(x)
		rk := resolve(p)
		got := linalg.NewMatrix(n, n)
		g.kernelMatrixInto(&rk, cache, got)
		for i := range want.Data {
			if got.Data[i] != want.Data[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

// TestKernelMatrixMatchesNaive: the resolved matrix build is
// bit-identical to the original per-pair-exp build.
func TestKernelMatrixMatchesNaive(t *testing.T) {
	x, _ := randomTraining(12, 4, 3)
	g := &GP{x: x}
	p := randomParams(sample.NewRNG(4))
	want := naiveKernelMatrix(p, x)
	got := g.kernelMatrix(p)
	for i := range want.Data {
		if got.Data[i] != want.Data[i] {
			t.Fatalf("entry %d: %v vs %v", i, got.Data[i], want.Data[i])
		}
	}
}

// TestLogMarginalCachedMatchesReference: the pooled-scratch LML equals
// the reference logMarginal bit-for-bit (it is the same arithmetic on
// the same matrices), and the reference equals the naive
// implementation exactly.
func TestLogMarginalCachedMatchesReference(t *testing.T) {
	f := func(seed uint64, n8 uint8) bool {
		n := int(n8%20) + 3
		d := 3
		x, y := randomTraining(n, d, seed)
		g := &GP{x: x}
		g.yMean, g.yStd = 0, 1
		g.yNorm = y
		p := randomParams(sample.NewRNG(seed ^ 0xbeef))
		want, err := g.logMarginal(p)
		if err != nil {
			return true // degenerate draw; nothing to compare
		}
		cache := newDistCache(x)
		s := &lmlScratch{}
		got, ok := g.logMarginalCached(p, cache, s)
		if !ok || got != want {
			return false
		}
		// Scratch reuse: a second evaluation with warm buffers must
		// reproduce the value exactly.
		got2, ok2 := g.logMarginalCached(p, cache, s)
		if !ok2 || got2 != want {
			return false
		}
		naive, err := naiveLogMarginal(p, x, g.yNorm)
		return err == nil && naive == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestPredictIntoMatchesPredict: PredictInto with a reused scratch is
// bit-identical to Predict, including across GPs of different sizes
// sharing one scratch.
func TestPredictIntoMatchesPredict(t *testing.T) {
	var s PredictScratch
	for _, n := range []int{8, 25, 12, 5} {
		x, y := randomTraining(n, 4, uint64(n))
		cfg := DefaultConfig()
		cfg.Restarts = 1
		g, err := Fit(x, y, cfg)
		if err != nil {
			t.Fatal(err)
		}
		rng := sample.NewRNG(99)
		for k := 0; k < 20; k++ {
			probe := []float64{rng.Float64(), rng.Float64(), rng.Float64(), rng.Float64()}
			wantMu, wantVar := g.Predict(probe)
			gotMu, gotVar := g.PredictInto(&s, probe)
			if gotMu != wantMu || gotVar != wantVar {
				t.Fatalf("n=%d probe %d: (%v,%v) vs (%v,%v)",
					n, k, gotMu, gotVar, wantMu, wantVar)
			}
		}
	}
}

// TestPredictBatchMatchesPredictInto: PredictBatchInto equals
// PredictInto point for point, bit for bit, for exact and sparse
// surrogates, at every batch size 0-9 (whole groups of four plus each
// leftover count), with one scratch reused across all of them.
func TestPredictBatchMatchesPredictInto(t *testing.T) {
	var s, single PredictScratch
	for _, sparse := range []bool{false, true} {
		x, y := randomTraining(37, 5, 3)
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
		rng := sample.NewRNG(41)
		for m := 0; m <= 9; m++ {
			xs := make([][]float64, m)
			for p := range xs {
				xs[p] = make([]float64, 5)
				for j := range xs[p] {
					xs[p][j] = rng.Float64()
				}
			}
			if m > 1 {
				xs[m-1] = x[0] // a training point: variance near zero
			}
			mu := make([]float64, m)
			variance := make([]float64, m)
			g.PredictBatchInto(&s, xs, mu, variance)
			for p := range xs {
				wantMu, wantVar := g.PredictInto(&single, xs[p])
				if mu[p] != wantMu || variance[p] != wantVar {
					t.Fatalf("sparse=%v m=%d point %d: (%v,%v), PredictInto (%v,%v)",
						sparse, m, p, mu[p], variance[p], wantMu, wantVar)
				}
			}
		}
	}
}

// TestPredictBatchAllocationFree: once the scratch is warm a batch
// prediction allocates nothing, and mismatched outputs panic.
func TestPredictBatchAllocationFree(t *testing.T) {
	x, y := randomTraining(40, 4, 5)
	cfg := DefaultConfig()
	cfg.Restarts = 1
	g, err := Fit(x, y, cfg)
	if err != nil {
		t.Fatal(err)
	}
	xs := x[:11]
	mu := make([]float64, len(xs))
	variance := make([]float64, len(xs))
	var s PredictScratch
	if allocs := testing.AllocsPerRun(20, func() { g.PredictBatchInto(&s, xs, mu, variance) }); allocs != 0 {
		t.Errorf("warm PredictBatchInto allocates %v times per call", allocs)
	}
	defer func() {
		if recover() == nil {
			t.Error("short output slice accepted")
		}
	}()
	g.PredictBatchInto(&s, xs, mu[:3], variance)
}

// TestPosteriorMatchesNaiveReference: the full fitted posterior (mean
// and variance over a probe grid) computed through the fast path is
// bit-identical to a posterior assembled from the naive kernel ops at
// the same hyperparameters.
func TestPosteriorMatchesNaiveReference(t *testing.T) {
	x, y := randomTraining(30, 4, 7)
	cfg := DefaultConfig()
	cfg.Restarts = 2
	cfg.Seed = 7
	g, err := Fit(x, y, cfg)
	if err != nil {
		t.Fatal(err)
	}
	p := g.Params()

	// Naive posterior at the same hyperparameters.
	yMean := 0.0
	for _, v := range y {
		yMean += v
	}
	yMean /= float64(len(y))
	var sd float64
	for _, v := range y {
		sd += (v - yMean) * (v - yMean)
	}
	sd = math.Sqrt(sd / float64(len(y)-1)) // sample std, matching stats.StdDev
	yNorm := make([]float64, len(y))
	for i, v := range y {
		yNorm[i] = (v - yMean) / sd
	}
	k := naiveKernelMatrix(p, x)
	l, _, err := linalg.Cholesky(k, 1e-10, 8)
	if err != nil {
		t.Fatal(err)
	}
	alpha := linalg.CholSolveInto(l, yNorm, nil)

	rng := sample.NewRNG(13)
	for probeI := 0; probeI < 25; probeI++ {
		probe := []float64{rng.Float64(), rng.Float64(), rng.Float64(), rng.Float64()}
		ks := make([]float64, len(x))
		for i := range x {
			ks[i] = naiveKernel(p, x[i], probe)
		}
		muN := linalg.Dot(ks, alpha)
		v := linalg.SolveLowerInto(l, ks, nil)
		varN := naiveKernel(p, probe, probe) - linalg.Dot(v, v)
		if varN < 0 {
			varN = 0
		}
		wantMu := muN*sd + yMean
		wantVar := varN * sd * sd

		gotMu, gotVar := g.Predict(probe)
		if gotMu != wantMu || gotVar != wantVar {
			t.Fatalf("probe %d: (%v,%v) vs naive (%v,%v)", probeI, gotMu, gotVar, wantMu, wantVar)
		}
	}
}

// TestExtendMatchesFullRefit: extending a fitted GP by k points must
// reproduce a from-scratch fit at the same hyperparameters exactly —
// factor, weights, LML, and predictions.
func TestExtendMatchesFullRefit(t *testing.T) {
	for _, tc := range []struct {
		name   string
		newPts int
	}{{"iso+1", 1}, {"iso+4", 4}} {
		t.Run(tc.name, func(t *testing.T) {
			xAll, yAll := randomTraining(30+tc.newPts, 4, 11)
			n0 := 30
			cfg := DefaultConfig()
			cfg.Restarts = 2
			cfg.Seed = 11
			g0, err := Fit(xAll[:n0], yAll[:n0], cfg)
			if err != nil {
				t.Fatal(err)
			}

			ext, err := g0.Extend(xAll, yAll)
			if err != nil {
				t.Fatal(err)
			}

			refCfg := cfg
			refCfg.FitHyper = false
			refCfg.Init = g0.Params()
			ref, err := Fit(xAll, yAll, refCfg)
			if err != nil {
				t.Fatal(err)
			}

			if ext.Params() != ref.Params() {
				t.Fatal("hyperparameters drifted through Extend")
			}
			if ext.N() != ref.N() {
				t.Fatalf("N %d vs %d", ext.N(), ref.N())
			}
			for i := range ref.chol.Data {
				if ext.chol.Data[i] != ref.chol.Data[i] {
					t.Fatalf("factor entry %d: %v vs %v", i, ext.chol.Data[i], ref.chol.Data[i])
				}
			}
			for i := range ref.alpha {
				if ext.alpha[i] != ref.alpha[i] {
					t.Fatalf("alpha entry %d: %v vs %v", i, ext.alpha[i], ref.alpha[i])
				}
			}
			if ext.LogMarginalLikelihood() != ref.LogMarginalLikelihood() {
				t.Fatalf("lml %v vs %v", ext.LogMarginalLikelihood(), ref.LogMarginalLikelihood())
			}
			rng := sample.NewRNG(17)
			for k := 0; k < 10; k++ {
				probe := []float64{rng.Float64(), rng.Float64(), rng.Float64(), rng.Float64()}
				m1, v1 := ext.Predict(probe)
				m2, v2 := ref.Predict(probe)
				if m1 != m2 || v1 != v2 {
					t.Fatalf("probe %d: (%v,%v) vs (%v,%v)", k, m1, v1, m2, v2)
				}
			}
		})
	}
}

// TestExtendChained: repeated one-point extensions (the engine's
// steady-state pattern) stay equal to a single full refit.
func TestExtendChained(t *testing.T) {
	xAll, yAll := randomTraining(26, 3, 23)
	cfg := DefaultConfig()
	cfg.Restarts = 1
	cfg.Seed = 23
	g, err := Fit(xAll[:20], yAll[:20], cfg)
	if err != nil {
		t.Fatal(err)
	}
	for n := 21; n <= 26; n++ {
		g, err = g.Extend(xAll[:n], yAll[:n])
		if err != nil {
			t.Fatal(err)
		}
	}
	refCfg := cfg
	refCfg.FitHyper = false
	refCfg.Init = g.Params()
	ref, err := Fit(xAll, yAll, refCfg)
	if err != nil {
		t.Fatal(err)
	}
	if g.LogMarginalLikelihood() != ref.LogMarginalLikelihood() {
		t.Fatalf("chained lml %v vs %v", g.LogMarginalLikelihood(), ref.LogMarginalLikelihood())
	}
	mu1, v1 := g.Predict([]float64{0.4, 0.5, 0.6})
	mu2, v2 := ref.Predict([]float64{0.4, 0.5, 0.6})
	if mu1 != mu2 || v1 != v2 {
		t.Fatalf("chained posterior (%v,%v) vs (%v,%v)", mu1, v1, mu2, v2)
	}
}

// TestExtendSurvivesDuplicatePoint: appending an exact duplicate of a
// training point with near-zero fitted noise forces a non-positive
// pivot; Extend must fall back to a jittered full refit instead of
// failing.
func TestExtendSurvivesDuplicatePoint(t *testing.T) {
	x, y := randomTraining(10, 2, 31)
	cfg := Config{Init: Params{LogVariance: 0, LogLength: math.Log(0.5), LogNoise: math.Log(1e-14)}}
	g, err := Fit(x, y, cfg)
	if err != nil {
		t.Fatal(err)
	}
	xAll := append(append([][]float64(nil), x...), append([]float64(nil), x[0]...))
	yAll := append(append([]float64(nil), y...), y[0])
	ext, err := g.Extend(xAll, yAll)
	if err != nil {
		t.Fatalf("Extend with duplicate point: %v", err)
	}
	mu, v := ext.Predict(x[0])
	if math.IsNaN(mu) || math.IsNaN(v) {
		t.Fatal("NaN posterior after duplicate-point extension")
	}
}

// TestExtendRejectsBadInput covers the defensive paths.
func TestExtendRejectsBadInput(t *testing.T) {
	x, y := randomTraining(8, 2, 37)
	cfg := DefaultConfig()
	cfg.Restarts = 1
	g, err := Fit(x, y, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := g.Extend(x, y); err == nil {
		t.Error("Extend with no new points accepted")
	}
	if _, err := g.Extend(x[:5], y[:5]); err == nil {
		t.Error("Extend with fewer points accepted")
	}
	xs := append(append([][]float64(nil), x...), []float64{0.5, 0.5})
	if _, err := g.Extend(xs, y); err == nil {
		t.Error("Extend with mismatched targets accepted")
	}
	bad := append([][]float64(nil), x...)
	bad[2] = []float64{9, 9} // mutate the prefix
	bad = append(bad, []float64{0.5, 0.5})
	if _, err := g.Extend(bad, append(append([]float64(nil), y...), 1)); err == nil {
		t.Error("Extend with mutated prefix accepted")
	}
	ragged := append(append([][]float64(nil), x...), []float64{0.5})
	if _, err := g.Extend(ragged, append(append([]float64(nil), y...), 1)); err == nil {
		t.Error("Extend with ragged new row accepted")
	}
}

// TestExtendDoesNotMutateReceiver: the original GP keeps serving its
// old posterior after an extension (forked engines depend on it).
func TestExtendDoesNotMutateReceiver(t *testing.T) {
	x, y := randomTraining(12, 2, 41)
	cfg := DefaultConfig()
	cfg.Restarts = 1
	g, err := Fit(x, y, cfg)
	if err != nil {
		t.Fatal(err)
	}
	probe := []float64{0.3, 0.7}
	muBefore, vBefore := g.Predict(probe)
	cholBefore := append([]float64(nil), g.chol.Data...)

	xAll := append(append([][]float64(nil), x...), []float64{0.9, 0.1})
	yAll := append(append([]float64(nil), y...), 2.5)
	if _, err := g.Extend(xAll, yAll); err != nil {
		t.Fatal(err)
	}
	muAfter, vAfter := g.Predict(probe)
	if muAfter != muBefore || vAfter != vBefore {
		t.Fatal("Extend changed the receiver's posterior")
	}
	for i := range cholBefore {
		if g.chol.Data[i] != cholBefore[i] {
			t.Fatal("Extend mutated the receiver's factor")
		}
	}
	if g.N() != 12 {
		t.Fatal("Extend grew the receiver")
	}
}

// TestFitValuesUnchangedByFastPath pins the fast path to the
// naive implementation end-to-end: a full Fit (hyperparameter search
// included) must produce exactly the LML the naive likelihood assigns
// to its fitted parameters — i.e. the rewrite changed the speed, not
// the model.
func TestFitValuesUnchangedByFastPath(t *testing.T) {
	x, y := randomTraining(20, 3, 53)
	cfg := DefaultConfig()
	cfg.Restarts = 2
	cfg.Seed = 53
	g, err := Fit(x, y, cfg)
	if err != nil {
		t.Fatal(err)
	}
	want, err := naiveLogMarginal(g.Params(), x, g.yNorm)
	if err != nil {
		t.Fatal(err)
	}
	if g.LogMarginalLikelihood() != want {
		t.Fatalf("fitted LML %v, naive reference %v", g.LogMarginalLikelihood(), want)
	}
}
