// Package gp implements Gaussian-Process regression, the surrogate
// model of ROBOTune's Bayesian-Optimization engine (§3.4). Following
// §4, the covariance is the sum of a Matérn 5/2 kernel and a white
// noise kernel (observation noise assumed i.i.d. Gaussian), and
// hyperparameters are chosen by maximizing the log marginal
// likelihood, as scikit-learn does: multistart L-BFGS-B on the
// likelihood and its analytic gradient. Targets are normalized
// internally, so hyperparameter bounds are scale-free.
//
// The fit is the BO engine's per-iteration bottleneck, so the package
// keeps a fast path through the likelihood search: pairwise distances
// are precomputed once per Fit (they depend only on the data, not the
// hyperparameters), length-scale and variance exponentials are hoisted
// out of the per-pair kernel loops, the gradient reuses the
// likelihood's kernel entries, and the kernel/Cholesky/inverse
// buffers are pooled across the couple of hundred value-and-gradient
// evaluations a multistart performs. Posterior updates
// that keep the hyperparameters fixed can extend a cached Cholesky
// factor in O(n²) via Extend instead of refitting in O(n³).
// PredictBatchInto forward-solves four points per pass over the factor
// (a candidate pool), bit-identical to PredictInto. PredictGradInto
// adds the gradients of the posterior mean and variance, which the
// acquisition search needs, for one back-solve more than a prediction.
package gp

import (
	"fmt"
	"math"
	"sort"
	"sync"

	"repro/internal/linalg"
	"repro/internal/optimize"
	"repro/internal/par"
	"repro/internal/sample"
	"repro/internal/stats"
)

// Params are kernel hyperparameters in log space.
type Params struct {
	LogVariance float64 // signal variance σ_f²
	LogLength   float64 // length scale ℓ
	LogNoise    float64 // white-noise variance σ_n²
}

// resolved caches the exponentials of one Params value so the per-pair
// kernel loops never call math.Exp.
type resolved struct {
	variance float64 // exp(LogVariance)
	noise    float64 // exp(LogNoise)
	length   float64 // exp(LogLength)
}

func resolve(p Params) resolved {
	return resolved{variance: math.Exp(p.LogVariance), noise: math.Exp(p.LogNoise), length: math.Exp(p.LogLength)}
}

// Config controls GP fitting.
type Config struct {
	// FitHyper enables marginal-likelihood hyperparameter search
	// (multistart L-BFGS-B on the likelihood's analytic gradient); when
	// false, Init is used as-is.
	FitHyper bool
	// Init seeds the hyperparameter search.
	Init Params
	// Restarts is the number of random restarts for the search
	// (default 4).
	Restarts int
	// Seed drives the restart sampling.
	Seed uint64
	// Workers runs the hyperparameter multistart on this many
	// goroutines (<= 0 selects GOMAXPROCS); results are bit-identical
	// for any worker count.
	Workers int
	// SparseThreshold, when > 0, switches Fit to a local-subset sparse
	// approximation once the training set exceeds it: the exact GP is
	// built on an active set of SparseThreshold observations, those
	// nearest the incumbent (lowest target, distance in the normalized
	// config space) plus a uniform reservoir of the rest, bounding fit
	// and predict cost by the threshold. 0 (the default) keeps the
	// exact GP at every size, bit-identical to the pre-sparse
	// implementation.
	SparseThreshold int
}

// DefaultConfig returns the fitting configuration used by the BO
// engine.
func DefaultConfig() Config {
	return Config{
		FitHyper: true,
		Init:     Params{LogVariance: 0, LogLength: math.Log(0.5), LogNoise: math.Log(1e-3)},
		Restarts: 4,
	}
}

// GP is a fitted Gaussian-Process posterior. A fitted GP is immutable:
// Predict, PredictInto and Extend never modify the receiver, so a
// value may be shared across goroutines and forked engines.
type GP struct {
	cfg    Config
	params Params
	rk     resolved
	x      [][]float64
	yNorm  []float64
	yMean  float64
	yStd   float64
	chol   *linalg.Matrix
	jitter float64
	alpha  []float64
	lml    float64
	// jitterTries counts how many escalating-jitter retries the final
	// factorization needed (0 = clean Cholesky). The BO engine
	// accumulates it across fits as a numerical-health signal.
	jitterTries int
	// Sparse-path bookkeeping: when activeIdx is non-nil the GP was
	// fitted on the active subset x = fullX[activeIdx], and fullX/fullY
	// retain the complete training set so Extend can keep appending and
	// the next Fit can re-select.
	fullX     [][]float64
	fullY     []float64
	activeIdx []int
}

// sparseSubset picks the active set for the local-subset sparse path:
// the ~¾k observations nearest the incumbent (lowest target; squared
// Euclidean distance in input space, index as the deterministic
// tie-break) plus a uniform reservoir of ~¼k drawn from the remainder
// so the model keeps global coverage. Indices are returned ascending,
// preserving chronological order for Extend's append semantics.
func sparseSubset(x [][]float64, y []float64, k int, seed uint64) []int {
	n := len(x)
	if k >= n {
		idx := make([]int, n)
		for i := range idx {
			idx[i] = i
		}
		return idx
	}
	inc := 0
	for i := 1; i < n; i++ {
		if y[i] < y[inc] {
			inc = i
		}
	}
	d2 := make([]float64, n)
	xi := x[inc]
	for i, r := range x {
		var s float64
		for j := range r {
			dv := r[j] - xi[j]
			s += dv * dv
		}
		d2[i] = s
	}
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		if d2[order[a]] != d2[order[b]] {
			return d2[order[a]] < d2[order[b]]
		}
		return order[a] < order[b]
	})
	kRes := k / 4
	kNear := k - kRes
	chosen := make(map[int]bool, k)
	for _, i := range order[:kNear] {
		chosen[i] = true
	}
	// Uniform reservoir over the non-near remainder (Algorithm R),
	// seeded deterministically so the same data always selects the
	// same subset.
	rng := sample.NewRNG(seed ^ 0x5ab5e7)
	reservoir := make([]int, 0, kRes)
	seen := 0
	for _, i := range order[kNear:] {
		seen++
		if len(reservoir) < kRes {
			reservoir = append(reservoir, i)
		} else if j := rng.IntN(seen); j < kRes {
			reservoir[j] = i
		}
	}
	for _, i := range reservoir {
		chosen[i] = true
	}
	idx := make([]int, 0, len(chosen))
	for i := range chosen {
		idx = append(idx, i)
	}
	sort.Ints(idx)
	return idx
}

// Fit trains a GP on x (rows = points) and y. It returns an error if
// the kernel matrix cannot be factorized even with jitter. When
// cfg.SparseThreshold > 0 and the training set is larger, the GP is
// fitted exactly on the local subset chosen by sparseSubset; below
// the threshold (or with it unset) the path is the exact GP,
// bit-identical to the pre-sparse implementation.
func Fit(x [][]float64, y []float64, cfg Config) (*GP, error) {
	n := len(x)
	if n == 0 || n != len(y) {
		return nil, fmt.Errorf("gp: bad training shape: %d points, %d targets", n, len(y))
	}
	d := len(x[0])
	for i, r := range x {
		if len(r) != d {
			return nil, fmt.Errorf("gp: ragged row %d", i)
		}
	}
	for i, v := range y {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("gp: non-finite target y[%d] = %v", i, v)
		}
	}
	if cfg.SparseThreshold > 0 && n > cfg.SparseThreshold {
		idx := sparseSubset(x, y, cfg.SparseThreshold, cfg.Seed)
		sx := make([][]float64, len(idx))
		sy := make([]float64, len(idx))
		for i, j := range idx {
			sx[i] = x[j]
			sy[i] = y[j]
		}
		sub := cfg
		sub.SparseThreshold = 0
		g, err := Fit(sx, sy, sub)
		if err != nil {
			return nil, err
		}
		g.cfg = cfg
		g.fullX = x
		g.fullY = y
		g.activeIdx = idx
		return g, nil
	}
	if cfg.Restarts <= 0 {
		cfg.Restarts = 4
	}

	g := &GP{cfg: cfg, x: x}
	g.yMean = stats.Mean(y)
	g.yStd = stats.StdDev(y)
	if g.yStd < 1e-12 {
		g.yStd = 1
	}
	g.yNorm = make([]float64, n)
	for i, v := range y {
		g.yNorm[i] = (v - g.yMean) / g.yStd
	}

	// The distance cache depends only on the data, so one build serves
	// every likelihood evaluation of the hyperparameter search and the
	// final factorization.
	cache := newDistCache(x)

	if cfg.FitHyper {
		g.params = g.optimizeHyper(cfg, cache)
	} else {
		g.params = cfg.Init
	}
	if err := g.factorize(g.params, cache); err != nil {
		return nil, err
	}
	return g, nil
}

// hyperBounds is the log-space search box for (variance, length,
// noise) on normalized targets in the unit cube.
var hyperBounds = optimize.Bounds{
	Lo: []float64{math.Log(1e-2), math.Log(5e-2), math.Log(1e-7)},
	Hi: []float64{math.Log(1e2), math.Log(1e1), math.Log(1e0)},
}

// hyperIters caps each L-BFGS-B run of the likelihood search.
const hyperIters = 100

// lmlScratch is one worker's reusable buffers for likelihood
// evaluations: kernel matrix, Cholesky factor and solve vector, and
// for the gradient the upper triangle of the inverse kernel matrix.
type lmlScratch struct {
	k    *linalg.Matrix
	chol *linalg.Matrix
	v    []float64
	kinv *linalg.Matrix
}

func (g *GP) optimizeHyper(cfg Config, cache *distCache) Params {
	// The multistart evaluates the objective concurrently, so each
	// in-flight evaluation borrows a scratch set from a pool instead
	// of allocating kernel and factor matrices afresh (the naive path
	// allocates ~4 n×n matrices per evaluation, hundreds of times per
	// fit).
	pool := sync.Pool{New: func() any { return &lmlScratch{} }}
	obj := func(v, grad []float64) float64 {
		s := pool.Get().(*lmlScratch)
		lml, ok := g.logMarginalGrad(Params{LogVariance: v[0], LogLength: v[1], LogNoise: v[2]}, cache, s, grad)
		pool.Put(s)
		if !ok || math.IsNaN(lml) || math.IsNaN(grad[0]+grad[1]+grad[2]) {
			clear(grad)
			return 1e10
		}
		for i := range grad {
			grad[i] = -grad[i]
		}
		return -lml
	}
	seed := []float64{cfg.Init.LogVariance, cfg.Init.LogLength, cfg.Init.LogNoise}
	rng := sample.NewRNG(cfg.Seed ^ 0x5ca1ab1e)
	res := optimize.Multistart(hyperBounds, cfg.Restarts, [][]float64{seed}, rng, cfg.Workers,
		func(x0 []float64) optimize.Result {
			return optimize.LBFGSB(obj, x0, hyperBounds, hyperIters, optimize.Converge)
		})
	return Params{LogVariance: res.X[0], LogLength: res.X[1], LogNoise: res.X[2]}
}

// kernel evaluates the covariance between a and b (without the
// white-noise term, which only applies on the diagonal).
func (rk *resolved) kernel(a, b []float64) float64 {
	return matern(dist(a, b)/rk.length, rk.variance)
}

// dist is the Euclidean distance between a and b, accumulated in
// dimension order.
func dist(a, b []float64) float64 {
	var sq float64
	for i := range a {
		d := a[i] - b[i]
		sq += d * d
	}
	return math.Sqrt(sq)
}

// matern is the Matérn 5/2 kernel at length-scaled distance r. With r
// first, resolved.kernel takes its square root in place, not into a
// register that still holds the previous call's exponential.
func matern(r, variance float64) float64 {
	s5 := math.Sqrt(5) * r
	return variance * (1 + s5 + 5*r*r/3) * math.Exp(-s5)
}

// maternGrad is matern, bit for bit, that also returns
// c = (dk/dr)/r from the same exponential, so that
// ∂k(t, x)/∂x_j = c·(x_j − t_j)/ℓ². c stays finite at r = 0: −(5/3)·σ_f².
func maternGrad(r, variance float64) (k, c float64) {
	s5 := math.Sqrt(5) * r
	e := math.Exp(-s5)
	return variance * (1 + s5 + 5*r*r/3) * e, -5.0 / 3 * variance * (1 + s5) * e
}

// distCache precomputes the pairwise distances of the training inputs,
// packed over the upper triangle (i <= j, row-major cursor order).
type distCache struct {
	n    int
	dist []float64 // [n(n+1)/2] ‖x_i − x_j‖
}

func newDistCache(x [][]float64) *distCache {
	n := len(x)
	c := &distCache{n: n, dist: make([]float64, n*(n+1)/2)}
	t := 0
	for i, xi := range x {
		for _, xj := range x[i:] {
			c.dist[t] = dist(xi, xj)
			t++
		}
	}
	return c
}

// kernelMatrixInto fills k with the covariance matrix (plus the
// white-noise diagonal) from the cached distances: no subtraction, no
// square root and no math.Exp of a hyperparameter in the O(n²) pair
// loop.
func (g *GP) kernelMatrixInto(rk *resolved, c *distCache, k *linalg.Matrix) {
	n := c.n
	t := 0
	for i := 0; i < n; i++ {
		for j := i; j < n; j++ {
			v := matern(c.dist[t]/rk.length, rk.variance)
			if i == j {
				v += rk.noise
			}
			k.Set(i, j, v)
			t++
		}
	}
	linalg.SymmetricFromUpper(k)
}

// lmlFrom assembles the log marginal likelihood from an existing
// factorization and weight vector: -½ yᵀα - ½ log|K| - (n/2) log 2π.
func lmlFrom(yNorm, alpha []float64, chol *linalg.Matrix) float64 {
	n := float64(len(yNorm))
	return -0.5*linalg.Dot(yNorm, alpha) - 0.5*linalg.LogDetFromChol(chol) - 0.5*n*math.Log(2*math.Pi)
}

// logMarginalCached computes the log marginal likelihood using the
// distance cache and the scratch buffers — zero heap allocations once
// the scratch is warm. The result is bit-identical to the allocating
// reference (logMarginal, in the tests).
func (g *GP) logMarginalCached(p Params, c *distCache, s *lmlScratch) (float64, bool) {
	n := len(g.x)
	if s.k == nil || s.k.Rows != n {
		s.k = linalg.NewMatrix(n, n)
		s.chol = nil
	}
	rk := resolve(p)
	g.kernelMatrixInto(&rk, c, s.k)
	chol, _, err := linalg.CholeskyInto(s.chol, s.k, jitterStart, jitterMaxTries)
	if err != nil {
		return math.Inf(-1), false
	}
	s.chol = chol
	if len(s.v) != n {
		s.v = make([]float64, n)
	}
	alpha := linalg.CholSolveInto(chol, g.yNorm, s.v)
	return lmlFrom(g.yNorm, alpha, chol), true
}

// logMarginalGrad is logMarginalCached that also writes the gradient
// of the LML in (log σ_f², log ℓ, log σ_n²) into grad (3 entries):
// ½·tr((ααᵀ − K⁻¹)·∂K/∂θ), with ∂K/∂log σ_f² = K_f (the kernel part
// of K), ∂K/∂log σ_n² = σ_n²I and, for Matérn 5/2 at s = √5·r/ℓ,
// ∂K/∂log ℓ = K_f ⊙ s²(1+s)/(3+3s+s²). The kernel entries come from
// the likelihood's own matrix, so the gradient's pair loop takes no
// math.Exp; its cost is K⁻¹ = L⁻ᵀL⁻¹ (linalg.CholInverseInto). Zero
// heap allocations once the scratch is warm.
func (g *GP) logMarginalGrad(p Params, c *distCache, s *lmlScratch, grad []float64) (float64, bool) {
	lml, ok := g.logMarginalCached(p, c, s)
	if !ok {
		return lml, false
	}
	n := len(g.x)
	if s.kinv == nil || s.kinv.Rows != n {
		s.kinv = linalg.NewMatrix(n, n)
	}
	linalg.CholInverseInto(s.chol, s.kinv)
	rk := resolve(p)
	alpha := s.v
	scale := math.Sqrt(5) / rk.length
	var gVar, gLen, gNoise float64
	t := 0
	for i := 0; i < n; i++ {
		ai, krow, irow := alpha[i], s.k.Row(i), s.kinv.Row(i)
		// The diagonal: K_f = σ_f², and r = 0 zeroes ∂K/∂log ℓ.
		w := ai*ai - irow[i]
		gVar += w * rk.variance
		gNoise += w
		t++
		for j := i + 1; j < n; j++ {
			// Off-diagonal pairs count twice: W and ∂K are symmetric.
			w := 2 * (ai*alpha[j] - irow[j])
			kf := krow[j] * w
			sc := c.dist[t] * scale
			gVar += kf
			gLen += kf * sc * sc * (1 + sc) / (3 + 3*sc + sc*sc)
			t++
		}
	}
	grad[0], grad[1], grad[2] = 0.5*gVar, 0.5*gLen, 0.5*rk.noise*gNoise
	return lml, true
}

// jitterStart and jitterMaxTries define the escalating-jitter ladder
// used when a near-singular kernel matrix defeats the clean Cholesky:
// retries add jitterStart·10^k to the diagonal (1e-10 up through 1e-3,
// past the 1e-4 floor that in practice rescues duplicate-point
// matrices) before the fit finally reports an error.
const (
	jitterStart    = 1e-10
	jitterMaxTries = 8
)

// jitterTriesFor recovers how many ladder steps produced the jitter
// Cholesky settled on (the ladder is deterministic: 0, 1e-10, 1e-9…).
func jitterTriesFor(jitter float64) int {
	if jitter <= 0 {
		return 0
	}
	return int(math.Round(math.Log10(jitter/jitterStart))) + 1
}

// factorize caches the Cholesky factor, weight vector, resolved
// kernel constants and LML for p. The LML is assembled directly from
// the factorization just computed — the naive path used to factorize
// a second time just to report it.
func (g *GP) factorize(p Params, c *distCache) error {
	n := len(g.x)
	rk := resolve(p)
	k := linalg.NewMatrix(n, n)
	g.kernelMatrixInto(&rk, c, k)
	// The final factorization is the one place worth spreading the
	// blocked Cholesky's tiles over workers: the likelihood search
	// already parallelizes across restarts, but this factorization
	// runs alone. Results are identical for any worker count.
	l, jitter, err := linalg.CholeskyWorkersInto(nil, k, jitterStart, jitterMaxTries, par.Workers(g.cfg.Workers))
	if err != nil {
		return fmt.Errorf("gp: kernel matrix not PD: %w", err)
	}
	g.rk = rk
	g.chol = l
	g.jitter = jitter
	g.jitterTries = jitterTriesFor(jitter)
	g.alpha = linalg.CholSolveInto(l, g.yNorm, nil)
	g.lml = lmlFrom(g.yNorm, g.alpha, l)
	return nil
}

// Extend returns a new GP fitted on (x, y) — which must extend the
// receiver's training inputs: same leading rows, one or more appended
// points — reusing the receiver's hyperparameters and extending its
// cached Cholesky factor by one O(n²) CholAppend per new point
// instead of refactorizing in O(n³). Target normalization and the
// weight vector are recomputed over the full set, so the posterior is
// exactly the one a full refit at the same hyperparameters and jitter
// would produce. The receiver is not modified. If a new pivot is not
// positive (near-duplicate points), Extend transparently falls back
// to a full refit with jitter escalation.
func (g *GP) Extend(x [][]float64, y []float64) (*GP, error) {
	prev := g.x
	if g.activeIdx != nil {
		prev = g.fullX
	}
	n0 := len(prev)
	n := len(x)
	if n <= n0 {
		return nil, fmt.Errorf("gp: Extend needs more than the %d existing points, got %d", n0, n)
	}
	if n != len(y) {
		return nil, fmt.Errorf("gp: bad training shape: %d points, %d targets", n, len(y))
	}
	d := g.Dim()
	for i, r := range x {
		if len(r) != d {
			return nil, fmt.Errorf("gp: ragged row %d", i)
		}
	}
	for i := 0; i < n0; i++ {
		for j, v := range prev[i] {
			if x[i][j] != v {
				return nil, fmt.Errorf("gp: Extend prefix mismatch at row %d", i)
			}
		}
	}

	// The active set is the receiver's training rows plus every
	// appended point (re-selection of the subset happens at the next
	// full Fit, not here). On the exact path the active set is simply
	// the whole input and this gathers nothing.
	ax, ay := x, y
	if g.activeIdx != nil {
		ax = make([][]float64, 0, len(g.activeIdx)+n-n0)
		ay = make([]float64, 0, len(g.activeIdx)+n-n0)
		for _, j := range g.activeIdx {
			ax = append(ax, x[j])
			ay = append(ay, y[j])
		}
		ax = append(ax, x[n0:]...)
		ay = append(ay, y[n0:]...)
	}

	ng := &GP{cfg: g.cfg, params: g.params, rk: g.rk, x: ax, jitter: g.jitter}
	ng.yMean = stats.Mean(ay)
	ng.yStd = stats.StdDev(ay)
	if ng.yStd < 1e-12 {
		ng.yStd = 1
	}
	ng.yNorm = make([]float64, len(ay))
	for i, v := range ay {
		ng.yNorm[i] = (v - ng.yMean) / ng.yStd
	}

	chol := g.chol
	for m := len(ax) - (n - n0); m < len(ax); m++ {
		kvec := make([]float64, m)
		for i := 0; i < m; i++ {
			kvec[i] = g.rk.kernel(ax[i], ax[m])
		}
		diag := g.rk.kernel(ax[m], ax[m]) + g.rk.noise
		next, err := linalg.CholAppend(chol, kvec, diag, g.jitter)
		if err != nil {
			// Near-singular extension: refit from scratch so the
			// jitter can escalate (and, on the sparse path, the
			// subset can be re-selected).
			cfg := g.cfg
			cfg.FitHyper = false
			cfg.Init = g.params
			return Fit(x, y, cfg)
		}
		chol = next
	}
	ng.chol = chol
	ng.alpha = linalg.CholSolveInto(chol, ng.yNorm, nil)
	ng.lml = lmlFrom(ng.yNorm, ng.alpha, chol)
	if g.activeIdx != nil {
		idx := make([]int, 0, len(g.activeIdx)+n-n0)
		idx = append(idx, g.activeIdx...)
		for i := n0; i < n; i++ {
			idx = append(idx, i)
		}
		ng.fullX = x
		ng.fullY = y
		ng.activeIdx = idx
	}
	return ng, nil
}

// PredictScratch holds the reusable buffers PredictInto and
// PredictBatchInto need: four kernel vectors and their forward solves.
// The zero value is ready to use; buffers grow on demand and may be
// reused across GPs of different sizes. A scratch must not be shared
// between concurrent calls.
type PredictScratch struct {
	ks, v [4][]float64
}

// grow sizes every buffer for a GP of n active training points.
func (s *PredictScratch) grow(n int) {
	for r := range s.ks {
		if cap(s.ks[r]) < n {
			s.ks[r], s.v[r] = make([]float64, n), make([]float64, n)
		}
		s.ks[r], s.v[r] = s.ks[r][:n], s.v[r][:n]
	}
}

// predictPool backs the non-Into Predict path so casual callers (hedge
// settle, Explain, external users) get the zero-allocation fast path
// without owning a scratch.
var predictPool = sync.Pool{New: func() any { return new(PredictScratch) }}

// Predict returns the posterior mean and variance of the latent
// function at x, in the original target scale.
func (g *GP) Predict(x []float64) (mu, variance float64) {
	s := predictPool.Get().(*PredictScratch)
	mu, variance = g.PredictInto(s, x)
	predictPool.Put(s)
	return mu, variance
}

// PredictInto is Predict using caller-owned scratch buffers: zero
// heap allocations once the scratch is warm. The acquisition
// multistart calls the posterior thousands of times per Suggest, so
// it keeps a pool of scratches instead of allocating two vectors per
// call.
func (g *GP) PredictInto(s *PredictScratch, x []float64) (mu, variance float64) {
	s.grow(len(g.x))
	ks := g.kernelVecInto(x, s.ks[0])
	return g.posterior(x, ks, linalg.SolveLowerInto(g.chol, ks, s.v[0]))
}

// PredictBatchInto is PredictInto at every xs[p], into mu[p] and
// variance[p] (both of length len(xs)), bit for bit: the kernel
// vectors and closing arithmetic are PredictInto's, and the forward
// solves run four points per pass over the factor
// (linalg.SolveLowerMultiInto), which regroups no sum. Zero heap
// allocations once the scratch is warm.
func (g *GP) PredictBatchInto(s *PredictScratch, xs [][]float64, mu, variance []float64) {
	if len(mu) != len(xs) || len(variance) != len(xs) {
		panic("gp: PredictBatchInto output length mismatch")
	}
	s.grow(len(g.x))
	for p := 0; p < len(xs); p += len(s.ks) {
		group := min(len(xs)-p, len(s.ks))
		for r := 0; r < group; r++ {
			g.kernelVecInto(xs[p+r], s.ks[r])
		}
		linalg.SolveLowerMultiInto(g.chol, s.ks[:group], s.v[:group])
		for r := 0; r < group; r++ {
			mu[p+r], variance[p+r] = g.posterior(xs[p+r], s.ks[r], s.v[r])
		}
	}
}

// PredictGradInto is PredictInto at x, bit for bit, that also writes
// the gradients of the mean and the variance in x into dmu and dvar
// (each of length Dim()). The kernel vector's exponentials give its
// Jacobian J as well, so on top of the prediction the gradients cost
// one back-solve and O(n·d) sums: ∇μ = yStd·Jᵀα and
// ∇σ² = −2·yStd²·Jᵀ(L⁻ᵀv), with v = L⁻¹k the prediction's forward
// solve. Where the variance clamps at 0, ∇σ² is 0. Zero heap
// allocations once the scratch is warm.
func (g *GP) PredictGradInto(s *PredictScratch, x, dmu, dvar []float64) (mu, variance float64) {
	if len(dmu) != len(x) || len(dvar) != len(x) {
		panic("gp: PredictGradInto gradient length mismatch")
	}
	s.grow(len(g.x))
	ks, c, v, kinv := s.ks[0], s.ks[1], s.v[0], s.v[1]
	// The distances take a pass of their own: fused into the kernel
	// pass, the square root waits on the previous iteration's
	// exponential for its destination register.
	for i, t := range g.x {
		c[i] = dist(t, x) / g.rk.length
	}
	for i, r := range c {
		ks[i], c[i] = maternGrad(r, g.rk.variance)
	}
	linalg.SolveLowerInto(g.chol, ks, v)
	mu, variance = g.posterior(x, ks, v)
	// The back-solve is bound by no bit-for-bit contract, so it takes
	// the row-contiguous form.
	linalg.SolveUpperTRowsInto(g.chol, v, kinv)
	clear(dmu)
	clear(dvar)
	for i, t := range g.x {
		a, b := g.alpha[i]*c[i], kinv[i]*c[i]
		for j, tj := range t {
			dx := x[j] - tj
			dmu[j] += a * dx
			dvar[j] += b * dx
		}
	}
	muScale, varScale := g.yStd, -2*g.yStd*g.yStd
	if variance == 0 {
		varScale = 0
	}
	w := 1 / (g.rk.length * g.rk.length)
	for j := range dmu {
		dmu[j] *= muScale * w
		dvar[j] *= varScale * w
	}
	return mu, variance
}

// kernelVecInto fills ks with the covariances between the training
// points and x, and returns it.
func (g *GP) kernelVecInto(x, ks []float64) []float64 {
	for i := range ks {
		ks[i] = g.rk.kernel(g.x[i], x)
	}
	return ks
}

// posterior closes a prediction at x from its kernel vector ks and the
// forward solve v = L⁻¹ks, in the original target scale.
func (g *GP) posterior(x, ks, v []float64) (mu, variance float64) {
	muN := linalg.Dot(ks, g.alpha)
	varN := g.rk.kernel(x, x) - linalg.Dot(v, v)
	if varN < 0 {
		varN = 0
	}
	return muN*g.yStd + g.yMean, varN * g.yStd * g.yStd
}

// Params returns the fitted hyperparameters (log space).
func (g *GP) Params() Params { return g.params }

// JitterRetries returns how many escalating-jitter retries the fitted
// factorization needed (0 when the kernel matrix was cleanly positive
// definite). A GP produced by Extend reports 0 unless it fell back to
// a full refit.
func (g *GP) JitterRetries() int { return g.jitterTries }

// LogMarginalLikelihood returns the fitted model's LML (normalized
// target scale).
func (g *GP) LogMarginalLikelihood() float64 { return g.lml }

// N returns the number of training points the GP has seen (the full
// set, even when the sparse path fitted only an active subset).
func (g *GP) N() int {
	if g.activeIdx != nil {
		return len(g.fullX)
	}
	return len(g.x)
}

// Sparse reports whether the GP was fitted on a local active subset
// rather than the full training set.
func (g *GP) Sparse() bool { return g.activeIdx != nil }

// ActiveSize returns the number of training points actually inside
// the fitted model — the active-subset size on the sparse path, N on
// the exact path. Predict cost scales with this, not with N.
func (g *GP) ActiveSize() int { return len(g.x) }

// Dim returns the input dimensionality.
func (g *GP) Dim() int {
	if len(g.x) == 0 {
		return 0
	}
	return len(g.x[0])
}
