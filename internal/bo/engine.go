package bo

import (
	"fmt"
	"math"
	"math/rand/v2"
	"slices"
	"sync"
	"time"

	"repro/internal/gp"
	"repro/internal/optimize"
	"repro/internal/sample"
)

// gradScratch is one posterior evaluation's buffers: the prediction
// scratch and the variance gradient. The acquisition multistart
// evaluates from several goroutines; each call borrows one from
// gradScratches, which keeps the calls allocation-free without tying
// the engine to the worker count.
type gradScratch struct {
	ps   gp.PredictScratch
	dvar []float64
}

var gradScratches = sync.Pool{New: func() any { return new(gradScratch) }}

// acquisitionIters caps each L-BFGS-B run of the acquisition search.
const acquisitionIters = 100

// Config controls the BO engine. The zero value is the engine
// ROBOTune runs: New fills every zero field with its default, so a
// config that sets some fields keeps the defaults of the others.
type Config struct {
	// Portfolio lists the acquisition functions in the Hedge
	// portfolio. Empty selects DefaultPortfolio. A single entry
	// disables hedging (used by the hedge-vs-single ablation).
	Portfolio []Acquisition
	// Eta is the Hedge learning rate for the softmax over gains
	// (default 1).
	Eta float64
	// GPRestarts is the number of random restarts of each surrogate
	// hyperparameter search (default 4). The engine builds the rest of
	// the GP's configuration itself: it searches the hyperparameters on
	// its refit cadence, from gp's default start, and reuses them in
	// between.
	GPRestarts int
	// CandidatePool is the size of the LHS pool scored to seed the
	// local optimizer (default 256).
	CandidatePool int
	// Starts is the number of L-BFGS-B starts per acquisition
	// (default 3, plus the top pool candidates).
	Starts int
	// Seed makes the engine deterministic.
	Seed uint64
	// Workers runs the acquisition multistart (and the GP
	// hyperparameter refit) on this many goroutines (<= 0 selects
	// GOMAXPROCS). Suggestions are bit-identical for any worker count.
	Workers int
	// DisableIncremental forces a full surrogate refit on every
	// Suggest instead of extending the cached Cholesky factor between
	// hyperparameter refits. Results are identical either way; this
	// exists for parity testing and ablation.
	DisableIncremental bool
	// SparseThreshold, when > 0, gates the GP's local-subset
	// approximation: past this many observations the surrogate is
	// fitted exactly on the observations nearest the incumbent plus a
	// uniform reservoir of the rest, bounding per-iteration cost by
	// the subset size. 0 (the default) uses the exact surrogate at
	// every size.
	SparseThreshold int
	// CostAware divides positive acquisition scores by the predicted
	// evaluation cost (a k-nearest-neighbor model over the costs fed
	// via ObserveCost), implementing EI-per-second: among equally
	// promising points, prefer the cheaper one. Without cost
	// observations the engine behaves exactly as with CostAware off.
	CostAware bool
	// RefitBudget, when > 0, replaces the fixed every-5-observations
	// hyperparameter-refit cadence with a cost-budgeted one: the
	// hyperparameters are refit only while cumulative refit time stays
	// at or below RefitBudget as a fraction of the engine's wall clock
	// (e.g. 0.2 = spend at most ~20% of elapsed time refitting);
	// otherwise the cached Cholesky factor is extended at the last
	// fitted hyperparameters. 0 keeps the fixed cadence, bit-identical
	// to the pre-budget engine. Budgeted cadence makes decisions from
	// the wall clock, so exact journal-replay bit-reproducibility is
	// traded for bounded surrogate overhead.
	RefitBudget float64
	// Now overrides the clock used for refit budgeting (tests inject a
	// fake clock). nil = time.Now.
	Now func() time.Time
}

// Engine runs Algorithm 1: it accumulates (x, y) observations in the
// unit hypercube, fits a GP, and proposes the next point via the
// GP-Hedge portfolio.
type Engine struct {
	dim int
	cfg Config
	rng *rand.Rand
	x   [][]float64
	y   []float64
	// cens flags observations told via TellCensored: failed or
	// guard-killed runs whose y is a floor, not a measurement.
	cens []bool
	g    *gp.GP
	// gN is the observation count e.g was fitted on; e.g is stale (and
	// eligible for incremental extension) when gN < len(x).
	gN   int
	gain []float64
	// Hyperparameter refits are expensive (multistart L-BFGS-B
	// over the marginal likelihood); the engine refits every
	// hyperRefitEvery observations and reuses the last fitted
	// hyperparameters in between.
	lastHyper   gp.Params
	hyperFitAtN int
	// nominees holds each acquisition's last proposal, pending its
	// Hedge reward once the GP is refit with the new observation.
	nominees [][]float64
	// chosen is the index of the portfolio member whose proposal was
	// returned by the last Suggest.
	chosen int
	// costX/costY hold the cost model's observations (unit-cube point,
	// evaluation cost in seconds), fed via ObserveCost and consulted by
	// Suggest when CostAware is set.
	costX [][]float64
	costY []float64
	// jitterRetries accumulates, across all surrogate fits this
	// session, how many escalating-jitter retries the Cholesky
	// factorizations needed. A non-zero value flags a numerically
	// delicate kernel matrix; Explain surfaces it.
	jitterRetries int
	// Refit-cadence bookkeeping: now is the (injectable) clock, start
	// anchors the engine's wall clock, refitSeconds accumulates time
	// spent in hyperparameter refits, and the counters record which
	// path each Surrogate call took.
	now             func() time.Time
	start           time.Time
	refitSeconds    float64
	hyperRefits     int
	posteriorRefits int
	extends         int
}

// New builds an engine over the unit hypercube of the given
// dimension, filling every zero field of cfg with its default.
func New(dim int, cfg Config) *Engine {
	if dim < 1 {
		panic("bo: dimension must be >= 1")
	}
	if len(cfg.Portfolio) == 0 {
		cfg.Portfolio = DefaultPortfolio()
	}
	if cfg.Eta <= 0 {
		cfg.Eta = 1.0
	}
	if cfg.CandidatePool <= 0 {
		cfg.CandidatePool = 256
	}
	if cfg.Starts <= 0 {
		cfg.Starts = 3
	}
	if cfg.GPRestarts <= 0 {
		cfg.GPRestarts = gp.DefaultConfig().Restarts
	}
	now := cfg.Now
	if now == nil {
		now = time.Now
	}
	return &Engine{
		dim:   dim,
		cfg:   cfg,
		rng:   sample.NewRNG(cfg.Seed ^ 0xb0b0b0b0),
		gain:  make([]float64, len(cfg.Portfolio)),
		now:   now,
		start: now(),
	}
}

// DefaultSparseThreshold is the SparseThreshold a caller that turns
// the sparse surrogate on without choosing a threshold gets
// (robotune -sparse, the wire's options.sparse).
const DefaultSparseThreshold = 512

// Tell adds an observation. x must be in the unit cube of the
// engine's dimension. Non-finite observations are rejected: a single
// NaN poisons every downstream Cholesky solve, so it is cheaper to
// refuse it here with a clear error than to diagnose a corrupted
// surrogate later.
func (e *Engine) Tell(x []float64, y float64) error {
	if len(x) != e.dim {
		panic(fmt.Sprintf("bo: Tell dim %d, engine dim %d", len(x), e.dim))
	}
	if math.IsNaN(y) || math.IsInf(y, 0) {
		return fmt.Errorf("bo: Tell rejects non-finite observation y = %v", y)
	}
	for j, v := range x {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("bo: Tell rejects non-finite coordinate x[%d] = %v", j, v)
		}
	}
	e.x = append(e.x, append([]float64(nil), x...))
	e.y = append(e.y, y)
	e.cens = append(e.cens, false)
	// The surrogate is now stale (gN < len(x)) but deliberately kept:
	// between hyperparameter refits Surrogate extends its cached
	// Cholesky factor in O(n²) instead of refitting in O(n³).
	return nil
}

// TellCensored adds a failed or guard-killed observation: y is only a
// lower bound on the true objective ("at least this bad"), not a
// measurement. The engine floors it at the worst value observed so
// far, so a failure can never look better to the surrogate than any
// real measurement, and flags the point as censored. The adjusted
// observation stays append-only, which keeps the incremental Cholesky
// extension between hyperparameter refits valid.
func (e *Engine) TellCensored(x []float64, y float64) error {
	if math.IsNaN(y) || math.IsInf(y, 0) {
		// Validate before flooring: a non-finite bound is garbage input,
		// not a legitimate "at least this bad" observation, and flooring
		// first would silently launder it into a finite value.
		return fmt.Errorf("bo: TellCensored rejects non-finite bound y = %v", y)
	}
	for _, v := range e.y {
		if v > y {
			y = v
		}
	}
	if err := e.Tell(x, y); err != nil {
		return err
	}
	e.cens[len(e.cens)-1] = true
	return nil
}

// Censored returns how many observations were told as censored.
func (e *Engine) Censored() int {
	n := 0
	for _, c := range e.cens {
		if c {
			n++
		}
	}
	return n
}

// ObserveCost feeds the cost model one (point, evaluation cost)
// pair. Costs are what the evaluation *spent* (full-fidelity-
// equivalent seconds for multi-fidelity tuners), independent of the
// objective value; non-finite or non-positive costs are ignored. The
// model only influences Suggest when Config.CostAware is set.
func (e *Engine) ObserveCost(x []float64, cost float64) {
	if len(x) != e.dim {
		panic(fmt.Sprintf("bo: ObserveCost dim %d, engine dim %d", len(x), e.dim))
	}
	if math.IsNaN(cost) || math.IsInf(cost, 0) || cost <= 0 {
		return
	}
	for _, v := range x {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return
		}
	}
	e.costX = append(e.costX, append([]float64(nil), x...))
	e.costY = append(e.costY, cost)
}

// CostObservations returns how many points the cost model holds.
func (e *Engine) CostObservations() int { return len(e.costX) }

// predictCost estimates the evaluation cost at x as the mean cost of
// the k=3 nearest observed points (squared Euclidean distance in the
// unit cube), floored well above zero so a cost division can never
// blow an acquisition score up to infinity. Read-only: safe to call
// concurrently from the acquisition multistart.
func (e *Engine) predictCost(x []float64) float64 {
	const k = 3
	var dist [k]float64
	var cost [k]float64
	n := 0
	for i, xi := range e.costX {
		d := 0.0
		for j, v := range xi {
			dv := v - x[j]
			d += dv * dv
		}
		if n < k {
			dist[n], cost[n] = d, e.costY[i]
			n++
			continue
		}
		// Replace the farthest of the current k if this one is nearer.
		far := 0
		for m := 1; m < k; m++ {
			if dist[m] > dist[far] {
				far = m
			}
		}
		if d < dist[far] {
			dist[far], cost[far] = d, e.costY[i]
		}
	}
	if n == 0 {
		return 1
	}
	sum := 0.0
	for m := 0; m < n; m++ {
		sum += cost[m]
	}
	mean := sum / float64(n)
	if mean < 1e-6 {
		mean = 1e-6
	}
	return mean
}

// N returns the number of observations.
func (e *Engine) N() int { return len(e.x) }

// Best returns the incumbent: the observed point with minimal y.
func (e *Engine) Best() (x []float64, y float64, ok bool) {
	if len(e.x) == 0 {
		return nil, 0, false
	}
	bi := 0
	for i := 1; i < len(e.y); i++ {
		if e.y[i] < e.y[bi] {
			bi = i
		}
	}
	return append([]float64(nil), e.x[bi]...), e.y[bi], true
}

// Gains returns a copy of the Hedge cumulative gains, one per
// portfolio member.
func (e *Engine) Gains() []float64 { return append([]float64(nil), e.gain...) }

// Probabilities returns the current Hedge selection distribution.
func (e *Engine) Probabilities() []float64 {
	p := make([]float64, len(e.gain))
	softmax(e.gain, e.cfg.Eta, p)
	return p
}

// Surrogate returns the current fitted GP, fitting it first if
// observations changed. It returns an error with fewer than two
// observations or on factorization failure.
func (e *Engine) Surrogate() (*gp.GP, error) {
	if len(e.x) < 2 {
		return nil, fmt.Errorf("bo: need >= 2 observations, have %d", len(e.x))
	}
	if e.g != nil && e.gN == len(e.x) {
		return e.g, nil
	}
	const hyperRefitEvery = 5
	cfg := e.gpConfig()
	reuseHyper := false
	if e.hyperFitAtN > 0 {
		if e.cfg.RefitBudget > 0 {
			// Budgeted cadence: refit only while observed refit time
			// stays at or below the target share of wall clock.
			elapsed := e.now().Sub(e.start).Seconds()
			reuseHyper = e.refitSeconds > e.cfg.RefitBudget*elapsed
		} else {
			// Fixed cadence (the pre-budget behavior): refit every
			// hyperRefitEvery observations.
			reuseHyper = len(e.x)-e.hyperFitAtN < hyperRefitEvery
		}
	}
	if reuseHyper {
		// Reuse the last fitted hyperparameters; only the posterior
		// (Cholesky + weights) changes for the new data.
		cfg.FitHyper = false
		cfg.Init = e.lastHyper
		if !e.cfg.DisableIncremental && e.g != nil && e.gN < len(e.x) &&
			e.g.Params() == e.lastHyper {
			// Extend the cached factor by the new observations in
			// O(n²) per point; the result is identical to a full
			// refit at the same hyperparameters. Extend falls back
			// to a full factorization internally if the appended
			// pivot goes non-positive, so an error here means the
			// data itself is degenerate — surface it via the full
			// fit below for a consistent error path.
			if g, err := e.g.Extend(e.x, e.y); err == nil {
				e.g = g
				e.gN = len(e.x)
				e.jitterRetries += g.JitterRetries()
				e.extends++
				return g, nil
			}
		}
	}
	t0 := e.now()
	g, err := gp.Fit(e.x, e.y, cfg)
	if err != nil {
		return nil, err
	}
	if cfg.FitHyper {
		// Only hyperparameter searches count against the refit
		// budget; posterior-only refits are part of the floor cost.
		e.refitSeconds += e.now().Sub(t0).Seconds()
		e.hyperRefits++
		e.lastHyper = g.Params()
		e.hyperFitAtN = len(e.x)
	} else {
		e.posteriorRefits++
	}
	e.g = g
	e.gN = len(e.x)
	e.jitterRetries += g.JitterRetries()
	return g, nil
}

// gpConfig is the surrogate fit the engine runs on a hyperparameter
// refit; Surrogate turns FitHyper off in between.
func (e *Engine) gpConfig() gp.Config {
	cfg := gp.DefaultConfig()
	cfg.Restarts = e.cfg.GPRestarts
	cfg.Seed = e.cfg.Seed
	cfg.Workers = e.cfg.Workers
	cfg.SparseThreshold = e.cfg.SparseThreshold
	return cfg
}

// RefitStats describes how the engine has been spending its surrogate
// budget: which of the three fit paths (hyperparameter refit,
// posterior-only refit, incremental extension) each Surrogate call
// took, the cumulative hyper-refit time against the wall clock, and
// whether the sparse path is active. Explain and the server's /metrics
// endpoint surface it.
type RefitStats struct {
	HyperRefits     int     `json:"hyper_refits"`
	PosteriorRefits int     `json:"posterior_refits"`
	Extends         int     `json:"extends"`
	RefitSeconds    float64 `json:"refit_seconds"`
	ElapsedSeconds  float64 `json:"elapsed_seconds"`
	RefitBudget     float64 `json:"refit_budget,omitempty"`
	Sparse          bool    `json:"sparse,omitempty"`
	ActiveSize      int     `json:"active_size,omitempty"`
	Observations    int     `json:"observations"`
}

// RefitStats returns the engine's surrogate-cadence accounting.
func (e *Engine) RefitStats() RefitStats {
	st := RefitStats{
		HyperRefits:     e.hyperRefits,
		PosteriorRefits: e.posteriorRefits,
		Extends:         e.extends,
		RefitSeconds:    e.refitSeconds,
		ElapsedSeconds:  e.now().Sub(e.start).Seconds(),
		RefitBudget:     e.cfg.RefitBudget,
		Observations:    len(e.x),
	}
	if e.g != nil {
		st.Sparse = e.g.Sparse()
		st.ActiveSize = e.g.ActiveSize()
	}
	return st
}

// JitterRetries reports the cumulative number of escalating-jitter
// Cholesky retries across every surrogate fit this engine performed.
// Zero means every kernel matrix factorized cleanly.
func (e *Engine) JitterRetries() int { return e.jitterRetries }

// Suggest proposes the next point to evaluate (Algorithm 1 lines
// 9-13): it refits the GP, settles pending Hedge rewards, lets every
// acquisition nominate its optimum, and picks one nominee with
// probability softmax(η·gains).
func (e *Engine) Suggest() ([]float64, error) {
	g, err := e.Surrogate()
	if err != nil {
		return nil, err
	}

	// Settle Hedge rewards for the previous round's nominees: the
	// reward of acquisition i is −μ(x_i) under the updated posterior
	// (Hoffman et al.), normalized to the GP's target scale.
	if e.nominees != nil {
		for i, xi := range e.nominees {
			mu, _ := g.Predict(xi)
			e.gain[i] += -e.normalize(mu)
		}
		e.nominees = nil
	}

	// Shared candidate pool: LHS + the incumbent's neighborhood.
	bestX, fBest, _ := e.Best()
	pool := sample.LHS(e.cfg.CandidatePool, e.dim, e.rng)
	for k := 0; k < 8; k++ {
		p := make([]float64, e.dim)
		for j := range p {
			p[j] = clamp01(bestX[j] + 0.05*e.rng.NormFloat64())
		}
		pool = append(pool, p)
	}

	// Every arm scores the same pool posterior and predicted cost, so
	// both are computed once, the posterior batched.
	costAware := e.cfg.CostAware && len(e.costX) > 0
	poolMu, poolVar, poolCost := make([]float64, len(pool)), make([]float64, len(pool)), make([]float64, len(pool))
	ws := gradScratches.Get().(*gradScratch)
	g.PredictBatchInto(&ws.ps, pool, poolMu, poolVar)
	gradScratches.Put(ws)
	if costAware {
		for p, x := range pool {
			poolCost[p] = e.predictCost(x)
		}
	}

	bounds := optimize.UnitBox(e.dim)
	nominees := make([][]float64, len(e.cfg.Portfolio))
	for i, acq := range e.cfg.Portfolio {
		obj := acqObjective{e: e, g: g, acq: acq, fBest: fBest, costAware: costAware}
		// Seed local search with the best pool candidates.
		type cand struct {
			x []float64
			f float64
		}
		best1, best2 := cand{f: math.Inf(1)}, cand{f: math.Inf(1)}
		for p, x := range pool {
			f, _, _ := obj.at(x, poolMu[p], math.Sqrt(poolVar[p]), poolCost[p])
			switch {
			case f < best1.f:
				best2 = best1
				best1 = cand{x: x, f: f}
			case f < best2.f:
				best2 = cand{x: x, f: f}
			}
		}
		seeds := [][]float64{best1.x}
		if best2.x != nil {
			seeds = append(seeds, best2.x)
		}
		res := optimize.Multistart(bounds, e.cfg.Starts, seeds, e.rng, e.cfg.Workers,
			func(x0 []float64) optimize.Result {
				return optimize.LBFGSB(obj.valueGrad, x0, bounds, acquisitionIters, optimize.Search)
			})
		nominees[i] = res.X
	}

	// Hedge: choose a nominee with probability softmax(η·g).
	probs := make([]float64, len(e.gain))
	softmax(e.gain, e.cfg.Eta, probs)
	r := e.rng.Float64()
	idx := 0
	acc := 0.0
	for i, p := range probs {
		acc += p
		if r <= acc {
			idx = i
			break
		}
		idx = i
	}
	e.nominees = nominees
	e.chosen = idx
	return append([]float64(nil), nominees[idx]...), nil
}

// acqObjective is the acquisition search's objective for one
// portfolio member: acq's score against fBest under the posterior g,
// negated for the minimizer. Cost-aware acquisition (EI-per-second)
// discounts positive promise by the predicted cost; non-positive
// scores are left alone so dividing by cost cannot make a bad point
// look less bad.
type acqObjective struct {
	e         *Engine
	g         *gp.GP
	acq       Acquisition
	fBest     float64
	costAware bool
}

// at is the objective at x with posterior (mu, sigma), and its partials
// in μ and σ. cost is x's predicted cost, or 0 to predict it here. The
// k-NN cost is piecewise constant, so dividing the score by it divides
// the partials too.
func (o acqObjective) at(x []float64, mu, sigma, cost float64) (f, dMu, dSigma float64) {
	score, dMu, dSigma := o.acq.Score(mu, sigma, o.fBest)
	if o.costAware && score > 0 {
		if cost == 0 {
			cost = o.e.predictCost(x)
		}
		score, dMu, dSigma = score/cost, dMu/cost, dSigma/cost
	}
	return -score, -dMu, -dSigma
}

// valueGrad is the objective at x with its gradient in x: the partials
// chained through the posterior's ∇μ and ∇σ = ∇σ²/(2σ), with no σ term
// at σ = 0.
func (o acqObjective) valueGrad(x, grad []float64) float64 {
	ws := gradScratches.Get().(*gradScratch)
	ws.dvar = slices.Grow(ws.dvar[:0], len(x))[:len(x)]
	mu, v := o.g.PredictGradInto(&ws.ps, x, grad, ws.dvar)
	sigma := math.Sqrt(v)
	f, dMu, dSigma := o.at(x, mu, sigma, 0)
	dVar := 0.0
	if sigma > 0 {
		dVar = dSigma / (2 * sigma)
	}
	for j := range grad {
		grad[j] = dMu*grad[j] + dVar*ws.dvar[j]
	}
	gradScratches.Put(ws)
	return f
}

// SuggestOr is Suggest for a session that must keep running: when the
// surrogate cannot propose (fewer than two observations, a fit that
// fails even at maximum jitter, or a panic deep in the linear algebra)
// it returns a uniform point drawn from rng instead, so an evaluation
// budget already paid for is never abandoned over one degenerate fit.
// fellBack reports a genuine failure, one with at least two
// observations; the "too few observations" stage of extreme budgets is
// not one.
func (e *Engine) SuggestOr(rng *rand.Rand) (u []float64, fellBack bool) {
	func() {
		defer func() { _ = recover() }()
		u, _ = e.Suggest()
	}()
	if u != nil {
		return u, false
	}
	return sample.Uniform(1, e.dim, rng)[0], len(e.x) >= 2
}

// Chosen returns the portfolio index selected by the last Suggest.
func (e *Engine) Chosen() int { return e.chosen }

// PortfolioNames returns the acquisition names in portfolio order.
func (e *Engine) PortfolioNames() []string {
	out := make([]string, len(e.cfg.Portfolio))
	for i, a := range e.cfg.Portfolio {
		out[i] = a.Name()
	}
	return out
}

// normalize maps a target-scale value onto the engine's observation
// scale (z-score) so Hedge gains are comparable across problems.
func (e *Engine) normalize(v float64) float64 {
	var mean, sd float64
	for _, y := range e.y {
		mean += y
	}
	mean /= float64(len(e.y))
	for _, y := range e.y {
		d := y - mean
		sd += d * d
	}
	sd = math.Sqrt(sd / float64(len(e.y)))
	if sd < 1e-12 {
		return 0
	}
	return (v - mean) / sd
}

func clamp01(v float64) float64 {
	if v < 0 {
		return 0
	}
	if v >= 1 {
		return math.Nextafter(1, 0)
	}
	return v
}

// Fork returns an independent copy of the engine: same observations,
// gains, configuration and RNG seedline, but future Tells and
// Suggests do not affect the original. BatchSuggest uses forks for
// constant-liar lookahead.
func (e *Engine) Fork() *Engine {
	f := New(e.dim, e.cfg)
	f.x = make([][]float64, len(e.x))
	for i, xi := range e.x {
		f.x[i] = append([]float64(nil), xi...)
	}
	f.y = append([]float64(nil), e.y...)
	f.cens = append([]bool(nil), e.cens...)
	f.costX = make([][]float64, len(e.costX))
	for i, xi := range e.costX {
		f.costX[i] = append([]float64(nil), xi...)
	}
	f.costY = append([]float64(nil), e.costY...)
	copy(f.gain, e.gain)
	f.lastHyper = e.lastHyper
	f.hyperFitAtN = e.hyperFitAtN
	f.jitterRetries = e.jitterRetries
	f.start = e.start
	f.refitSeconds = e.refitSeconds
	f.hyperRefits = e.hyperRefits
	f.posteriorRefits = e.posteriorRefits
	f.extends = e.extends
	// The fitted GP is immutable, so the fork shares it; the fork's
	// first Tell then extends it incrementally instead of refitting
	// from scratch (the constant-liar loop in BatchSuggest leans on
	// this).
	f.g = e.g
	f.gN = e.gN
	return f
}

// BatchSuggest proposes q distinct points for parallel evaluation
// using the constant-liar heuristic: after each suggestion the fork
// is told the GP's own mean prediction at that point (the "lie"), so
// subsequent suggestions move elsewhere instead of piling onto the
// same optimum. The engine itself is not modified; call Tell with the
// real observations when they arrive.
func (e *Engine) BatchSuggest(q int) ([][]float64, error) {
	if q < 1 {
		q = 1
	}
	fork := e.Fork()
	out := make([][]float64, 0, q)
	for k := 0; k < q; k++ {
		u, err := fork.Suggest()
		if err != nil {
			if k == 0 {
				return nil, err
			}
			break
		}
		out = append(out, u)
		g, err := fork.Surrogate()
		if err != nil {
			break
		}
		lie, _ := g.Predict(u)
		if err := fork.Tell(u, lie); err != nil {
			// A non-finite lie means the surrogate itself is degenerate;
			// stop the lookahead with the suggestions gathered so far.
			break
		}
	}
	return out, nil
}
