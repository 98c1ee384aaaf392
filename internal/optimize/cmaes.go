package optimize

import (
	"math"
	"math/rand/v2"
	"sort"
)

// CMAESConfig controls the separable CMA-ES optimizer. The initial
// step size is 0.25 of the unit cube, and the caller's rng drives the
// sampling.
type CMAESConfig struct {
	// Lambda is the population size per generation (default
	// 4 + 3·ln d, the standard rule).
	Lambda int
	// MaxEvals bounds objective evaluations (default 1000·d).
	MaxEvals int
}

// CMAESState is the ask/tell form of the separable CMA-ES in CMAES:
// Ask samples one generation, Tell ranks it and adapts the
// distribution. The caller owns evaluation, which lets an external
// driver schedule, batch or journal the expensive calls. The
// generation draws never depend on the generation's own objective
// values, so driving Ask/Tell reproduces the blocking CMAES loop's
// rng sequence exactly.
type CMAESState struct {
	d, lambda, mu int
	maxEvals      int
	sigma         float64
	weights       []float64
	muEff         float64
	cSigma        float64
	dSigma        float64
	cc, c1, cMu   float64
	chiN          float64
	b             Bounds
	rng           *rand.Rand

	mean, diag, ps, pc []float64
	evals              int
	best               Result
	stopped            bool

	curX, curZ [][]float64 // generation awaiting Tell
}

// NewCMAES prepares a separable CMA-ES run starting at x0 inside b.
func NewCMAES(x0 []float64, b Bounds, cfg CMAESConfig, rng *rand.Rand) *CMAESState {
	d := len(x0)
	lambda := cfg.Lambda
	if lambda <= 0 {
		lambda = 4 + int(3*math.Log(float64(d)))
	}
	if lambda < 4 {
		lambda = 4
	}
	mu := lambda / 2
	sigma := 0.25
	maxEvals := cfg.MaxEvals
	if maxEvals <= 0 {
		maxEvals = 1000 * d
	}

	// Recombination weights w_i ∝ ln(μ+1/2) − ln i.
	weights := make([]float64, mu)
	var wSum float64
	for i := 0; i < mu; i++ {
		weights[i] = math.Log(float64(mu)+0.5) - math.Log(float64(i+1))
		wSum += weights[i]
	}
	var w2 float64
	for i := range weights {
		weights[i] /= wSum
		w2 += weights[i] * weights[i]
	}
	muEff := 1 / w2

	// Standard CSA / covariance learning rates (separable variant
	// scales c_cov by (d+2)/3).
	dd := float64(d)
	s := &CMAESState{
		d:        d,
		lambda:   lambda,
		mu:       mu,
		maxEvals: maxEvals,
		sigma:    sigma,
		weights:  weights,
		muEff:    muEff,
		cSigma:   (muEff + 2) / (dd + muEff + 5),
		cc:       (4 + muEff/dd) / (dd + 4 + 2*muEff/dd),
		c1:       (dd + 2) / 3 * 2 / ((dd+1.3)*(dd+1.3) + muEff),
		chiN:     math.Sqrt(dd) * (1 - 1/(4*dd) + 1/(21*dd*dd)),
		b:        b,
		rng:      rng,
		mean:     b.Clamp(append([]float64(nil), x0...)),
		diag:     make([]float64, d),
		ps:       make([]float64, d),
		pc:       make([]float64, d),
		best:     Result{F: math.Inf(1)},
	}
	s.dSigma = 1 + 2*math.Max(0, math.Sqrt((muEff-1)/(dd+1))-1) + s.cSigma
	s.cMu = math.Min(1-s.c1, (dd+2)/3*2*(muEff-2+1/muEff)/((dd+2)*(dd+2)+muEff))
	for i := range s.diag {
		s.diag[i] = 1
	}
	return s
}

// Lambda returns the population size per generation.
func (s *CMAESState) Lambda() int { return s.lambda }

// Mean returns the current distribution mean (not a copy).
func (s *CMAESState) Mean() []float64 { return s.mean }

// Evals returns the number of objective values consumed by Tell.
func (s *CMAESState) Evals() int { return s.evals }

// Done reports whether another full generation would exceed MaxEvals
// or the step size collapsed.
func (s *CMAESState) Done() bool {
	return s.stopped || s.evals+s.lambda > s.maxEvals
}

// Ask samples the next generation of λ points, clamped into the
// bounds, to be scored and returned via Tell. Calling Ask while a
// generation is outstanding or after Done panics.
func (s *CMAESState) Ask() [][]float64 {
	if s.curX != nil {
		panic("optimize: CMAESState.Ask before Tell of the previous generation")
	}
	if s.Done() {
		panic("optimize: CMAESState.Ask after Done")
	}
	s.curX = make([][]float64, s.lambda)
	s.curZ = make([][]float64, s.lambda)
	for k := 0; k < s.lambda; k++ {
		z := make([]float64, s.d)
		x := make([]float64, s.d)
		for i := 0; i < s.d; i++ {
			z[i] = s.rng.NormFloat64()
			x[i] = s.mean[i] + s.sigma*math.Sqrt(s.diag[i])*z[i]
		}
		s.b.Clamp(x)
		s.curX[k] = x
		s.curZ[k] = z
	}
	return s.curX
}

// Tell scores the generation returned by the last Ask (fs[k] is the
// objective value of that generation's k-th point) and performs the
// CMA-ES distribution update.
func (s *CMAESState) Tell(fs []float64) {
	if s.curX == nil {
		panic("optimize: CMAESState.Tell without Ask")
	}
	if len(fs) != s.lambda {
		panic("optimize: CMAESState.Tell with wrong generation size")
	}
	type indiv struct {
		x, z []float64
		f    float64
	}
	pop := make([]indiv, s.lambda)
	for k := 0; k < s.lambda; k++ {
		s.evals++
		if fs[k] < s.best.F {
			s.best.F = fs[k]
			s.best.X = append([]float64(nil), s.curX[k]...)
		}
		pop[k] = indiv{x: s.curX[k], z: s.curZ[k], f: fs[k]}
	}
	s.curX, s.curZ = nil, nil
	sort.SliceStable(pop, func(a, b int) bool { return pop[a].f < pop[b].f })

	// Recombine mean and the weighted z.
	oldMean := append([]float64(nil), s.mean...)
	zw := make([]float64, s.d)
	for i := 0; i < s.d; i++ {
		var m, zm float64
		for k := 0; k < s.mu; k++ {
			m += s.weights[k] * pop[k].x[i]
			zm += s.weights[k] * pop[k].z[i]
		}
		s.mean[i] = m
		zw[i] = zm
	}
	s.b.Clamp(s.mean)

	// Step-size path and adaptation.
	var psNorm2 float64
	for i := 0; i < s.d; i++ {
		s.ps[i] = (1-s.cSigma)*s.ps[i] + math.Sqrt(s.cSigma*(2-s.cSigma)*s.muEff)*zw[i]
		psNorm2 += s.ps[i] * s.ps[i]
	}
	psNorm := math.Sqrt(psNorm2)
	s.sigma *= math.Exp(s.cSigma / s.dSigma * (psNorm/s.chiN - 1))
	if s.sigma < 1e-9 {
		s.stopped = true
		return
	}
	if s.sigma > 1 {
		s.sigma = 1
	}

	// Covariance (diagonal) paths and update.
	dd := float64(s.d)
	hsig := 0.0
	if psNorm/math.Sqrt(1-math.Pow(1-s.cSigma, 2*float64(s.evals/s.lambda+1)))/s.chiN < 1.4+2/(dd+1) {
		hsig = 1
	}
	for i := 0; i < s.d; i++ {
		s.pc[i] = (1-s.cc)*s.pc[i] + hsig*math.Sqrt(s.cc*(2-s.cc)*s.muEff)*(s.mean[i]-oldMean[i])/s.sigma
		var rankMu float64
		for k := 0; k < s.mu; k++ {
			rankMu += s.weights[k] * pop[k].z[i] * pop[k].z[i]
		}
		s.diag[i] = (1-s.c1-s.cMu)*s.diag[i] + s.c1*(s.pc[i]*s.pc[i]+(1-hsig)*s.cc*(2-s.cc)*s.diag[i]) + s.cMu*rankMu*s.diag[i]
		if s.diag[i] < 1e-12 {
			s.diag[i] = 1e-12
		}
	}
}

// Finish seals the run: when no sample ever scored (MaxEvals below
// one generation, or every value was +Inf), the mean is evaluated as
// a last resort, exactly like the tail of the blocking CMAES.
func (s *CMAESState) Finish(f Objective) Result {
	s.best.Evals = s.evals
	if s.best.X == nil {
		s.best.X = s.mean
		s.best.F = f(s.mean)
		s.best.Evals++
	}
	return s.best
}

// CMAES minimizes f over the box with separable CMA-ES (Ros & Hansen
// 2008): a (μ/μ_w, λ) evolution strategy whose covariance is
// restricted to a diagonal, adapted per coordinate, with cumulative
// step-size adaptation. The diagonal restriction avoids eigen
// decompositions while retaining CMA's step-size control — a strong
// derivative-free baseline for the moderate dimensionalities the
// tuners work in. Out-of-box samples are clamped.
//
// It is a thin loop over CMAESState; drive that directly when the
// evaluations must be scheduled externally.
func CMAES(f Objective, x0 []float64, b Bounds, cfg CMAESConfig, rng *rand.Rand) Result {
	s := NewCMAES(x0, b, cfg, rng)
	fs := make([]float64, s.Lambda())
	for !s.Done() {
		for k, x := range s.Ask() {
			fs[k] = f(x)
		}
		s.Tell(fs)
	}
	return s.Finish(f)
}
