// Package optimize provides the numerical optimizers behind ROBOTune:
// a projected-gradient L-BFGS-B that takes the objective's value and
// gradient from its caller in one call, used both to fit the GP
// hyperparameters on the analytic gradient of the log marginal
// likelihood and to optimize acquisition functions (following §4 of
// the paper, with the analytic gradients of PI, EI and LCB), a
// multistart driver for it, and the separable CMA-ES baseline tuner.
package optimize

import (
	"math"
	"math/rand/v2"

	"repro/internal/par"
)

// Objective is a function to minimize over a box.
type Objective func(x []float64) float64

// ObjectiveGrad is a function to minimize over a box that returns its
// value at x and writes its gradient at x into grad (len(x) entries),
// without retaining x or grad.
type ObjectiveGrad func(x, grad []float64) float64

// Bounds is the box constraint: Lo[i] <= x[i] <= Hi[i].
type Bounds struct {
	Lo, Hi []float64
}

// UnitBox returns [0,1]^d bounds.
func UnitBox(d int) Bounds {
	lo := make([]float64, d)
	hi := make([]float64, d)
	for i := range hi {
		hi[i] = 1
	}
	return Bounds{Lo: lo, Hi: hi}
}

// Clamp projects x into the bounds in place and returns it.
func (b Bounds) Clamp(x []float64) []float64 {
	for i := range x {
		if x[i] < b.Lo[i] {
			x[i] = b.Lo[i]
		}
		if x[i] > b.Hi[i] {
			x[i] = b.Hi[i]
		}
	}
	return x
}

// Result is the outcome of an optimization run.
type Result struct {
	X     []float64
	F     float64
	Evals int
}

// Mode selects how LBFGSB treats the box and when a run stops.
type Mode uint8

const (
	// Search, the zero value, is the acquisition search's iteration.
	// The direction ignores the box: the line search projects each
	// trial point back into it. A run stops on a projected gradient
	// below 1e-9, a line search that finds no decrease, or the
	// iteration cap.
	Search Mode = iota
	// Converge is the likelihood fit's iteration. It zeroes every
	// direction component that would push a coordinate already on a
	// bound out of the box, and falls back to steepest descent, masked
	// the same way, when what is left is not a descent direction. A run
	// also stops once an accepted step lowers f by no more than
	// 1e-12·max(|f_prev|, |f|, 1), the rounding level of f, or once no
	// masked direction descends.
	Converge
)

// LBFGSB minimizes f within bounds from x0 using a limited-memory
// BFGS direction with gradient projection for the box constraints. fg
// returns f and ∇f in one call, at the start point and at every
// line-search point, so the accepted point's gradient is already in
// hand. Evals counts those calls. mode selects the handling of the
// box and the stopping rules.
func LBFGSB(fg ObjectiveGrad, x0 []float64, b Bounds, maxIters int, mode Mode) Result {
	d := len(x0)
	if maxIters <= 0 {
		maxIters = 100
	}
	const memory = 8

	evals := 0
	x := b.Clamp(append([]float64(nil), x0...))
	g := make([]float64, d)
	fx := fg(x, g)
	evals++

	// Iterations reuse these buffers: an accepted trial point swaps with
	// the iterate, and a pair dropped from the history stores the next.
	var sHist, yHist [][]float64
	var rhoHist []float64
	q := make([]float64, d)
	dir := make([]float64, d)
	alphas := make([]float64, memory)
	xNew, gNew, s, yv := make([]float64, d), make([]float64, d), make([]float64, d), make([]float64, d)

	for iter := 0; iter < maxIters; iter++ {
		// Two-loop recursion for the L-BFGS direction.
		copy(q, g)
		m := len(sHist)
		for i := m - 1; i >= 0; i-- {
			alphas[i] = rhoHist[i] * dot(sHist[i], q)
			axpy(q, -alphas[i], yHist[i])
		}
		scale := 1.0
		if m > 0 {
			ys := dot(yHist[m-1], sHist[m-1])
			yy := dot(yHist[m-1], yHist[m-1])
			if yy > 0 {
				scale = ys / yy
			}
		}
		for i := range q {
			q[i] *= scale
		}
		for i := 0; i < m; i++ {
			beta := rhoHist[i] * dot(yHist[i], q)
			axpy(q, alphas[i]-beta, sHist[i])
		}
		for i := range dir {
			dir[i] = -q[i]
		}
		if mode == Converge {
			b.maskOutward(x, dir)
		}
		// Ensure descent; otherwise fall back to steepest descent.
		if dot(dir, g) >= 0 {
			for i := range dir {
				dir[i] = -g[i]
			}
			if mode == Converge {
				b.maskOutward(x, dir)
				if dot(dir, g) >= 0 {
					break // every free component of ∇f is zero
				}
			}
		}

		// Projected backtracking line search.
		step := 1.0
		var fNew float64
		improved := false
		for ls := 0; ls < 30; ls++ {
			for i := range xNew {
				xNew[i] = x[i] + step*dir[i]
			}
			b.Clamp(xNew)
			fNew = fg(xNew, gNew)
			evals++
			if fNew < fx-1e-4*step*math.Abs(dot(dir, g)) || fNew < fx-1e-12 {
				improved = true
				break
			}
			step *= 0.5
		}
		if !improved {
			break
		}

		for i := range s {
			s[i] = xNew[i] - x[i]
			yv[i] = gNew[i] - g[i]
		}
		if ys := dot(yv, s); ys > 1e-10 {
			sHist = append(sHist, s)
			yHist = append(yHist, yv)
			rhoHist = append(rhoHist, 1/ys)
			if len(sHist) > memory {
				s, yv = sHist[0], yHist[0]
				sHist = sHist[1:]
				yHist = yHist[1:]
				rhoHist = rhoHist[1:]
			} else {
				s, yv = make([]float64, d), make([]float64, d)
			}
		}
		fPrev := fx
		x, xNew, g, gNew, fx = xNew, x, gNew, g, fNew
		if mode == Converge && fPrev-fx <= 1e-12*math.Max(math.Max(math.Abs(fPrev), math.Abs(fx)), 1) {
			break
		}

		// Projected-gradient convergence test.
		pg := 0.0
		for i := range g {
			v := x[i] - g[i]
			if v < b.Lo[i] {
				v = b.Lo[i]
			}
			if v > b.Hi[i] {
				v = b.Hi[i]
			}
			pg = math.Max(pg, math.Abs(v-x[i]))
		}
		if pg < 1e-9 {
			break
		}
	}
	return Result{X: x, F: fx, Evals: evals}
}

// maskOutward zeroes every component of dir that would move a
// coordinate of x already on a bound out of the box.
func (b Bounds) maskOutward(x, dir []float64) {
	for i, v := range dir {
		if (v < 0 && x[i] <= b.Lo[i]) || (v > 0 && x[i] >= b.Hi[i]) {
			dir[i] = 0
		}
	}
}

func dot(a, b []float64) float64 {
	var s float64
	for i := range a {
		s += a[i] * b[i]
	}
	return s
}

func axpy(dst []float64, a float64, x []float64) {
	for i := range dst {
		dst[i] += a * x[i]
	}
}

// Multistart runs the given local optimizer from several random
// starting points in b (plus any provided seeds) and returns the best
// result, with Evals summed over every run. local closes over its own
// objective; it typically wraps LBFGSB.
//
// All starting points are drawn from rng up front (so the rng stream
// is consumed identically for any worker count), then the local runs
// execute on up to `workers` goroutines (<= 0 selects GOMAXPROCS) and
// the winner is the lowest F at the lowest run index — the same
// tie-breaking the serial loop uses, making results bit-identical
// across worker counts. With workers > 1, local must be safe for
// concurrent calls.
func Multistart(b Bounds, starts int, seeds [][]float64, rng *rand.Rand, workers int,
	local func(x0 []float64) Result) Result {
	d := len(b.Lo)
	x0s := make([][]float64, 0, len(seeds)+starts)
	for _, s := range seeds {
		x0s = append(x0s, append([]float64(nil), s...))
	}
	for k := 0; k < starts; k++ {
		x0 := make([]float64, d)
		for i := range x0 {
			x0[i] = b.Lo[i] + rng.Float64()*(b.Hi[i]-b.Lo[i])
		}
		x0s = append(x0s, x0)
	}

	results := make([]Result, len(x0s))
	par.ForEach(workers, len(x0s), func(i int) {
		results[i] = local(x0s[i])
	})

	best := Result{F: math.Inf(1)}
	evals := 0
	for _, r := range results {
		evals += r.Evals
		if r.F < best.F {
			best = r
		}
	}
	best.Evals = evals
	return best
}
