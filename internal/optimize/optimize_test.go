package optimize

import (
	"math"
	"sync/atomic"
	"testing"

	"repro/internal/sample"
)

func sphere(x []float64) float64 {
	var s float64
	for _, v := range x {
		s += (v - 0.3) * (v - 0.3)
	}
	return s
}

func rosenbrock(x []float64) float64 {
	var s float64
	for i := 0; i < len(x)-1; i++ {
		a := x[i+1] - x[i]*x[i]
		b := 1 - x[i]
		s += 100*a*a + b*b
	}
	return s
}

// sphereGrad is sphere with its gradient.
func sphereGrad(x, grad []float64) float64 {
	for i, v := range x {
		grad[i] = 2 * (v - 0.3)
	}
	return sphere(x)
}

// rosenbrockGrad is rosenbrock with its gradient.
func rosenbrockGrad(x, grad []float64) float64 {
	clear(grad)
	for i := 0; i < len(x)-1; i++ {
		a := x[i+1] - x[i]*x[i]
		grad[i] += -400*x[i]*a - 2*(1-x[i])
		grad[i+1] += 200 * a
	}
	return rosenbrock(x)
}

func TestLBFGSBSphere(t *testing.T) {
	b := UnitBox(6)
	r := LBFGSB(sphereGrad, []float64{0.9, 0.1, 0.5, 0.7, 0.2, 0.8}, b, 100, Search)
	if r.F > 1e-8 {
		t.Errorf("LBFGSB sphere min = %v", r.F)
	}
}

func TestLBFGSBRosenbrock(t *testing.T) {
	// Optimum (1,1) sits at the box corner of [0,1]^2.
	b := UnitBox(2)
	r := LBFGSB(rosenbrockGrad, []float64{0.2, 0.8}, b, 400, Search)
	if r.F > 1e-4 {
		t.Errorf("LBFGSB rosenbrock min = %v at %v", r.F, r.X)
	}
}

func TestLBFGSBBoundaryOptimum(t *testing.T) {
	f := func(x, grad []float64) float64 { // max at (1,1)
		grad[0], grad[1] = -1, -2
		return -x[0] - 2*x[1]
	}
	b := UnitBox(2)
	r := LBFGSB(f, []float64{0.5, 0.5}, b, 100, Search)
	if math.Abs(r.X[0]-1) > 1e-6 || math.Abs(r.X[1]-1) > 1e-6 {
		t.Errorf("boundary solution %v, want (1,1)", r.X)
	}
}

func TestLBFGSBHandlesFlatFunction(t *testing.T) {
	f := func(x, grad []float64) float64 {
		clear(grad)
		return 42
	}
	b := UnitBox(3)
	r := LBFGSB(f, []float64{0.5, 0.5, 0.5}, b, 50, Search)
	if r.F != 42 {
		t.Errorf("flat function value %v", r.F)
	}
}

// TestLBFGSBPinnedCoordinate: a coordinate whose box has zero width
// stays where the box pins it, although its gradient is not zero, and
// the free coordinates still reach their optimum.
func TestLBFGSBPinnedCoordinate(t *testing.T) {
	b := Bounds{Lo: []float64{0, 0.4, 0}, Hi: []float64{1, 0.4, 1}}
	r := LBFGSB(sphereGrad, []float64{0.9, 0.4, 0.1}, b, 100, Search)
	if r.X[1] != 0.4 || math.Abs(r.X[0]-0.3) > 1e-6 || math.Abs(r.X[2]-0.3) > 1e-6 {
		t.Errorf("pinned solution %v, want (0.3, 0.4, 0.3)", r.X)
	}
	if math.Abs(r.F-0.01) > 1e-10 {
		t.Errorf("pinned min = %v, want 0.01", r.F)
	}
}

// coupledQuadratic is Σ w_i(x_i − c_i)² + k·x_a·x_b on [0,1]³, with
// its gradient: ill-scaled (w spans four decades), and the coupling
// makes the bounds interact.
func coupledQuadratic(w, c []float64, k float64, a, b int) ObjectiveGrad {
	return func(x, grad []float64) float64 {
		var s float64
		for i, v := range x {
			d := v - c[i]
			s += w[i] * d * d
			grad[i] = 2 * w[i] * d
		}
		grad[a] += k * x[b]
		grad[b] += k * x[a]
		return s + k*x[a]*x[b]
	}
}

// TestLBFGSBConvergeReachesCorner: with Converge, L-BFGS-B reaches a
// minimiser on a box corner where every component of ∇f points out of
// the box, exactly and in a few calls, from any start. (Search stalls
// on the corner (0, 0, 1): its direction keeps pushing x₁ out of the
// box, so the projected steps stop decreasing f.)
func TestLBFGSBConvergeReachesCorner(t *testing.T) {
	f := coupledQuadratic([]float64{1, 1e2, 1e4}, []float64{1.3, -0.2, 1.1}, 30, 0, 1)
	corner := []float64{1, 0, 1}
	g := make([]float64, 3)
	want := f(corner, g)
	if g[0] >= 0 || g[1] <= 0 || g[2] >= 0 {
		t.Fatalf("test premise broken: ∇f at the corner %v does not point out of the box", g)
	}
	b := UnitBox(3)
	for _, x0 := range [][]float64{{0.5, 0.5, 0.5}, {0.1, 0.9, 0.2}, {0.9, 0.05, 0.95}, {0, 1, 0}} {
		r := LBFGSB(f, x0, b, 100, Converge)
		for i, v := range corner {
			if r.X[i] != v {
				t.Errorf("from %v: X = %v, want the corner %v", x0, r.X, corner)
				break
			}
		}
		if r.F != want || r.Evals > 10 {
			t.Errorf("from %v: F = %v in %d calls, want %v in at most 10", x0, r.F, r.Evals, want)
		}
	}
}

// TestLBFGSBConvergeEndsOnDecreaseRule: on a minimiser with x₀ on its
// lower face (∂f/∂x₀ > 0 there) and x₁, x₂ inside the box, Converge
// reaches the minimum to f's rounding level and stops on the decrease
// rule: its last accepted step lowers f by no more than
// 1e-12·max(|f_prev|, |f|, 1), while the projected gradient is still
// above the 1e-9 test. The run's iterates are read back by re-running
// it with smaller iteration caps.
func TestLBFGSBConvergeEndsOnDecreaseRule(t *testing.T) {
	f := coupledQuadratic([]float64{1, 1e2, 1e4}, []float64{0.3, 0.6, 0.45}, 3, 0, 2)
	xStar, fStar := []float64{0, 0.6, 0.45}, 0.09
	b := UnitBox(3)
	g := make([]float64, 3)
	for _, x0 := range [][]float64{{0.5, 0.5, 0.5}, {0.1, 0.9, 0.2}, {0.9, 0.05, 0.95}, {0, 1, 0}} {
		r := LBFGSB(f, x0, b, 1000, Converge)
		if r.X[0] != 0 || math.Abs(r.X[1]-xStar[1]) > 1e-6 || math.Abs(r.X[2]-xStar[2]) > 1e-6 || r.F-fStar > 1e-11 {
			t.Errorf("from %v: X = %v, F = %v; want %v, %v", x0, r.X, r.F, xStar, fStar)
			continue
		}
		iters := 1
		for ; iters < 1000; iters++ {
			if c := LBFGSB(f, x0, b, iters, Converge); c.F == r.F && c.Evals == r.Evals {
				break
			}
		}
		// A last iteration that accepted no step (drop 0) ended on the
		// line search, not on the decrease rule.
		prev := LBFGSB(f, x0, b, iters-1, Converge)
		if drop := prev.F - r.F; iters == 1000 || drop <= 0 || drop > 1e-12*math.Max(math.Max(math.Abs(prev.F), math.Abs(r.F)), 1) {
			t.Errorf("from %v: the run ended after %d iterations, its last step lowering f by %v", x0, iters, drop)
		}
		f(r.X, g)
		pg := 0.0
		for i, v := range r.X {
			pg = math.Max(pg, math.Abs(min(max(v-g[i], 0), 1)-v))
		}
		if pg < 1e-9 {
			t.Errorf("from %v: projected gradient %v: the run may have ended on the gradient test", x0, pg)
		}
	}
}

func TestMultistartEscapesLocalMinima(t *testing.T) {
	// Two basins: a shallow one near 0.1 (f=1) and the global at 0.9
	// (f=0). A single local run from 0.1 stays in the shallow basin;
	// multistart should find the global one.
	f := func(x, grad []float64) float64 {
		v := x[0]
		a := (v - 0.1) * (v - 0.1) * 40
		bb := (v-0.9)*(v-0.9)*40 - 1
		if a < bb {
			grad[0] = 80 * (v - 0.1)
			return a + 1
		}
		grad[0] = 80 * (v - 0.9)
		return bb + 1
	}
	b := UnitBox(1)
	local := func(x0 []float64) Result { return LBFGSB(f, x0, b, 60, Search) }
	single := local([]float64{0.1})
	multi := Multistart(b, 20, [][]float64{{0.1}}, sample.NewRNG(1), 1, local)
	if single.F < 0.5 {
		t.Fatalf("test premise broken: single run from shallow basin found %v", single.F)
	}
	if multi.F > 1e-3 {
		t.Errorf("multistart min = %v, want ~0", multi.F)
	}
	if math.Abs(multi.X[0]-0.9) > 0.05 {
		t.Errorf("multistart solution %v, want 0.9", multi.X)
	}
}

func TestMultistartUsesSeeds(t *testing.T) {
	// Zero random starts: only the seed is used.
	calls := 0
	f := func(x, grad []float64) float64 { calls++; return sphereGrad(x, grad) }
	b := UnitBox(2)
	r := Multistart(b, 0, [][]float64{{0.31, 0.29}}, sample.NewRNG(2), 1,
		func(x0 []float64) Result { return LBFGSB(f, x0, b, 50, Search) })
	if r.F > 1e-8 {
		t.Errorf("seeded multistart min = %v", r.F)
	}
	if calls == 0 {
		t.Error("objective never called")
	}
}

func TestMultistartWorkersParity(t *testing.T) {
	// The determinism contract: workers=1 and workers=8 must produce
	// bit-identical results (argmin, location, eval count) for the
	// same rng seed, including tie-breaking by run index.
	f := func(x, grad []float64) float64 {
		var s float64
		for i, v := range x {
			d := v - 0.3
			s += d*d + 0.05*(1-math.Cos(8*math.Pi*d))
			grad[i] = 2*d + 0.4*math.Pi*math.Sin(8*math.Pi*d)
		}
		return s
	}
	b := UnitBox(3)
	local := func(x0 []float64) Result { return LBFGSB(f, x0, b, 60, Search) }
	run := func(workers int) Result {
		return Multistart(b, 12, [][]float64{{0.9, 0.9, 0.9}}, sample.NewRNG(11), workers, local)
	}
	serial := run(1)
	for _, w := range []int{2, 8} {
		got := run(w)
		if got.F != serial.F || got.Evals != serial.Evals {
			t.Errorf("workers=%d: (F=%v, Evals=%d) != serial (F=%v, Evals=%d)",
				w, got.F, got.Evals, serial.F, serial.Evals)
		}
		for i := range serial.X {
			if got.X[i] != serial.X[i] {
				t.Errorf("workers=%d: X[%d] = %v, serial %v", w, i, got.X[i], serial.X[i])
			}
		}
	}
}

func TestMultistartEvalsSummed(t *testing.T) {
	// Evals must account every run, not just the winner's.
	var calls atomic.Int64
	f := func(x, grad []float64) float64 { calls.Add(1); return sphereGrad(x, grad) }
	b := UnitBox(2)
	r := Multistart(b, 4, nil, sample.NewRNG(3), 1,
		func(x0 []float64) Result { return LBFGSB(f, x0, b, 20, Search) })
	if int64(r.Evals) != calls.Load() {
		t.Errorf("Evals = %d, objective called %d times", r.Evals, calls.Load())
	}
}

func TestClamp(t *testing.T) {
	b := UnitBox(3)
	x := b.Clamp([]float64{-1, 0.5, 2})
	if x[0] != 0 || x[1] != 0.5 || x[2] != 1 {
		t.Errorf("Clamp = %v", x)
	}
}

func TestEvalsCounted(t *testing.T) {
	b := UnitBox(2)
	r := LBFGSB(sphereGrad, []float64{0.9, 0.9}, b, 50, Search)
	if r.Evals == 0 {
		t.Error("LBFGSB evals not counted")
	}
}

func TestCMAESSphere(t *testing.T) {
	b := UnitBox(6)
	x0 := []float64{0.9, 0.1, 0.5, 0.7, 0.2, 0.8}
	r := CMAES(sphere, x0, b, CMAESConfig{MaxEvals: 3000}, sample.NewRNG(1))
	if r.F > 1e-4 {
		t.Errorf("CMAES sphere min = %v at %v", r.F, r.X)
	}
	if r.Evals == 0 || r.Evals > 3000 {
		t.Errorf("evals = %d", r.Evals)
	}
}

func TestCMAESRosenbrock2D(t *testing.T) {
	// Rosenbrock's curved valley is the worst case for a diagonal
	// covariance (the separable variant cannot learn the correlation),
	// so only require solid progress, not the exact optimum.
	b := UnitBox(2)
	start := rosenbrock([]float64{0.2, 0.8})
	r := CMAES(rosenbrock, []float64{0.2, 0.8}, b, CMAESConfig{MaxEvals: 6000}, sample.NewRNG(2))
	if r.F > 0.3 || r.F > start/100 {
		t.Errorf("CMAES rosenbrock min = %v (start %v)", r.F, start)
	}
}

func TestCMAESMultimodal(t *testing.T) {
	// Rastrigin-like separable multimodal function: CMA-ES should
	// land in a good basin far more reliably than a single local
	// gradient run.
	f := func(x []float64) float64 {
		var s float64
		for _, v := range x {
			d := v - 0.3
			s += d*d + 0.05*(1-math.Cos(8*math.Pi*d))
		}
		return s
	}
	b := UnitBox(4)
	r := CMAES(f, []float64{0.9, 0.9, 0.9, 0.9}, b, CMAESConfig{MaxEvals: 5000}, sample.NewRNG(3))
	if r.F > 0.02 {
		t.Errorf("CMAES multimodal min = %v", r.F)
	}
}

func TestCMAESRespectsBounds(t *testing.T) {
	f := func(x []float64) float64 { return -x[0] } // optimum at the boundary
	b := UnitBox(1)
	r := CMAES(f, []float64{0.5}, b, CMAESConfig{MaxEvals: 600}, sample.NewRNG(4))
	if r.X[0] < 0 || r.X[0] > 1 {
		t.Fatalf("solution %v outside box", r.X)
	}
	if r.X[0] < 0.99 {
		t.Errorf("boundary optimum not reached: %v", r.X[0])
	}
}

func TestCMAESDeterministic(t *testing.T) {
	b := UnitBox(3)
	run := func() float64 {
		return CMAES(sphere, []float64{0.8, 0.8, 0.8}, b,
			CMAESConfig{MaxEvals: 800}, sample.NewRNG(5)).F
	}
	if run() != run() {
		t.Error("same seed differs")
	}
}

func TestCMAESTinyBudget(t *testing.T) {
	b := UnitBox(8)
	x0 := make([]float64, 8)
	r := CMAES(sphere, x0, b, CMAESConfig{MaxEvals: 5}, sample.NewRNG(6))
	if r.X == nil || math.IsInf(r.F, 1) {
		t.Errorf("tiny budget returned nothing: %+v", r)
	}
}
