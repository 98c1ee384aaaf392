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

func TestNelderMeadSphere(t *testing.T) {
	b := UnitBox(4)
	r := NelderMead(sphere, []float64{0.9, 0.9, 0.9, 0.9}, b, 4000)
	if r.F > 1e-6 {
		t.Errorf("NM sphere min = %v at %v", r.F, r.X)
	}
	for _, v := range r.X {
		if math.Abs(v-0.3) > 1e-2 {
			t.Errorf("NM sphere solution %v, want 0.3", r.X)
		}
	}
}

func TestNelderMeadRespectsBounds(t *testing.T) {
	// Minimum of (x+1)^2 over [0,1] is at the boundary x=0.
	f := func(x []float64) float64 { return (x[0] + 1) * (x[0] + 1) }
	b := UnitBox(1)
	r := NelderMead(f, []float64{0.8}, b, 500)
	if r.X[0] < 0 || r.X[0] > 1 {
		t.Fatalf("solution %v outside box", r.X)
	}
	if r.X[0] > 0.02 {
		t.Errorf("boundary optimum not found: %v", r.X)
	}
}

func TestLBFGSBSphere(t *testing.T) {
	b := UnitBox(6)
	r := LBFGSB(sphere, nil, []float64{0.9, 0.1, 0.5, 0.7, 0.2, 0.8}, b, 100)
	if r.F > 1e-8 {
		t.Errorf("LBFGSB sphere min = %v", r.F)
	}
}

func TestLBFGSBRosenbrock(t *testing.T) {
	// Optimum (1,1) sits at the box corner of [0,1]^2.
	b := UnitBox(2)
	r := LBFGSB(rosenbrock, nil, []float64{0.2, 0.8}, b, 400)
	if r.F > 1e-4 {
		t.Errorf("LBFGSB rosenbrock min = %v at %v", r.F, r.X)
	}
}

func TestLBFGSBBoundaryOptimum(t *testing.T) {
	f := func(x []float64) float64 { return -x[0] - 2*x[1] } // max at (1,1)
	b := UnitBox(2)
	r := LBFGSB(f, nil, []float64{0.5, 0.5}, b, 100)
	if math.Abs(r.X[0]-1) > 1e-6 || math.Abs(r.X[1]-1) > 1e-6 {
		t.Errorf("boundary solution %v, want (1,1)", r.X)
	}
}

func TestLBFGSBHandlesFlatFunction(t *testing.T) {
	f := func(x []float64) float64 { return 42 }
	b := UnitBox(3)
	r := LBFGSB(f, nil, []float64{0.5, 0.5, 0.5}, b, 50)
	if r.F != 42 {
		t.Errorf("flat function value %v", r.F)
	}
}

func TestMultistartEscapesLocalMinima(t *testing.T) {
	// Two basins: a shallow one near 0.1 (f=1) and the global at 0.9
	// (f=0). A single local run from 0.1 stays in the shallow basin;
	// multistart should find the global one.
	f := func(x []float64) float64 {
		v := x[0]
		a := (v - 0.1) * (v - 0.1) * 40
		bb := (v-0.9)*(v-0.9)*40 - 1
		return math.Min(a, bb) + 1
	}
	b := UnitBox(1)
	local := func(fn Objective, x0 []float64, bb Bounds) Result { return LBFGSB(fn, nil, x0, bb, 60) }
	single := local(f, []float64{0.1}, b)
	multi := Multistart(f, b, 20, [][]float64{{0.1}}, sample.NewRNG(1), 1, local)
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
	f := func(x []float64) float64 { calls++; return sphere(x) }
	b := UnitBox(2)
	r := Multistart(f, b, 0, [][]float64{{0.31, 0.29}}, sample.NewRNG(2), 1,
		func(fn Objective, x0 []float64, bb Bounds) Result { return LBFGSB(fn, nil, x0, bb, 50) })
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
	f := func(x []float64) float64 {
		var s float64
		for _, v := range x {
			d := v - 0.3
			s += d*d + 0.05*(1-math.Cos(8*math.Pi*d))
		}
		return s
	}
	b := UnitBox(3)
	local := func(fn Objective, x0 []float64, bb Bounds) Result { return LBFGSB(fn, nil, x0, bb, 60) }
	run := func(workers int) Result {
		return Multistart(f, b, 12, [][]float64{{0.9, 0.9, 0.9}}, sample.NewRNG(11), workers, local)
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
	f := func(x []float64) float64 { calls.Add(1); return sphere(x) }
	b := UnitBox(2)
	r := Multistart(f, b, 4, nil, sample.NewRNG(3), 1,
		func(fn Objective, x0 []float64, bb Bounds) Result { return LBFGSB(fn, nil, x0, bb, 20) })
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
	r := NelderMead(sphere, []float64{0.9, 0.9}, b, 100)
	if r.Evals == 0 || r.Evals > 110 {
		t.Errorf("NM evals = %d", r.Evals)
	}
	r = LBFGSB(sphere, nil, []float64{0.9, 0.9}, b, 50)
	if r.Evals == 0 {
		t.Error("LBFGSB evals not counted")
	}
}

func TestNelderMeadHighDim(t *testing.T) {
	// The acquisition optimizer may run in up to ~10 selected dims.
	d := 10
	b := UnitBox(d)
	x0 := make([]float64, d)
	for i := range x0 {
		x0[i] = 0.9
	}
	r := NelderMead(sphere, x0, b, 6000)
	if r.F > 1e-3 {
		t.Errorf("NM 10-dim sphere min = %v", r.F)
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

// lbfgsbPerProbe is LBFGSB as it was before its central differences
// were batched, kept verbatim as the bit-identity oracle: the gradient
// moves the iterate itself to x[i]+h and evaluates it, moves it to
// x[i]−h and evaluates it, and restores it, one coordinate at a time,
// and every iteration allocates fresh trial, gradient and curvature
// vectors.
func lbfgsbPerProbe(f Objective, x0 []float64, b Bounds, maxIters int) Result {
	d := len(x0)
	if maxIters <= 0 {
		maxIters = 100
	}
	const memory = 8
	const gradEps = 1e-6

	evals := 0
	eval := func(x []float64) float64 {
		evals++
		return f(x)
	}
	grad := func(x []float64, g []float64) {
		for i := 0; i < d; i++ {
			h := gradEps * math.Max(1, math.Abs(x[i]))
			xi := x[i]
			lo, hi := xi-h, xi+h
			if lo < b.Lo[i] {
				lo = b.Lo[i]
			}
			if hi > b.Hi[i] {
				hi = b.Hi[i]
			}
			if hi == lo {
				g[i] = 0
				continue
			}
			x[i] = hi
			fp := eval(x)
			x[i] = lo
			fm := eval(x)
			x[i] = xi
			g[i] = (fp - fm) / (hi - lo)
		}
	}

	x := b.Clamp(append([]float64(nil), x0...))
	fx := eval(x)
	g := make([]float64, d)
	grad(x, g)

	var sHist, yHist [][]float64
	var rhoHist []float64
	q := make([]float64, d)
	dir := make([]float64, d)

	for iter := 0; iter < maxIters; iter++ {
		// Two-loop recursion for the L-BFGS direction.
		copy(q, g)
		m := len(sHist)
		alphas := make([]float64, m)
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
		// Ensure descent; otherwise fall back to steepest descent.
		if dot(dir, g) >= 0 {
			for i := range dir {
				dir[i] = -g[i]
			}
		}

		// Projected backtracking line search.
		step := 1.0
		var xNew []float64
		var fNew float64
		improved := false
		for ls := 0; ls < 30; ls++ {
			xNew = make([]float64, d)
			for i := range xNew {
				xNew[i] = x[i] + step*dir[i]
			}
			b.Clamp(xNew)
			fNew = eval(xNew)
			if fNew < fx-1e-4*step*math.Abs(dot(dir, g)) || fNew < fx-1e-12 {
				improved = true
				break
			}
			step *= 0.5
		}
		if !improved {
			break
		}

		gNew := make([]float64, d)
		grad(xNew, gNew)
		s := make([]float64, d)
		yv := make([]float64, d)
		for i := range s {
			s[i] = xNew[i] - x[i]
			yv[i] = gNew[i] - g[i]
		}
		if ys := dot(yv, s); ys > 1e-10 {
			sHist = append(sHist, s)
			yHist = append(yHist, yv)
			rhoHist = append(rhoHist, 1/ys)
			if len(sHist) > memory {
				sHist = sHist[1:]
				yHist = yHist[1:]
				rhoHist = rhoHist[1:]
			}
		}
		x, fx, g = xNew, fNew, gNew

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

// TestLBFGSBMatchesPerProbeOracle: LBFGSB with batched probes and
// reused buffers returns the per-probe oracle's X, F and Evals bit for
// bit, and evaluates the very same points in the very same order,
// whether its probes go through the plain objective (nil batch) or a
// batch objective. The problems are the ones above plus a box with a
// zero-width coordinate, which the gradient must skip.
func TestLBFGSBMatchesPerProbeOracle(t *testing.T) {
	pinned := Bounds{Lo: []float64{0, 0.4, 0}, Hi: []float64{1, 0.4, 1}}
	for _, tc := range []struct {
		name  string
		f     Objective
		x0    []float64
		b     Bounds
		iters int
	}{
		{"sphere", sphere, []float64{0.9, 0.1, 0.5, 0.7, 0.2, 0.8}, UnitBox(6), 100},
		{"rosenbrock", rosenbrock, []float64{0.2, 0.8}, UnitBox(2), 400},
		{"boundary", func(x []float64) float64 { return -x[0] - 2*x[1] }, []float64{0.5, 0.5}, UnitBox(2), 100},
		{"flat", func(x []float64) float64 { return 42 }, []float64{0.5, 0.5, 0.5}, UnitBox(3), 50},
		{"pinned", sphere, []float64{0.9, 0.4, 0.1}, pinned, 100},
		{"bumpy", func(x []float64) float64 {
			var s float64
			for _, v := range x {
				d := v - 0.3
				s += d*d + 0.05*(1-math.Cos(8*math.Pi*d))
			}
			return s
		}, []float64{0.9, 0.05, 0.6, 0.2, 0.75}, UnitBox(5), 60},
	} {
		// record wraps the problem so every evaluated point is logged.
		record := func(log *[][]float64) Objective {
			return func(x []float64) float64 {
				*log = append(*log, append([]float64(nil), x...))
				return tc.f(x)
			}
		}
		var oracleLog, plainLog, batchLog [][]float64
		want := lbfgsbPerProbe(record(&oracleLog), tc.x0, tc.b, tc.iters)
		plain := LBFGSB(record(&plainLog), nil, tc.x0, tc.b, tc.iters)
		fb := record(&batchLog)
		batches := 0
		batched := LBFGSB(fb, func(xs [][]float64, out []float64) {
			batches++
			for i, x := range xs {
				out[i] = fb(x)
			}
		}, tc.x0, tc.b, tc.iters)
		for _, got := range []struct {
			name string
			r    Result
			log  [][]float64
		}{{"nil batch", plain, plainLog}, {"batch", batched, batchLog}} {
			if got.r.F != want.F || got.r.Evals != want.Evals || len(got.log) != len(oracleLog) {
				t.Fatalf("%s %s: F=%v Evals=%d points=%d, oracle F=%v Evals=%d points=%d", tc.name, got.name,
					got.r.F, got.r.Evals, len(got.log), want.F, want.Evals, len(oracleLog))
			}
			for i := range want.X {
				if got.r.X[i] != want.X[i] {
					t.Fatalf("%s %s: X=%v, oracle %v", tc.name, got.name, got.r.X, want.X)
				}
			}
			for k, p := range oracleLog {
				for i := range p {
					if got.log[k][i] != p[i] {
						t.Fatalf("%s %s: evaluation %d at %v, oracle %v", tc.name, got.name, k, got.log[k], p)
					}
				}
			}
		}
		if want.Evals != len(oracleLog) {
			t.Fatalf("%s: oracle Evals %d, %d evaluations", tc.name, want.Evals, len(oracleLog))
		}
		if batches == 0 {
			t.Fatalf("%s: batch objective never called", tc.name)
		}
	}
}
