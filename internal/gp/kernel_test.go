package gp

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/linalg"
	"repro/internal/sample"
)

// TestKernelSymmetryProperty: k(a,b) == k(b,a).
func TestKernelSymmetryProperty(t *testing.T) {
	p := Params{LogVariance: 0.3, LogLength: -0.5}
	f := func(seed uint64) bool {
		rng := sample.NewRNG(seed)
		a := []float64{rng.Float64(), rng.Float64(), rng.Float64()}
		b := []float64{rng.Float64(), rng.Float64(), rng.Float64()}
		return math.Abs(kernel(p, a, b)-kernel(p, b, a)) < 1e-14
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestKernelDiagonalDominance: k(x,x) >= k(x,y) for a stationary
// kernel with positive variance.
func TestKernelDiagonalDominance(t *testing.T) {
	p := Params{LogVariance: 0, LogLength: math.Log(0.4)}
	f := func(seed uint64) bool {
		rng := sample.NewRNG(seed)
		x := []float64{rng.Float64(), rng.Float64()}
		y := []float64{rng.Float64(), rng.Float64()}
		return kernel(p, x, x) >= kernel(p, x, y)-1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestKernelMatrixPSDProperty: Gram matrices over random point sets
// plus the white-noise term must factorize without jitter escalation.
func TestKernelMatrixPSDProperty(t *testing.T) {
	f := func(seed uint64, n8 uint8) bool {
		n := int(n8%20) + 2
		rng := sample.NewRNG(seed)
		x := make([][]float64, n)
		for i := range x {
			x[i] = []float64{rng.Float64(), rng.Float64(), rng.Float64()}
		}
		g := &GP{x: x}
		k := g.kernelMatrix(Params{LogVariance: 0, LogLength: math.Log(0.5), LogNoise: math.Log(1e-4)})
		_, _, err := linalg.Cholesky(k, 1e-10, 8)
		return err == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestKernelDistanceDecay: covariance decreases with distance.
func TestKernelDistanceDecay(t *testing.T) {
	p := Params{LogVariance: 0, LogLength: math.Log(0.3)}
	origin := []float64{0}
	prev := math.Inf(1)
	for d := 0.0; d <= 2.0; d += 0.1 {
		v := kernel(p, origin, []float64{d})
		if v > prev+1e-12 {
			t.Fatalf("kernel not decaying at distance %v", d)
		}
		prev = v
	}
}

// TestMaternHeavierTailThanRBF: at moderate distance the Matérn 5/2
// kernel retains more covariance than the squared exponential (RBF)
// with the same length scale — the reason it suits rougher objectives.
func TestMaternHeavierTailThanRBF(t *testing.T) {
	p := Params{LogVariance: 0, LogLength: math.Log(0.3)}
	a, b := []float64{0}, []float64{0.9}
	r := 0.9 / 0.3
	rbf := math.Exp(-0.5 * r * r)
	if m := kernel(p, a, b); m <= rbf {
		t.Errorf("Matern (%v) should exceed RBF (%v) at 3 length scales", m, rbf)
	}
}
