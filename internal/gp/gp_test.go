package gp

import (
	"math"
	"testing"

	"repro/internal/sample"
)

// smooth1d is a smooth test function on [0,1].
func smooth1d(x float64) float64 { return math.Sin(4*x) + 0.5*x }

func grid1d(n int) ([][]float64, []float64) {
	xs := make([][]float64, n)
	ys := make([]float64, n)
	for i := 0; i < n; i++ {
		v := float64(i) / float64(n-1)
		xs[i] = []float64{v}
		ys[i] = smooth1d(v)
	}
	return xs, ys
}

func TestFitInterpolatesNoiseFree(t *testing.T) {
	xs, ys := grid1d(12)
	g, err := Fit(xs, ys, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	// At training points the posterior mean should be close to the
	// observations (small fitted noise).
	for i, x := range xs {
		mu, _ := g.Predict(x)
		if math.Abs(mu-ys[i]) > 0.05 {
			t.Errorf("train point %d: mu=%v want %v", i, mu, ys[i])
		}
	}
}

func TestPredictBetweenPoints(t *testing.T) {
	xs, ys := grid1d(15)
	g, err := Fit(xs, ys, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	_ = ys
	for _, v := range []float64{0.13, 0.37, 0.61, 0.88} {
		mu, _ := g.Predict([]float64{v})
		if math.Abs(mu-smooth1d(v)) > 0.1 {
			t.Errorf("x=%v: mu=%v want %v", v, mu, smooth1d(v))
		}
	}
}

func TestVarianceGrowsAwayFromData(t *testing.T) {
	// Train only on the left half; variance on the right should be
	// larger (the exploration signal BO relies on).
	n := 10
	xs := make([][]float64, n)
	ys := make([]float64, n)
	for i := 0; i < n; i++ {
		v := float64(i) / float64(n-1) * 0.4
		xs[i] = []float64{v}
		ys[i] = smooth1d(v)
	}
	g, err := Fit(xs, ys, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	_, nearVar := g.Predict([]float64{0.2})
	_, farVar := g.Predict([]float64{0.95})
	if farVar <= nearVar {
		t.Errorf("variance should grow away from data: near=%v far=%v", nearVar, farVar)
	}
}

func TestVarianceNonNegative(t *testing.T) {
	xs, ys := grid1d(20)
	g, err := Fit(xs, ys, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i <= 50; i++ {
		_, v := g.Predict([]float64{float64(i) / 50})
		if v < 0 || math.IsNaN(v) {
			t.Fatalf("variance %v at %v", v, float64(i)/50)
		}
	}
}

func TestNoisyObservationsSmoothed(t *testing.T) {
	rng := sample.NewRNG(3)
	n := 60
	xs := make([][]float64, n)
	ys := make([]float64, n)
	for i := 0; i < n; i++ {
		v := rng.Float64()
		xs[i] = []float64{v}
		ys[i] = smooth1d(v) + 0.1*rng.NormFloat64()
	}
	g, err := Fit(xs, ys, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	// Fitted noise should be materially nonzero.
	if noise := math.Exp(g.Params().LogNoise); noise < 1e-5 {
		t.Errorf("fitted noise %v too small for noisy data", noise)
	}
	// Predictions should track the underlying function better than
	// the raw noise level at a few probe points.
	var mse float64
	for _, v := range []float64{0.1, 0.3, 0.5, 0.7, 0.9} {
		mu, _ := g.Predict([]float64{v})
		d := mu - smooth1d(v)
		mse += d * d
	}
	if mse/5 > 0.01 {
		t.Errorf("denoised MSE %v too high", mse/5)
	}
}

func TestMultiDim(t *testing.T) {
	rng := sample.NewRNG(4)
	n, d := 60, 5
	xs := make([][]float64, n)
	ys := make([]float64, n)
	f := func(x []float64) float64 { return math.Sin(3*x[0]) + x[1]*x[1] - 0.5*x[2] }
	for i := 0; i < n; i++ {
		row := make([]float64, d)
		for j := range row {
			row[j] = rng.Float64()
		}
		xs[i] = row
		ys[i] = f(row)
	}
	g, err := Fit(xs, ys, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	var mse float64
	for k := 0; k < 30; k++ {
		row := make([]float64, d)
		for j := range row {
			row[j] = rng.Float64()
		}
		mu, _ := g.Predict(row)
		dv := mu - f(row)
		mse += dv * dv
	}
	if mse/30 > 0.05 {
		t.Errorf("5-dim GP MSE %v", mse/30)
	}
}

func TestFixedHyperparameters(t *testing.T) {
	xs, ys := grid1d(8)
	cfg := Config{Init: Params{LogVariance: 0, LogLength: math.Log(0.3), LogNoise: math.Log(1e-4)}}
	g, err := Fit(xs, ys, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if g.Params() != cfg.Init {
		t.Errorf("params changed despite FitHyper=false: %+v", g.Params())
	}
}

func TestHyperFitImprovesLML(t *testing.T) {
	xs, ys := grid1d(15)
	bad := Config{Init: Params{LogVariance: math.Log(50), LogLength: math.Log(5), LogNoise: math.Log(0.5)}}
	gBad, err := Fit(xs, ys, bad)
	if err != nil {
		t.Fatal(err)
	}
	gFit, err := Fit(xs, ys, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if gFit.LogMarginalLikelihood() <= gBad.LogMarginalLikelihood() {
		t.Errorf("fitted LML %v should beat fixed bad LML %v",
			gFit.LogMarginalLikelihood(), gBad.LogMarginalLikelihood())
	}
}

func TestConstantTargets(t *testing.T) {
	xs := [][]float64{{0.1}, {0.5}, {0.9}}
	ys := []float64{3, 3, 3}
	g, err := Fit(xs, ys, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	mu, v := g.Predict([]float64{0.3})
	if math.Abs(mu-3) > 1e-6 {
		t.Errorf("constant GP mu=%v", mu)
	}
	if math.IsNaN(v) {
		t.Error("constant GP variance NaN")
	}
}

func TestDuplicatePointsSurvive(t *testing.T) {
	// Duplicate inputs make the noise-free kernel singular; the white
	// noise term and jitter must keep the factorization alive.
	xs := [][]float64{{0.5}, {0.5}, {0.5}, {0.2}, {0.8}}
	ys := []float64{1.0, 1.1, 0.9, 0.5, 1.5}
	g, err := Fit(xs, ys, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	mu, _ := g.Predict([]float64{0.5})
	if math.Abs(mu-1.0) > 0.2 {
		t.Errorf("duplicate-point mean %v, want ~1.0", mu)
	}
}

func TestFitErrors(t *testing.T) {
	if _, err := Fit(nil, nil, DefaultConfig()); err == nil {
		t.Error("empty fit accepted")
	}
	if _, err := Fit([][]float64{{1}}, []float64{1, 2}, DefaultConfig()); err == nil {
		t.Error("mismatched fit accepted")
	}
	if _, err := Fit([][]float64{{1, 2}, {3}}, []float64{1, 2}, DefaultConfig()); err == nil {
		t.Error("ragged fit accepted")
	}
}

func TestAccessors(t *testing.T) {
	xs, ys := grid1d(7)
	g, err := Fit(xs, ys, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if g.N() != 7 || g.Dim() != 1 {
		t.Errorf("N=%d Dim=%d", g.N(), g.Dim())
	}
}

func TestDeterministicFit(t *testing.T) {
	xs, ys := grid1d(10)
	cfg := DefaultConfig()
	cfg.Seed = 42
	a, err := Fit(xs, ys, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Fit(xs, ys, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.Params() != b.Params() {
		t.Error("same seed produced different hyperparameters")
	}
}
