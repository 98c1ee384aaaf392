package analysis

import (
	"math"
	"testing"

	"repro/internal/sample"
	"repro/internal/stats"
)

func TestBootstrapMeanCI(t *testing.T) {
	rng := sample.NewRNG(1)
	xs := make([]float64, 200)
	for i := range xs {
		xs[i] = 10 + rng.NormFloat64()
	}
	iv := BootstrapMeanCI(xs, 0.95, 2)
	if math.Abs(iv.Point-10) > 0.3 {
		t.Errorf("point %v, want ~10", iv.Point)
	}
	if !(iv.Lo < iv.Point && iv.Point < iv.Hi) {
		t.Errorf("interval not around point: %v", iv)
	}
	// ~95% CI of a unit-variance mean over 200 samples: halfwidth ~0.14.
	if hw := (iv.Hi - iv.Lo) / 2; hw < 0.05 || hw > 0.35 {
		t.Errorf("halfwidth %v implausible", hw)
	}
	if iv.String() == "" {
		t.Error("empty render")
	}
}

func TestBootstrapCIDegenerate(t *testing.T) {
	iv := BootstrapCI([]float64{5}, stats.Mean, 0.95, 100, 1)
	if iv.Point != 5 || iv.Lo != 5 || iv.Hi != 5 {
		t.Errorf("single-sample CI = %v", iv)
	}
	iv = BootstrapCI([]float64{3, 3, 3, 3}, stats.Mean, 0, 0, 1)
	if iv.Lo != 3 || iv.Hi != 3 || iv.Confidence != 0.95 {
		t.Errorf("constant CI = %v", iv)
	}
}

func TestBootstrapCICoverage(t *testing.T) {
	// Rough coverage check: the true mean (0) should fall inside the
	// 95% CI for the vast majority of repeated draws.
	hits := 0
	const trials = 60
	for trial := uint64(0); trial < trials; trial++ {
		rng := sample.NewRNG(trial + 100)
		xs := make([]float64, 30)
		for i := range xs {
			xs[i] = rng.NormFloat64()
		}
		iv := BootstrapCI(xs, stats.Mean, 0.95, 500, trial)
		if iv.Lo <= 0 && 0 <= iv.Hi {
			hits++
		}
	}
	if hits < trials*80/100 {
		t.Errorf("coverage %d/%d too low", hits, trials)
	}
}

func TestMannWhitneyDetectsShift(t *testing.T) {
	rng := sample.NewRNG(5)
	a := make([]float64, 40)
	b := make([]float64, 40)
	for i := range a {
		a[i] = rng.NormFloat64()
		b[i] = rng.NormFloat64() + 1.5
	}
	_, z, p := MannWhitney(a, b)
	if p > 0.001 {
		t.Errorf("clear shift not detected: p=%v", p)
	}
	if z >= 0 {
		t.Errorf("z=%v, want negative (a smaller)", z)
	}
	if !Better(a, b, 0.01) {
		t.Error("Better should report a < b")
	}
	if Better(b, a, 0.01) {
		t.Error("Better reported the wrong direction")
	}
}

func TestMannWhitneyNullAndEdge(t *testing.T) {
	rng := sample.NewRNG(6)
	a := make([]float64, 50)
	b := make([]float64, 50)
	for i := range a {
		a[i] = rng.NormFloat64()
		b[i] = rng.NormFloat64()
	}
	if _, _, p := MannWhitney(a, b); p < 0.01 {
		t.Errorf("same-distribution p=%v suspiciously small", p)
	}
	// All tied values: p must be 1, not NaN.
	if _, z, p := MannWhitney([]float64{2, 2}, []float64{2, 2, 2}); p != 1 || z != 0 {
		t.Errorf("all-tied: z=%v p=%v", z, p)
	}
	if _, _, p := MannWhitney(nil, []float64{1}); !math.IsNaN(p) {
		t.Error("empty sample should give NaN")
	}
}

func TestMannWhitneyTiesHandled(t *testing.T) {
	// Heavy ties across groups: statistic stays finite and sane.
	a := []float64{1, 1, 2, 2, 3}
	b := []float64{2, 2, 3, 3, 4}
	u, z, p := MannWhitney(a, b)
	if math.IsNaN(u) || math.IsNaN(z) || p < 0 || p > 1 {
		t.Errorf("ties broke the test: u=%v z=%v p=%v", u, z, p)
	}
}

func TestWinRate(t *testing.T) {
	if w := WinRate([]float64{1, 5, 2}, []float64{2, 4, 3}); math.Abs(w-2.0/3) > 1e-12 {
		t.Errorf("win rate %v", w)
	}
	if w := WinRate(nil, nil); !math.IsNaN(w) {
		t.Errorf("empty win rate %v", w)
	}
	if w := WinRate([]float64{1, 1}, []float64{2}); w != 1 {
		t.Errorf("length mismatch win rate %v", w)
	}
}
