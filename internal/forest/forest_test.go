package forest

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/sample"
	"repro/internal/stats"
)

// synth generates n samples of a nonlinear function of the first few
// of d features; the remaining features are noise.
func synth(n, d int, seed uint64, noise float64) ([][]float64, []float64) {
	rng := sample.NewRNG(seed)
	x := make([][]float64, n)
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		row := make([]float64, d)
		for j := range row {
			row[j] = rng.Float64()
		}
		x[i] = row
		y[i] = 10*math.Sin(3*row[0]) + 5*row[1]*row[1] + 3*row[2] + noise*rng.NormFloat64()
	}
	return x, y
}

// allSamples returns the sample indices 0..n-1, each drawn once.
func allSamples(n int) []int32 {
	idx := make([]int32, n)
	for i := range idx {
		idx[i] = int32(i)
	}
	return idx
}

func TestTreeFitsTrainingData(t *testing.T) {
	x, y := synth(80, 5, 1, 0)
	tree := newDataset(x, y).growTree(allSamples(len(x)), TreeConfig{MinLeaf: 1}.withDefaults(5), sample.NewRNG(2))
	// With MinLeaf 1 and no depth cap, an unpruned CART should fit
	// training data almost perfectly.
	pred := make([]float64, len(x))
	for i := range x {
		pred[i] = tree.Predict(x[i])
	}
	if r2 := stats.R2(y, pred); r2 < 0.95 {
		t.Errorf("training R2 = %v, want near 1", r2)
	}
	if tree.Leaves() < 2 {
		t.Error("tree did not split")
	}
	if tree.Depth() < 1 {
		t.Error("tree has no depth")
	}
}

func TestTreeMaxDepth(t *testing.T) {
	x, y := synth(200, 5, 3, 0)
	tree := newDataset(x, y).growTree(allSamples(len(x)), TreeConfig{MinLeaf: 1, MaxDepth: 3}.withDefaults(5), sample.NewRNG(4))
	if d := tree.Depth(); d > 3 {
		t.Errorf("depth = %d, want <= 3", d)
	}
}

func TestTreeConstantTarget(t *testing.T) {
	x := [][]float64{{0}, {0.5}, {1}}
	y := []float64{7, 7, 7}
	tree := newDataset(x, y).growTree(allSamples(3), TreeConfig{}.withDefaults(1), sample.NewRNG(5))
	if tree.Leaves() != 1 {
		t.Errorf("constant target should not split, leaves = %d", tree.Leaves())
	}
	if tree.Predict([]float64{0.3}) != 7 {
		t.Error("constant prediction wrong")
	}
}

func TestForestGeneralizes(t *testing.T) {
	xtr, ytr := synth(300, 8, 10, 0.5)
	xte, yte := synth(100, 8, 11, 0.5)
	f := Train(xtr, ytr, Config{Trees: 100, Bootstrap: true, Seed: 1})
	pred := f.PredictAll(xte)
	if r2 := stats.R2(yte, pred); r2 < 0.8 {
		t.Errorf("test R2 = %v, want > 0.8", r2)
	}
}

func TestExtraTreesGeneralize(t *testing.T) {
	xtr, ytr := synth(300, 8, 12, 0.5)
	xte, yte := synth(100, 8, 13, 0.5)
	f := Train(xtr, ytr, func() Config { c := ETDefaults(); c.Seed = 2; return c }())
	pred := f.PredictAll(xte)
	if r2 := stats.R2(yte, pred); r2 < 0.7 {
		t.Errorf("ET test R2 = %v, want > 0.7", r2)
	}
}

func TestForestDeterministicGivenSeed(t *testing.T) {
	x, y := synth(100, 5, 20, 0.2)
	a := Train(x, y, Config{Trees: 30, Bootstrap: true, Seed: 7})
	b := Train(x, y, Config{Trees: 30, Bootstrap: true, Seed: 7})
	probe := []float64{0.3, 0.6, 0.1, 0.9, 0.5}
	if a.Predict(probe) != b.Predict(probe) {
		t.Error("same seed gave different forests")
	}
	c := Train(x, y, Config{Trees: 30, Bootstrap: true, Seed: 8})
	if a.Predict(probe) == c.Predict(probe) {
		t.Error("different seeds gave identical forests")
	}
}

func TestOOBR2Reasonable(t *testing.T) {
	x, y := synth(300, 8, 30, 0.5)
	f := Train(x, y, Config{Trees: 100, Bootstrap: true, Seed: 3})
	oob := f.OOBR2()
	if math.IsNaN(oob) || oob < 0.6 || oob > 1 {
		t.Errorf("OOB R2 = %v, want in (0.6, 1)", oob)
	}
}

func TestOOBNaNWithoutBootstrap(t *testing.T) {
	x, y := synth(50, 4, 31, 0.1)
	f := Train(x, y, Config{Trees: 10, Bootstrap: false, Seed: 3})
	if !math.IsNaN(f.OOBR2()) {
		t.Error("OOB R2 should be NaN without bootstrap")
	}
}

func TestPermutationImportanceRanksSignalAboveNoise(t *testing.T) {
	// y depends on features 0..2; features 3..7 are pure noise.
	x, y := synth(250, 8, 40, 0.3)
	f := Train(x, y, Config{Trees: 100, Bootstrap: true, Seed: 4})
	groups := [][]int{{0}, {1}, {2}, {3}, {4}, {5}, {6}, {7}}
	imp := f.PermutationImportance(groups, 5, 5, 1)
	// Feature 0 (the dominant sine term) must beat all noise features.
	for j := 3; j < 8; j++ {
		if imp[0].Drop <= imp[j].Drop {
			t.Errorf("signal feature 0 drop %.4f <= noise feature %d drop %.4f", imp[0].Drop, j, imp[j].Drop)
		}
	}
	// Noise features should be near zero.
	for j := 3; j < 8; j++ {
		if imp[j].Drop > 0.05 {
			t.Errorf("noise feature %d drop %.4f > 0.05 threshold", j, imp[j].Drop)
		}
	}
}

func TestGroupedPermutationCapturesSharedSignal(t *testing.T) {
	// Two perfectly collinear features share the signal; permuting
	// them jointly reveals the full importance.
	rng := sample.NewRNG(50)
	n := 200
	x := make([][]float64, n)
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		v := rng.Float64()
		x[i] = []float64{v, v, rng.Float64()}
		y[i] = 8 * v
	}
	f := Train(x, y, Config{Trees: 100, Bootstrap: true, Seed: 6})
	joint := f.PermutationImportance([][]int{{0, 1}, {2}}, 5, 7, 1)
	if joint[0].Drop < 0.3 {
		t.Errorf("joint collinear drop %.4f too small", joint[0].Drop)
	}
	if joint[1].Drop > 0.1 {
		t.Errorf("noise drop %.4f too large", joint[1].Drop)
	}
	// The joint drop should exceed each individual drop: permuting
	// one collinear twin leaves the other carrying the signal.
	solo := f.PermutationImportance([][]int{{0}, {1}}, 5, 8, 1)
	if joint[0].Drop <= solo[0].Drop || joint[0].Drop <= solo[1].Drop {
		t.Errorf("joint drop %.4f should exceed solo drops %.4f/%.4f",
			joint[0].Drop, solo[0].Drop, solo[1].Drop)
	}
}

func TestMDIImportance(t *testing.T) {
	x, y := synth(250, 8, 60, 0.3)
	f := Train(x, y, Config{Trees: 100, Bootstrap: true, Seed: 9})
	mdi := f.MDIImportance()
	if len(mdi) != 8 {
		t.Fatalf("MDI length %d", len(mdi))
	}
	var sum float64
	for _, v := range mdi {
		if v < 0 {
			t.Errorf("negative MDI %v", v)
		}
		sum += v
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("MDI sums to %v, want 1", sum)
	}
	if mdi[0] < mdi[5] {
		t.Errorf("signal MDI %.4f below noise MDI %.4f", mdi[0], mdi[5])
	}
}

func TestForestPredictionWithinRangeProperty(t *testing.T) {
	// A regression forest's prediction is an average of leaf means,
	// so it can never leave [min(y), max(y)].
	x, y := synth(120, 5, 70, 0.5)
	f := Train(x, y, Config{Trees: 50, Bootstrap: true, Seed: 10})
	lo, hi := stats.Min(y), stats.Max(y)
	check := func(a, b, c, d, e float64) bool {
		clamp := func(v float64) float64 { return math.Mod(math.Abs(v), 1) }
		p := f.Predict([]float64{clamp(a), clamp(b), clamp(c), clamp(d), clamp(e)})
		return p >= lo-1e-9 && p <= hi+1e-9
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestTrainPanicsOnBadInput(t *testing.T) {
	for name, fn := range map[string]func(){
		"empty":    func() { Train(nil, nil, Config{Bootstrap: true}) },
		"mismatch": func() { Train([][]float64{{1}}, []float64{1, 2}, Config{Bootstrap: true}) },
		"ragged":   func() { Train([][]float64{{1, 2}, {3}}, []float64{1, 2}, Config{Bootstrap: true}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestPredictDimPanic(t *testing.T) {
	x, y := synth(30, 3, 80, 0)
	f := Train(x, y, Config{Trees: 5, Bootstrap: true, Seed: 1})
	defer func() {
		if recover() == nil {
			t.Error("wrong-dimension Predict should panic")
		}
	}()
	f.Predict([]float64{0.1})
}

func TestRFBeatsSingleTreeOnNoisyData(t *testing.T) {
	xtr, ytr := synth(200, 8, 90, 2.0)
	xte, yte := synth(100, 8, 91, 2.0)
	forest := Train(xtr, ytr, Config{Trees: 100, Bootstrap: true, Seed: 11})
	single := Train(xtr, ytr, Config{Trees: 1, Bootstrap: false, Seed: 11,
		Tree: TreeConfig{MaxFeatures: 8}})
	rf := stats.R2(yte, forest.PredictAll(xte))
	st := stats.R2(yte, single.PredictAll(xte))
	if rf <= st {
		t.Errorf("forest R2 %.4f should beat single tree %.4f on noisy data", rf, st)
	}
}
