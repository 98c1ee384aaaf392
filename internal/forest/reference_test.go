package forest

import (
	"fmt"
	"math"
	"math/rand/v2"
	"sort"
	"testing"

	"repro/internal/conf"
	"repro/internal/par"
	"repro/internal/sample"
	"repro/internal/sparksim"
	"repro/internal/stats"
)

// The reference oracle: tree growth that sorts every candidate feature
// at every node, and OOB scoring that copies each permuted row and
// walks every out-of-bag cell. It is the straightforward form of the
// algorithm, kept here so the presorted, path-masked production code
// can be held to it bit for bit.

func refTrain(x [][]float64, y []float64, cfg Config) *Forest {
	d := len(x[0])
	if cfg.Trees <= 0 {
		cfg.Trees = 100
	}
	cfg.Tree = cfg.Tree.withDefaults(d)
	f := &Forest{
		trees: make([]*Tree, cfg.Trees),
		inBag: make([][]bool, cfg.Trees),
		x:     x,
		y:     y,
		cfg:   cfg,
	}
	n := len(x)
	for t := 0; t < cfg.Trees; t++ {
		rng := sample.NewRNG(par.SplitSeed(cfg.Seed, uint64(t)))
		idx := make([]int, n)
		bag := make([]bool, n)
		if cfg.Bootstrap {
			for i := range idx {
				j := rng.IntN(n)
				idx[i] = j
				bag[j] = true
			}
		} else {
			for i := range idx {
				idx[i] = i
				bag[i] = true
			}
		}
		tr := &Tree{dim: d}
		refBuild(tr, x, y, idx, cfg.Tree, rng, 0)
		f.trees[t] = tr
		f.inBag[t] = bag
	}
	return f
}

func refBuild(t *Tree, x [][]float64, y []float64, idx []int, cfg TreeConfig, rng *rand.Rand, depth int) int32 {
	me := int32(len(t.nodes))
	t.nodes = append(t.nodes, node{feature: -1})

	n := len(idx)
	var sum float64
	for _, i := range idx {
		sum += y[i]
	}
	mean := sum / float64(n)
	t.nodes[me].value = mean

	constant := true
	for _, i := range idx[1:] {
		if y[i] != y[idx[0]] {
			constant = false
		}
	}
	if n < cfg.MinSplit || (cfg.MaxDepth > 0 && depth >= cfg.MaxDepth) || constant {
		return me
	}

	feat, thr, dec, ok := refBestSplit(t.dim, x, y, idx, mean, cfg, rng)
	if !ok {
		return me
	}
	left := make([]int, 0, n/2)
	right := make([]int, 0, n/2)
	for _, i := range idx {
		if x[i][feat] <= thr {
			left = append(left, i)
		} else {
			right = append(right, i)
		}
	}
	if len(left) < cfg.MinLeaf || len(right) < cfg.MinLeaf {
		return me
	}
	t.nodes[me].feature = int32(feat)
	t.nodes[me].threshold = thr
	t.nodes[me].impurityDec = dec
	l := refBuild(t, x, y, left, cfg, rng, depth+1)
	t.nodes[me].left = l
	r := refBuild(t, x, y, right, cfg, rng, depth+1)
	t.nodes[me].right = r
	return me
}

func refBestSplit(dim int, x [][]float64, y []float64, idx []int, mean float64, cfg TreeConfig, rng *rand.Rand) (feat int, thr, dec float64, ok bool) {
	n := float64(len(idx))
	var parentSSE float64
	for _, i := range idx {
		d := y[i] - mean
		parentSSE += d * d
	}

	features := rng.Perm(dim)[:cfg.MaxFeatures]
	bestDec := 0.0
	for _, f := range features {
		if cfg.Extra {
			lo, hi := math.Inf(1), math.Inf(-1)
			for _, i := range idx {
				v := x[i][f]
				if v < lo {
					lo = v
				}
				if v > hi {
					hi = v
				}
			}
			if lo == hi {
				continue
			}
			cand := lo + rng.Float64()*(hi-lo)
			var sumL, sumSqL, sumR, sumSqR float64
			var nl, nr float64
			for _, i := range idx {
				v := y[i]
				if x[i][f] <= cand {
					sumL += v
					sumSqL += v * v
					nl++
				} else {
					sumR += v
					sumSqR += v * v
					nr++
				}
			}
			if int(nl) < cfg.MinLeaf || int(nr) < cfg.MinLeaf {
				continue
			}
			d := parentSSE - (sumSqL - sumL*sumL/nl) - (sumSqR - sumR*sumR/nr)
			if d > bestDec {
				bestDec, feat, thr, ok = d, f, cand, true
			}
			continue
		}
		order := make([]int, len(idx))
		copy(order, idx)
		sort.Slice(order, func(a, b int) bool { return x[order[a]][f] < x[order[b]][f] })
		var sumL, sumSqL float64
		var sumT, sumSqT float64
		for _, i := range order {
			sumT += y[i]
			sumSqT += y[i] * y[i]
		}
		for k := 0; k < len(order)-1; k++ {
			i := order[k]
			sumL += y[i]
			sumSqL += y[i] * y[i]
			if x[order[k]][f] == x[order[k+1]][f] {
				continue
			}
			nl := float64(k + 1)
			nr := n - nl
			if int(nl) < cfg.MinLeaf || int(nr) < cfg.MinLeaf {
				continue
			}
			sseL := sumSqL - sumL*sumL/nl
			sumR := sumT - sumL
			sseR := (sumSqT - sumSqL) - sumR*sumR/nr
			d := parentSSE - sseL - sseR
			if d > bestDec {
				bestDec = d
				feat = f
				thr = (x[order[k]][f] + x[order[k+1]][f]) / 2
				ok = true
			}
		}
	}
	return feat, thr, bestDec, ok
}

// refOOBPredictions walks every OOB cell of f, copying each row and
// overwriting the columns in permCols from row perm[i].
func refOOBPredictions(f *Forest, permCols []int, perm []int) (pred, obs []float64) {
	n := len(f.x)
	sums := make([]float64, n)
	counts := make([]int, n)
	row := make([]float64, len(f.x[0]))
	for t, tree := range f.trees {
		bag := f.inBag[t]
		for i := 0; i < n; i++ {
			if bag[i] {
				continue
			}
			xr := f.x[i]
			if perm != nil {
				copy(row, xr)
				for _, c := range permCols {
					row[c] = f.x[perm[i]][c]
				}
				xr = row
			}
			sums[i] += tree.Predict(xr)
			counts[i]++
		}
	}
	for i := 0; i < n; i++ {
		if counts[i] == 0 {
			continue
		}
		pred = append(pred, sums[i]/float64(counts[i]))
		obs = append(obs, f.y[i])
	}
	return pred, obs
}

func refPermutationImportance(f *Forest, groups [][]int, repeats int, seed uint64) []float64 {
	basePred, baseObs := refOOBPredictions(f, nil, nil)
	baseline := stats.R2(baseObs, basePred)
	out := make([]float64, len(groups))
	for g := range groups {
		var total float64
		for r := 0; r < repeats; r++ {
			rng := sample.NewRNG(par.SplitSeed(seed, uint64(g*repeats+r)))
			perm := rng.Perm(len(f.x))
			pred, obs := refOOBPredictions(f, groups[g], perm)
			total += baseline - stats.R2(obs, pred)
		}
		out[g] = total / float64(repeats)
	}
	return out
}

// sameBits reports whether two floats have identical representations
// (so -0 differs from +0 and a NaN equals itself).
func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// assertSameForest fails unless got and want hold bit-identical node
// arrays and in-bag masks.
func assertSameForest(t *testing.T, label string, got, want *Forest) {
	t.Helper()
	if len(got.trees) != len(want.trees) {
		t.Fatalf("%s: %d trees, reference %d", label, len(got.trees), len(want.trees))
	}
	for ti := range want.trees {
		g, w := got.trees[ti].nodes, want.trees[ti].nodes
		if len(g) != len(w) {
			t.Fatalf("%s: tree %d has %d nodes, reference %d", label, ti, len(g), len(w))
		}
		for k := range w {
			a, b := g[k], w[k]
			if a.feature != b.feature || a.left != b.left || a.right != b.right ||
				!sameBits(a.threshold, b.threshold) || !sameBits(a.value, b.value) ||
				!sameBits(a.impurityDec, b.impurityDec) {
				t.Fatalf("%s: tree %d node %d = %+v, reference %+v", label, ti, k, a, b)
			}
		}
		for i := range want.inBag[ti] {
			if got.inBag[ti][i] != want.inBag[ti][i] {
				t.Fatalf("%s: tree %d in-bag mask differs at sample %d", label, ti, i)
			}
		}
	}
}

// assertSameImportance checks OOB R² and the grouped permutation drops
// of f against the reference walk, at every given worker count.
func assertSameImportance(t *testing.T, label string, f *Forest, groups [][]int, repeats int, seed uint64, workers ...int) {
	t.Helper()
	basePred, baseObs := refOOBPredictions(f, nil, nil)
	wantR2 := math.NaN()
	if len(baseObs) > 0 {
		wantR2 = stats.R2(baseObs, basePred)
	}
	if got := f.OOBR2(); !sameBits(got, wantR2) {
		t.Fatalf("%s: OOB R² %v, reference %v", label, got, wantR2)
	}
	want := refPermutationImportance(f, groups, repeats, seed)
	for _, w := range workers {
		got := f.PermutationImportance(groups, repeats, seed, w)
		for g := range want {
			if !sameBits(got[g].Drop, want[g]) {
				t.Fatalf("%s workers=%d: group %v drop %v, reference %v", label, w, groups[g], got[g].Drop, want[g])
			}
		}
	}
}

func resorts(f *Forest) int {
	var c int
	for _, tr := range f.trees {
		c += tr.resorts
	}
	return c
}

// sparkSelectionData reproduces the shape of ROBOTune's selection
// sweep: 100 LHS points over the 44-parameter Spark space, each scored
// by one simulated run (failures charged the 480 s cap).
func sparkSelectionData(t *testing.T, family string, seed uint64) ([][]float64, []float64, [][]int) {
	t.Helper()
	space := conf.SparkSpace()
	w, err := sparksim.WorkloadByName(family, 0) // D1
	if err != nil {
		t.Fatal(err)
	}
	cl := sparksim.PaperCluster()
	x := sample.LHS(100, space.Dim(), sample.NewRNG(seed))
	y := make([]float64, len(x))
	for i, u := range x {
		out := sparksim.Run(cl, w, space.Decode(u), sample.NewRNG(seed*1000+uint64(i)), 480)
		y[i] = 480
		if out.Completed {
			y[i] = math.Min(out.Seconds, 480)
		}
	}
	return x, y, space.Groups()
}

// TestReferenceSparkSelection holds the production forest to the
// reference on the selection sweep's real data: 3 workload families ×
// 3 seeds, the default Random-Forest configuration and the paper's 44
// parameter groups (several of them multi-column).
func TestReferenceSparkSelection(t *testing.T) {
	for _, family := range []string{"TeraSort", "PageRank", "KMeans"} {
		for seed := uint64(1); seed <= 3; seed++ {
			label := fmt.Sprintf("%s/seed=%d", family, seed)
			x, y, groups := sparkSelectionData(t, family, seed)
			cfg := RFDefaults()
			cfg.Seed = seed ^ 0xf02e57
			got := Train(x, y, cfg)
			assertSameForest(t, label, got, refTrain(x, y, cfg))
			assertSameImportance(t, label, got, groups, 3, seed^0x9e247, 1, 4)
		}
	}
}

// discreteData draws every feature from {0, ⅓, ⅔, 1}, so nodes hold
// genuine ties between different samples with different targets.
func discreteData(n, d int, seed uint64) ([][]float64, []float64) {
	rng := sample.NewRNG(seed)
	x := make([][]float64, n)
	y := make([]float64, n)
	for i := range x {
		row := make([]float64, d)
		for j := range row {
			row[j] = float64(rng.IntN(4)) / 3
		}
		x[i] = row
		y[i] = 4*row[0] - 3*row[1]*row[2] + rng.NormFloat64()
	}
	return x, y
}

// TestReferenceMixedTies covers the fallback: on discrete data a tie
// run can mix different targets, where the presorted order need not
// match a full sort's. Those (node, feature) scans must re-sort, and
// the forest must still match the reference bit for bit.
func TestReferenceMixedTies(t *testing.T) {
	x, y := discreteData(120, 6, 61)
	for _, cfg := range []Config{
		{Trees: 40, Bootstrap: true, Seed: 5},
		{Trees: 10, Bootstrap: false, Seed: 6},
	} {
		label := fmt.Sprintf("discrete/bootstrap=%v", cfg.Bootstrap)
		got := Train(x, y, cfg)
		assertSameForest(t, label, got, refTrain(x, y, cfg))
		if resorts(got) == 0 {
			t.Errorf("%s: mixed ties never fell back to a full sort", label)
		}
		if cfg.Bootstrap {
			assertSameImportance(t, label, got, [][]int{{0}, {1, 2}, {3}, {4, 5}}, 3, 9, 1, 4)
		}
	}

	// LHS data has no ties beyond bootstrap copies of one sample, so it
	// never needs the fallback.
	xs, ys := synth(100, 8, 62, 0.2)
	if c := resorts(Train(xs, ys, Config{Trees: 20, Bootstrap: true, Seed: 7})); c != 0 {
		t.Errorf("continuous data fell back to a full sort %d times", c)
	}
}

// TestReferenceNaNFeatures covers the other fallback trigger: a NaN
// feature value, which a comparison sort cannot order consistently.
func TestReferenceNaNFeatures(t *testing.T) {
	x, y := synth(80, 4, 63, 0.2)
	for i := 0; i < len(x); i += 7 {
		x[i][1] = math.NaN()
	}
	cfg := Config{Trees: 20, Bootstrap: true, Seed: 8}
	got := Train(x, y, cfg)
	assertSameForest(t, "nan", got, refTrain(x, y, cfg))
	if resorts(got) == 0 {
		t.Error("NaN feature values never fell back to a full sort")
	}
}

// TestReferenceTreeConfigs varies the growth limits and the width:
// MaxFeatures < d, MinLeaf 3, MaxDepth 4, Extra trees, and d = 70 so
// path masks span two words and groups cross the word boundary.
func TestReferenceTreeConfigs(t *testing.T) {
	x8, y8 := synth(150, 8, 64, 0.3)
	x70, y70 := synth(100, 70, 65, 0.3)
	groups8 := [][]int{{0}, {1, 2}, {3, 4, 5}, {6}, {7}}
	groups70 := [][]int{{0}, {1, 2}, {5, 63, 64}, {64}, {65, 66, 69}, {30, 31}}
	cases := []struct {
		name   string
		x      [][]float64
		y      []float64
		groups [][]int
		cfg    Config
	}{
		{"maxfeatures=3", x8, y8, groups8, Config{Trees: 30, Bootstrap: true, Seed: 1, Tree: TreeConfig{MaxFeatures: 3}}},
		{"minleaf=3", x8, y8, groups8, Config{Trees: 30, Bootstrap: true, Seed: 2, Tree: TreeConfig{MinLeaf: 3}}},
		{"maxdepth=4", x8, y8, groups8, Config{Trees: 30, Bootstrap: true, Seed: 3, Tree: TreeConfig{MaxDepth: 4}}},
		{"extra", x8, y8, groups8, Config{Trees: 30, Bootstrap: true, Seed: 4, Tree: TreeConfig{Extra: true}}},
		{"d=70", x70, y70, groups70, Config{Trees: 30, Bootstrap: true, Seed: 5}},
		{"d=70/maxfeatures=20/minleaf=2", x70, y70, groups70, Config{Trees: 30, Bootstrap: true, Seed: 6, Tree: TreeConfig{MaxFeatures: 20, MinLeaf: 2}}},
	}
	for _, c := range cases {
		got := Train(c.x, c.y, c.cfg)
		assertSameForest(t, c.name, got, refTrain(c.x, c.y, c.cfg))
		assertSameImportance(t, c.name, got, c.groups, 4, 11, 1, 4)
	}
}
