package forest

import (
	"fmt"
	"sync"

	"repro/internal/par"
	"repro/internal/sample"
	"repro/internal/stats"
)

// Config controls forest training.
type Config struct {
	// Trees is the ensemble size (default 100).
	Trees int
	// Tree configures individual tree growth.
	Tree TreeConfig
	// Bootstrap draws each tree's training set with replacement:
	// Config{Bootstrap: true} is the Random Forest ROBOTune's parameter
	// selection trains. Extremely Randomized Trees conventionally use
	// the full sample (see ETDefaults).
	Bootstrap bool
	// Seed makes training deterministic.
	Seed uint64
	// Workers trains trees on this many goroutines (<= 0 selects
	// GOMAXPROCS). Each tree draws from its own RNG split off the seed,
	// so any worker count yields the bit-identical forest.
	Workers int
}

// ETDefaults returns the Extremely-Randomized-Trees configuration
// compared in Figure 2.
func ETDefaults() Config {
	return Config{Trees: 100, Bootstrap: false, Tree: TreeConfig{MinLeaf: 1, Extra: true}}
}

// Forest is a trained ensemble of regression trees.
type Forest struct {
	trees []*Tree
	inBag [][]bool // inBag[t][i]: sample i used to train tree t
	x     [][]float64
	y     []float64
	cfg   Config

	oobOnce sync.Once
	oob     *oobTable // see oobCells
}

// Train grows a forest on x (rows = samples) and y. It panics on
// empty or ragged input so misuse fails loudly during development.
func Train(x [][]float64, y []float64, cfg Config) *Forest {
	if len(x) == 0 || len(x) != len(y) {
		panic(fmt.Sprintf("forest: bad training shape: %d samples, %d targets", len(x), len(y)))
	}
	d := len(x[0])
	for i, r := range x {
		if len(r) != d {
			panic(fmt.Sprintf("forest: ragged row %d", i))
		}
	}
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
	ds := newDataset(x, y)
	n := len(x)
	par.ForEach(cfg.Workers, cfg.Trees, func(t int) {
		rng := sample.NewRNG(par.SplitSeed(cfg.Seed, uint64(t)))
		idx := make([]int32, n)
		bag := make([]bool, n)
		if cfg.Bootstrap {
			for i := range idx {
				j := rng.IntN(n)
				idx[i] = int32(j)
				bag[j] = true
			}
		} else {
			for i := range idx {
				idx[i] = int32(i)
				bag[i] = true
			}
		}
		f.trees[t] = ds.growTree(idx, cfg.Tree, rng)
		f.inBag[t] = bag
	})
	return f
}

// Predict returns the ensemble mean prediction for one feature vector.
func (f *Forest) Predict(xr []float64) float64 {
	var s float64
	for _, t := range f.trees {
		s += t.Predict(xr)
	}
	return s / float64(len(f.trees))
}

// PredictAll returns predictions for a batch of feature vectors.
func (f *Forest) PredictAll(xs [][]float64) []float64 {
	out := make([]float64, len(xs))
	for i, xr := range xs {
		out[i] = f.Predict(xr)
	}
	return out
}

// Trees returns the ensemble size.
func (f *Forest) Trees() int { return len(f.trees) }

// OOBR2 returns the out-of-bag R² of the forest: each training sample
// is predicted only by trees whose bootstrap excluded it. Samples
// that are in-bag everywhere are skipped. Returns NaN when no sample
// has OOB coverage (e.g. Bootstrap=false).
func (f *Forest) OOBR2() float64 {
	o := f.oobCells()
	return stats.R2(o.obs, o.base) // NaN for empty obs
}

// oobTable records every out-of-bag (tree, sample) cell of a forest in
// tree order: the tree's prediction for the sample, and the set of
// features tested on the sample's root-to-leaf path. Permuting columns
// off that path cannot change the cell's prediction.
type oobTable struct {
	start  []int     // tree t owns cells start[t]:start[t+1]
	sample []int32   // cell → sample
	pred   []float64 // cell → prediction on the unpermuted row
	path   []uint64  // cell c's feature bitset is path[c*words:(c+1)*words]
	words  int
	counts []int     // OOB cells per sample
	obs    []float64 // targets of the samples with OOB coverage, ascending
	base   []float64 // their unpermuted OOB predictions
}

// oobCells returns the forest's OOB cell table, built on first use.
func (f *Forest) oobCells() *oobTable {
	f.oobOnce.Do(func() {
		n, d := len(f.x), len(f.x[0])
		o := &oobTable{start: make([]int, len(f.trees)+1), words: (d + 63) / 64, counts: make([]int, n)}
		for t, tree := range f.trees {
			for i, in := range f.inBag[t] {
				if in {
					continue
				}
				o.path = append(o.path, make([]uint64, o.words)...)
				o.sample = append(o.sample, int32(i))
				o.pred = append(o.pred, tree.predictPath(f.x[i], o.path[len(o.path)-o.words:]))
				o.counts[i]++
			}
			o.start[t+1] = len(o.sample)
		}
		sums := make([]float64, n)
		for c, i := range o.sample {
			sums[i] += o.pred[c]
		}
		for i, k := range o.counts {
			if k > 0 {
				o.base = append(o.base, sums[i]/float64(k))
				o.obs = append(o.obs, f.y[i])
			}
		}
		f.oob = o
	})
	return f.oob
}

// permutedPredictions returns the OOB predictions (in the order of
// obs) with the columns in mask read from row perm[i] instead of row i.
// Only cells whose path tests a permuted column are walked again; every
// other cell keeps its recorded prediction. Each sample still sums its
// trees in tree order, so the result is bit-identical to re-predicting
// every cell on a permuted copy of the rows.
func (f *Forest) permutedPredictions(mask []uint64, perm []int) []float64 {
	o := f.oobCells()
	sums := make([]float64, len(f.x))
	for t, tree := range f.trees {
		for c := o.start[t]; c < o.start[t+1]; c++ {
			i := o.sample[c]
			p := o.pred[c]
			if intersects(o.path[c*o.words:(c+1)*o.words], mask) {
				p = tree.predictSwapped(f.x[i], f.x[perm[i]], mask)
			}
			sums[i] += p
		}
	}
	pred := make([]float64, 0, len(o.obs))
	for i, k := range o.counts {
		if k > 0 {
			pred = append(pred, sums[i]/float64(k))
		}
	}
	return pred
}

func intersects(a, b []uint64) bool {
	for w := range a {
		if a[w]&b[w] != 0 {
			return true
		}
	}
	return false
}

// GroupImportance holds one permutation-importance result.
type GroupImportance struct {
	// Group is the parameter indices permuted jointly.
	Group []int
	// Drop is the mean decrease in OOB R² across repeats — the MDA
	// importance of §3.3 ("record a baseline using the OOB R² score
	// ... then each of the feature columns is permuted").
	Drop float64
}

// PermutationImportance computes MDA importances for the given
// feature groups. Collinear parameters appear in one group and are
// permuted together (§3.3 "Handling Collinearity"). Each group is
// permuted `repeats` times (the paper uses 10) and the R² drops are
// averaged. Results are in the same order as groups.
//
// Every (group, repeat) cell draws its permutation from an RNG split
// off the seed and runs on the worker pool (workers <= 0 selects
// GOMAXPROCS); the per-group drops are then summed in repeat order,
// so any worker count produces bit-identical importances.
func (f *Forest) PermutationImportance(groups [][]int, repeats int, seed uint64, workers int) []GroupImportance {
	if repeats < 1 {
		repeats = 1
	}
	o := f.oobCells()
	baseline := stats.R2(o.obs, o.base)
	masks := make([][]uint64, len(groups))
	for g, cols := range groups {
		masks[g] = make([]uint64, o.words)
		for _, c := range cols {
			masks[g][c/64] |= 1 << (c % 64)
		}
	}

	n := len(f.x)
	drops := make([]float64, len(groups)*repeats)
	par.ForEach(workers, len(drops), func(job int) {
		g := job / repeats
		rng := sample.NewRNG(par.SplitSeed(seed, uint64(job)))
		perm := rng.Perm(n)
		drops[job] = baseline - stats.R2(o.obs, f.permutedPredictions(masks[g], perm))
	})

	out := make([]GroupImportance, len(groups))
	for g, cols := range groups {
		var totalDrop float64
		for r := 0; r < repeats; r++ {
			totalDrop += drops[g*repeats+r]
		}
		out[g] = GroupImportance{Group: cols, Drop: totalDrop / float64(repeats)}
	}
	return out
}

// MDIImportance returns the Mean-Decrease-in-Impurity importance per
// feature (normalized to sum to 1), the conventional RF importance
// the paper rejects as unreliable for mixed-scale parameters (§3.3).
// It is retained for the MDI-vs-MDA ablation.
func (f *Forest) MDIImportance() []float64 {
	d := len(f.x[0])
	imp := make([]float64, d)
	for _, t := range f.trees {
		for i := range t.nodes {
			nd := &t.nodes[i]
			if nd.feature >= 0 {
				imp[nd.feature] += nd.impurityDec
			}
		}
	}
	var total float64
	for _, v := range imp {
		total += v
	}
	if total > 0 {
		for i := range imp {
			imp[i] /= total
		}
	}
	return imp
}
