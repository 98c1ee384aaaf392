// Package forest implements the tree-based regressors ROBOTune uses
// for parameter selection (§3.3): CART regression trees, bagged
// Random Forests with out-of-bag scoring, Extremely Randomized Trees,
// and both Mean-Decrease-in-Accuracy (permutation, with collinear
// groups permuted jointly) and Mean-Decrease-in-Impurity importances.
package forest

import (
	"cmp"
	"fmt"
	"math"
	"math/rand/v2"
	"slices"
)

// TreeConfig controls individual tree growth.
type TreeConfig struct {
	// MaxFeatures is the number of candidate features examined per
	// split; <= 0 selects all features, scikit-learn's regression
	// default.
	MaxFeatures int
	// MinLeaf is the minimum samples per leaf (default 1).
	MinLeaf int
	// MinSplit is the minimum samples required to split (default 2).
	MinSplit int
	// MaxDepth limits tree depth; 0 means unlimited.
	MaxDepth int
	// Extra switches to Extremely-Randomized splits: one uniformly
	// random threshold per candidate feature instead of an exhaustive
	// scan.
	Extra bool
}

func (c TreeConfig) withDefaults(d int) TreeConfig {
	if c.MaxFeatures <= 0 {
		c.MaxFeatures = d
	}
	if c.MaxFeatures > d {
		c.MaxFeatures = d
	}
	if c.MinLeaf < 1 {
		c.MinLeaf = 1
	}
	if c.MinSplit < 2 {
		c.MinSplit = 2
	}
	return c
}

// node is one tree node in a flattened array representation.
type node struct {
	feature     int32 // -1 for leaves
	left, right int32
	threshold   float64
	value       float64 // mean target at the node (prediction for leaves)
	impurityDec float64 // weighted SSE decrease of the split (for MDI)
}

// Tree is a grown CART regression tree.
type Tree struct {
	nodes []node
	dim   int
	// resorts counts the (node, feature) scans whose presorted order
	// could not stand in for a full sort (see sortedPairs).
	resorts int
}

// dataset is a training set in the layouts tree growth reads: a
// column-major copy of the features, and for every feature the sample
// indices in ascending order of that feature. Train builds it once and
// every tree shares it read-only.
type dataset struct {
	y     []float64
	cols  [][]float64 // cols[f][i] is feature f of sample i
	order [][]int32   // order[f] sorts the samples by cols[f], ties by index
}

func newDataset(x [][]float64, y []float64) *dataset {
	n, d := len(x), len(x[0])
	ds := &dataset{y: y, cols: make([][]float64, d), order: make([][]int32, d)}
	colBuf := make([]float64, n*d)
	ordBuf := make([]int32, n*d)
	for f := 0; f < d; f++ {
		col := colBuf[f*n : (f+1)*n : (f+1)*n]
		ord := ordBuf[f*n : (f+1)*n : (f+1)*n]
		for i, r := range x {
			col[i] = r[f]
			ord[i] = int32(i)
		}
		// cmp.Compare is a total order that puts NaNs first.
		slices.SortFunc(ord, func(a, b int32) int {
			if c := cmp.Compare(col[a], col[b]); c != 0 {
				return c
			}
			return cmp.Compare(a, b)
		})
		ds.cols[f], ds.order[f] = col, ord
	}
	return ds
}

// grower is the state of one tree's growth. Every node owns the segment
// [lo,hi) of idx and of each presorted column; a split partitions those
// segments stably, so both children inherit sorted columns and idx in
// its original order without sorting anything again.
type grower struct {
	ds  *dataset
	cfg TreeConfig
	rng *rand.Rand
	t   *Tree
	// idx holds the node's samples (bootstrap copies repeated) in
	// draw order: node means and parent SSE sum in this order.
	idx []int32
	// sorted[f] holds the same samples ascending by feature f; nil for
	// Extra trees, which never scan in order.
	sorted [][]int32
	feats  []int   // candidate features, reshuffled at every node
	left   []uint8 // left[s] is 1 when sample s goes left at the split being applied
	spill  []int32 // partition scratch
	pairs  []pair  // split-scan scratch
}

// pair is one (feature value, target) entry of a split scan.
type pair struct{ x, y float64 }

// growTree builds a tree on the samples idx of ds; a sample drawn k
// times by the bootstrap appears k times. Growth reorders idx in place.
func (ds *dataset) growTree(idx []int32, cfg TreeConfig, rng *rand.Rand) *Tree {
	n, d, m := len(ds.y), len(ds.cols), len(idx)
	g := &grower{
		ds:    ds,
		cfg:   cfg,
		rng:   rng,
		t:     &Tree{dim: d},
		idx:   idx,
		feats: make([]int, d),
		left:  make([]uint8, n),
		spill: make([]int32, m),
	}
	if !cfg.Extra {
		// Walk each shared order and emit every sample as many times as
		// the bootstrap drew it: the tree's presorted columns, with no
		// comparison sort.
		counts := make([]int32, n)
		for _, s := range idx {
			counts[s]++
		}
		buf := make([]int32, d*m)
		g.sorted = make([][]int32, d)
		for f, ord := range ds.order {
			col := buf[f*m : f*m : (f+1)*m]
			for _, s := range ord {
				for c := counts[s]; c > 0; c-- {
					col = append(col, s)
				}
			}
			g.sorted[f] = col
		}
		g.pairs = make([]pair, m)
	}
	g.build(0, m, 0)
	return g.t
}

func (g *grower) build(lo, hi, depth int) int32 {
	t, cfg, y := g.t, g.cfg, g.ds.y
	me := int32(len(t.nodes))
	t.nodes = append(t.nodes, node{feature: -1})

	idx := g.idx[lo:hi]
	n := len(idx)
	var sum float64
	for _, i := range idx {
		sum += y[i]
	}
	mean := sum / float64(n)
	t.nodes[me].value = mean

	if n < cfg.MinSplit || (cfg.MaxDepth > 0 && depth >= cfg.MaxDepth) || constantTarget(y, idx) {
		return me
	}

	feat, thr, dec, ok := g.bestSplit(lo, hi, mean)
	if !ok {
		return me
	}
	col := g.ds.cols[feat]
	nl := 0
	for _, i := range idx {
		g.left[i] = 0
		if col[i] <= thr {
			g.left[i] = 1
			nl++
		}
	}
	if nl < cfg.MinLeaf || n-nl < cfg.MinLeaf {
		return me
	}
	g.partition(idx)
	for _, s := range g.sorted {
		g.partition(s[lo:hi])
	}
	t.nodes[me].feature = int32(feat)
	t.nodes[me].threshold = thr
	t.nodes[me].impurityDec = dec
	l := g.build(lo, lo+nl, depth+1)
	t.nodes[me].left = l
	r := g.build(lo+nl, hi, depth+1)
	t.nodes[me].right = r
	return me
}

// partition stably moves the samples of seg that go left to its front.
// Every sample is written to both destinations and only the matching
// cursor advances, so the loop has no data-dependent branch.
func (g *grower) partition(seg []int32) {
	nl, nr := 0, 0
	spill := g.spill[:len(seg)]
	for _, s := range seg {
		l := int(g.left[s])
		seg[nl] = s // nl never passes the read position
		spill[nr] = s
		nl += l
		nr += 1 - l
	}
	copy(seg[nl:], spill[:nr])
}

func constantTarget(y []float64, idx []int32) bool {
	first := y[idx[0]]
	for _, i := range idx[1:] {
		if y[i] != first {
			return false
		}
	}
	return true
}

// bestSplit searches candidate features of the node [lo,hi) for the
// split with the greatest SSE reduction. For Extra trees a single
// random threshold per feature is evaluated instead of every midpoint.
func (g *grower) bestSplit(lo, hi int, mean float64) (feat int, thr, dec float64, ok bool) {
	cfg, y := g.cfg, g.ds.y
	idx := g.idx[lo:hi]
	n := float64(len(idx))
	var parentSSE float64
	for _, i := range idx {
		d := y[i] - mean
		parentSSE += d * d
	}

	// Identity then Shuffle: the draws of rng.Perm without its allocation.
	for i := range g.feats {
		g.feats[i] = i
	}
	g.rng.Shuffle(len(g.feats), func(i, j int) { g.feats[i], g.feats[j] = g.feats[j], g.feats[i] })
	bestDec := 0.0
	for _, f := range g.feats[:cfg.MaxFeatures] {
		col := g.ds.cols[f]
		if cfg.Extra {
			lo, hi := math.Inf(1), math.Inf(-1)
			for _, i := range idx {
				v := col[i]
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
			cand := lo + g.rng.Float64()*(hi-lo)
			if d, good := splitSSEDec(col, y, idx, cand, parentSSE, cfg.MinLeaf); good && d > bestDec {
				bestDec, feat, thr, ok = d, f, cand, true
			}
			continue
		}
		// Exhaustive scan over sorted unique values via prefix sums.
		ps, sumT, sumSqT := g.sortedPairs(f, lo, hi)
		var sumL, sumSqL float64
		m := len(ps)
		for k := 0; k < m-1; k++ {
			p := ps[k]
			sumL += p.y
			sumSqL += p.y * p.y
			next := ps[k+1].x
			if p.x == next || k+1 < cfg.MinLeaf || m-k-1 < cfg.MinLeaf {
				continue
			}
			nl := float64(k + 1)
			nr := n - nl
			sseL := sumSqL - sumL*sumL/nl
			sumR := sumT - sumL
			sseR := (sumSqT - sumSqL) - sumR*sumR/nr
			d := parentSSE - sseL - sseR
			if d > bestDec {
				bestDec = d
				feat = f
				thr = (p.x + next) / 2
				ok = true
			}
		}
	}
	return feat, thr, bestDec, ok
}

// sortedPairs returns the node's (x, y) pairs for feature f ascending
// by x, exactly as sorting the node's idx list by x would order them,
// with the sums of y and y² over that sequence.
//
// The scan's sums depend only on that sequence of pairs, and the
// presorted column gives the same sequence whenever every run of equal
// x carries bit-equal y — always so when the only ties are bootstrap
// copies of one sample. Otherwise (distinct samples tied on x with
// different targets, or a NaN, which no comparison sort orders
// consistently) the pairs are rebuilt in idx order and sorted with
// slices.SortFunc, the same pdqsort that sort.Slice runs, so they land
// in the same order a per-node sort would have put them in.
func (g *grower) sortedPairs(f, lo, hi int) (ps []pair, sumY, sumSqY float64) {
	col, y := g.ds.cols[f], g.ds.y
	ps = g.pairs[:hi-lo]
	exact := true
	prevX, prevY := math.NaN(), uint64(0)
	for k, s := range g.sorted[f][lo:hi] {
		xv, yv := col[s], y[s]
		ps[k] = pair{xv, yv}
		sumY += yv
		sumSqY += yv * yv
		if xv == prevX && math.Float64bits(yv) != prevY {
			exact = false
		}
		prevX, prevY = xv, math.Float64bits(yv)
	}
	// The shared order puts NaNs first, so any NaN shows at the head.
	if exact && !math.IsNaN(ps[0].x) {
		return ps, sumY, sumSqY
	}
	g.t.resorts++
	for k, s := range g.idx[lo:hi] {
		ps[k] = pair{col[s], y[s]}
	}
	slices.SortFunc(ps, func(a, b pair) int {
		// Negative exactly when a.x < b.x: pdqsort asks nothing else.
		switch {
		case a.x < b.x:
			return -1
		case a.x > b.x:
			return 1
		}
		return 0
	})
	sumY, sumSqY = 0, 0
	for _, p := range ps {
		sumY += p.y
		sumSqY += p.y * p.y
	}
	return ps, sumY, sumSqY
}

// splitSSEDec evaluates one candidate threshold on feature column col.
func splitSSEDec(col, y []float64, idx []int32, thr, parentSSE float64, minLeaf int) (float64, bool) {
	var sumL, sumSqL, sumR, sumSqR float64
	var nl, nr float64
	for _, i := range idx {
		v := y[i]
		if col[i] <= thr {
			sumL += v
			sumSqL += v * v
			nl++
		} else {
			sumR += v
			sumSqR += v * v
			nr++
		}
	}
	if int(nl) < minLeaf || int(nr) < minLeaf {
		return 0, false
	}
	sseL := sumSqL - sumL*sumL/nl
	sseR := sumSqR - sumR*sumR/nr
	return parentSSE - sseL - sseR, true
}

// Predict returns the tree's prediction for a feature vector.
func (t *Tree) Predict(xr []float64) float64 {
	if len(xr) != t.dim {
		panic(fmt.Sprintf("forest: predict dim %d, tree trained on %d", len(xr), t.dim))
	}
	i := int32(0)
	for {
		nd := &t.nodes[i]
		if nd.feature < 0 {
			return nd.value
		}
		if xr[nd.feature] <= nd.threshold {
			i = nd.left
		} else {
			i = nd.right
		}
	}
}

// predictPath is Predict that also sets, in the bitset path, every
// feature tested on the way to the leaf.
func (t *Tree) predictPath(xr []float64, path []uint64) float64 {
	i := int32(0)
	for {
		nd := &t.nodes[i]
		if nd.feature < 0 {
			return nd.value
		}
		path[nd.feature/64] |= 1 << (nd.feature % 64)
		if xr[nd.feature] <= nd.threshold {
			i = nd.left
		} else {
			i = nd.right
		}
	}
}

// predictSwapped predicts row xr with the features in the bitset
// swapped read from row xp instead.
func (t *Tree) predictSwapped(xr, xp []float64, swapped []uint64) float64 {
	i := int32(0)
	for {
		nd := &t.nodes[i]
		if nd.feature < 0 {
			return nd.value
		}
		v := xr[nd.feature]
		if swapped[nd.feature/64]&(1<<(nd.feature%64)) != 0 {
			v = xp[nd.feature]
		}
		if v <= nd.threshold {
			i = nd.left
		} else {
			i = nd.right
		}
	}
}

// Depth returns the maximum depth of the tree (root = 0).
func (t *Tree) Depth() int {
	var walk func(i int32) int
	walk = func(i int32) int {
		nd := &t.nodes[i]
		if nd.feature < 0 {
			return 0
		}
		l, r := walk(nd.left), walk(nd.right)
		if l > r {
			return l + 1
		}
		return r + 1
	}
	return walk(0)
}

// Leaves returns the number of leaf nodes.
func (t *Tree) Leaves() int {
	c := 0
	for i := range t.nodes {
		if t.nodes[i].feature < 0 {
			c++
		}
	}
	return c
}
