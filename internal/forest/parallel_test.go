package forest

import (
	"testing"

	"repro/internal/sample"
)

// TestTrainWorkersParity asserts the determinism contract of parallel
// training: workers=1 and workers=8 grow the bit-identical forest
// under the same seed (every tree draws from its own split-off RNG,
// so scheduling cannot change the ensemble).
func TestTrainWorkersParity(t *testing.T) {
	x, y := synth(150, 8, 41, 0.3)
	train := func(workers int, extra bool) *Forest {
		cfg := Config{Trees: 40, Bootstrap: !extra, Seed: 17, Workers: workers}
		if extra {
			cfg.Tree.Extra = true
		}
		return Train(x, y, cfg)
	}
	probes, _ := synth(30, 8, 42, 0.3)
	for _, extra := range []bool{false, true} {
		serial := train(1, extra)
		for _, w := range []int{2, 8} {
			parF := train(w, extra)
			for i, p := range probes {
				if got, want := parF.Predict(p), serial.Predict(p); got != want {
					t.Fatalf("extra=%v workers=%d: probe %d predicts %v, serial %v", extra, w, i, got, want)
				}
			}
			for ti := range serial.trees {
				if len(parF.trees[ti].nodes) != len(serial.trees[ti].nodes) {
					t.Fatalf("extra=%v workers=%d: tree %d has %d nodes, serial %d",
						extra, w, ti, len(parF.trees[ti].nodes), len(serial.trees[ti].nodes))
				}
			}
		}
	}
	// OOB scoring must agree too (the in-bag masks are part of the
	// contract, not just the trees).
	if a, b := train(1, false).OOBR2(), train(8, false).OOBR2(); a != b {
		t.Errorf("OOB R² differs: serial %v, workers=8 %v", a, b)
	}
}

// TestTrainAllocations guards the selection-sized training run (100
// trees on 100 samples × 44 features) against per-node buffers creeping
// back: growth reuses one set of per-tree buffers, so a forest costs
// about 20 allocations per tree, not one per (node, feature) sort.
func TestTrainAllocations(t *testing.T) {
	x := sample.LHS(100, 44, sample.NewRNG(3))
	y := make([]float64, len(x))
	for i, u := range x {
		y[i] = u[0]*100 + u[1]*u[2]*50
	}
	cfg := RFDefaults()
	allocs := testing.AllocsPerRun(3, func() { Train(x, y, cfg) })
	if allocs > 40000 {
		t.Errorf("Train allocates %.0f times per forest, want <= 40000", allocs)
	}
}

// TestPermutationImportanceWorkersParity asserts that importance drops
// are bit-identical for any worker count: each (group, repeat) cell is
// seeded independently and the reduction sums repeats in order.
func TestPermutationImportanceWorkersParity(t *testing.T) {
	x, y := synth(200, 8, 43, 0.3)
	f := Train(x, y, Config{Trees: 40, Bootstrap: true, Seed: 19, Workers: 1})
	groups := [][]int{{0}, {1, 2}, {3}, {4, 5, 6}, {7}}
	serial := f.PermutationImportance(groups, 4, 23, 1)
	for _, w := range []int{2, 8} {
		got := f.PermutationImportance(groups, 4, 23, w)
		for g := range serial {
			if got[g].Drop != serial[g].Drop {
				t.Errorf("workers=%d: group %d drop %v, serial %v", w, g, got[g].Drop, serial[g].Drop)
			}
		}
	}
}

// TestPermutationImportanceSeeded asserts the seed is the only source
// of randomness: same seed → same drops, different seed → different
// permutations (and with high probability different drops).
func TestPermutationImportanceSeeded(t *testing.T) {
	x, y := synth(150, 6, 44, 0.5)
	f := Train(x, y, Config{Trees: 30, Bootstrap: true, Seed: 3})
	groups := [][]int{{0}, {1}, {2}}
	a := f.PermutationImportance(groups, 3, 100, 0)
	b := f.PermutationImportance(groups, 3, 100, 0)
	for g := range a {
		if a[g].Drop != b[g].Drop {
			t.Errorf("same seed: group %d drops differ (%v vs %v)", g, a[g].Drop, b[g].Drop)
		}
	}
	c := f.PermutationImportance(groups, 3, 101, 0)
	same := true
	for g := range a {
		if a[g].Drop != c[g].Drop {
			same = false
		}
	}
	if same {
		t.Error("different seeds produced identical drops for every group")
	}
}
