package bo

import (
	"testing"
)

// TestIncrementalMatchesFullRefit runs the same campaign through two
// engines — one extending the cached Cholesky factor between
// hyperparameter refits, one refitting from scratch every iteration —
// and requires bit-identical suggestions, gains, and surrogate state
// at every step. This is the contract that lets the incremental path
// be the default: it changes the cost of an iteration, never its
// result.
func TestIncrementalMatchesFullRefit(t *testing.T) {
	run := func(disable bool) ([][]float64, []float64, float64) {
		e := New(2, Config{Seed: 5, CandidatePool: 64, Starts: 1, DisableIncremental: disable})
		seedEngine(e, 6, 5)
		var xs [][]float64
		// Long enough to cross two hyperparameter refits (every 5
		// observations), so the run exercises full fit → extend ×4 →
		// full fit → extend again.
		for i := 0; i < 12; i++ {
			x, err := e.Suggest()
			if err != nil {
				t.Fatal(err)
			}
			e.Tell(x, quadratic(x))
			xs = append(xs, x)
		}
		g, err := e.Surrogate()
		if err != nil {
			t.Fatal(err)
		}
		return xs, e.Gains(), g.LogMarginalLikelihood()
	}

	incXs, incGains, incLML := run(false)
	fullXs, fullGains, fullLML := run(true)

	for i := range fullXs {
		for j := range fullXs[i] {
			if incXs[i][j] != fullXs[i][j] {
				t.Errorf("suggestion %d differs: incremental %v, full %v", i, incXs[i], fullXs[i])
			}
		}
	}
	for i := range fullGains {
		if incGains[i] != fullGains[i] {
			t.Errorf("gain %d differs: incremental %v, full %v", i, incGains[i], fullGains[i])
		}
	}
	if incLML != fullLML {
		t.Errorf("final surrogate LML differs: incremental %v, full %v", incLML, fullLML)
	}
}

// TestIncrementalBatchSuggestParity: the constant-liar batch loop
// (fork + lie-Tell + re-suggest) must produce the same batch whether
// the fork extends the shared GP or refits from scratch.
func TestIncrementalBatchSuggestParity(t *testing.T) {
	build := func(disable bool) *Engine {
		e := New(2, Config{Seed: 8, CandidatePool: 64, Starts: 1, DisableIncremental: disable})
		seedEngine(e, 8, 8)
		// Advance past a hyper refit so the forks start inside the
		// reuse window with a cached surrogate.
		for i := 0; i < 3; i++ {
			x, err := e.Suggest()
			if err != nil {
				t.Fatal(err)
			}
			e.Tell(x, quadratic(x))
		}
		return e
	}
	inc, err := build(false).BatchSuggest(4)
	if err != nil {
		t.Fatal(err)
	}
	full, err := build(true).BatchSuggest(4)
	if err != nil {
		t.Fatal(err)
	}
	if len(inc) != len(full) {
		t.Fatalf("batch sizes differ: %d vs %d", len(inc), len(full))
	}
	for i := range full {
		for j := range full[i] {
			if inc[i][j] != full[i][j] {
				t.Errorf("batch point %d differs: incremental %v, full %v", i, inc[i], full[i])
			}
		}
	}
}

// TestSurrogateExtendsBetweenRefits asserts the mechanism itself: in
// the hyperparameter-reuse window the engine keeps the same GP lineage
// (extends rather than refits), and fitting counts as refit only every
// hyperRefitEvery observations.
func TestSurrogateExtendsBetweenRefits(t *testing.T) {
	e := New(2, Config{Seed: 3})
	seedEngine(e, 6, 3)
	g0, err := e.Surrogate()
	if err != nil {
		t.Fatal(err)
	}
	// Inside the reuse window the extended surrogate keeps the exact
	// fitted hyperparameters.
	e.Tell([]float64{0.25, 0.75}, quadratic([]float64{0.25, 0.75}))
	g1, err := e.Surrogate()
	if err != nil {
		t.Fatal(err)
	}
	if g1 == g0 {
		t.Fatal("surrogate not refreshed after Tell")
	}
	if g1.Params() != g0.Params() {
		t.Fatal("extension changed hyperparameters inside the reuse window")
	}
	if g1.N() != g0.N()+1 {
		t.Fatalf("extended surrogate has %d observations, want %d", g1.N(), g0.N()+1)
	}
	// A cached surrogate is returned as-is when nothing changed.
	g2, err := e.Surrogate()
	if err != nil {
		t.Fatal(err)
	}
	if g2 != g1 {
		t.Fatal("unchanged engine refit its surrogate")
	}
}

// TestForkSharesSurrogate: forking must not drop the fitted GP — the
// fork serves the identical posterior without refitting, and its
// Tells leave the parent's surrogate untouched.
func TestForkSharesSurrogate(t *testing.T) {
	e := New(2, Config{Seed: 4})
	seedEngine(e, 6, 4)
	g, err := e.Surrogate()
	if err != nil {
		t.Fatal(err)
	}
	f := e.Fork()
	fg, err := f.Surrogate()
	if err != nil {
		t.Fatal(err)
	}
	if fg != g {
		t.Fatal("fork refit instead of sharing the immutable surrogate")
	}
	f.Tell([]float64{0.5, 0.5}, 0.1)
	if _, err := f.Surrogate(); err != nil {
		t.Fatal(err)
	}
	pg, err := e.Surrogate()
	if err != nil {
		t.Fatal(err)
	}
	if pg != g {
		t.Fatal("fork's Tell invalidated the parent surrogate")
	}
}
