package bo

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/sample"
)

// TestSparseQualityRegression is the sparse-vs-exact quality gate CI
// runs: on a small suite of smooth objectives, a sparse engine (tiny
// threshold so the approximation is actually exercised) at a matched
// evaluation budget must find a best value within noise of the exact
// engine's. It guards against the local-subset path silently wrecking
// search quality, not against tiny metric differences — the tolerance
// is the noise band observed across seeds.
func TestSparseQualityRegression(t *testing.T) {
	type objective struct {
		name string
		f    func(u []float64) float64
	}
	suite := []objective{
		{"sphere", func(u []float64) float64 {
			s := 0.0
			for j := range u {
				d := u[j] - 0.6
				s += d * d
			}
			return s
		}},
		{"rippled-bowl", func(u []float64) float64 {
			s := 0.0
			for j := range u {
				d := u[j] - 0.35
				s += d*d + 0.02*math.Sin(9*u[j])
			}
			return s
		}},
	}
	const (
		dim    = 4
		budget = 60
	)
	run := func(f func([]float64) float64, sparse bool) float64 {
		cfg := Config{Seed: 17, CandidatePool: 96, Starts: 1, GPRestarts: 1}
		if sparse {
			cfg.SparseThreshold = 24
		}
		e := New(dim, cfg)
		rng := sample.NewRNG(2)
		for _, u := range sample.LHS(8, dim, rng) {
			if err := e.Tell(u, f(u)); err != nil {
				panic(err)
			}
		}
		for i := 0; i < budget; i++ {
			u, err := e.Suggest()
			if err != nil {
				panic(err)
			}
			if err := e.Tell(u, f(u)); err != nil {
				panic(err)
			}
		}
		_, best, _ := e.Best()
		return best
	}
	for _, obj := range suite {
		t.Run(obj.name, func(t *testing.T) {
			exact := run(obj.f, false)
			sparse := run(obj.f, true)
			// Objectives are O(1) in scale with optimum near 0; 0.05
			// is well inside the run-to-run noise of the search itself.
			if sparse > exact+0.05 {
				t.Fatalf("sparse best %g regressed past exact best %g (+%g)",
					sparse, exact, sparse-exact)
			}
			t.Log(fmt.Sprintf("exact best %.5f, sparse best %.5f", exact, sparse))
		})
	}
}
