package experiments

import (
	"testing"
)

// TestMultiFidelityShape checks the comparison machinery itself:
// every row carries both tuners' numbers, BOHB actually ran proxy
// trials, and the run is deterministic.
func TestMultiFidelityShape(t *testing.T) {
	cfg := tinyConfig()
	rows := RunMultiFidelity(cfg, []string{"KMeans"})
	if len(rows) != 1 {
		t.Fatalf("rows = %d, want 1", len(rows))
	}
	r := rows[0]
	if r.RoboBest <= 0 || r.BOHBBest <= 0 || r.RoboCost <= 0 || r.BOHBCost <= 0 {
		t.Fatalf("non-positive metrics: %+v", r)
	}
	if r.BOHBProxyEvals == 0 {
		t.Fatalf("BOHB ran no reduced-fidelity trials: %+v", r)
	}
	if r.BOHBProxyEvals >= r.BOHBEvals {
		t.Fatalf("every BOHB trial was a proxy: %+v", r)
	}
	again := RunMultiFidelity(cfg, []string{"KMeans"})
	if again[0] != r {
		t.Fatalf("not deterministic: %+v vs %+v", again[0], r)
	}
}

// TestMultiFidelityQualityRegression is the CI gate behind the
// headline claim: on at least two of the three benchmark workloads,
// BOHB's final configuration must be within 5% of ROBOTune's while
// spending at most half the full-fidelity simulated seconds. The run
// is fully seeded, so a failure is a behavior change, not noise.
func TestMultiFidelityQualityRegression(t *testing.T) {
	cfg := Config{Seed: 1, Budget: 40, Repeats: 1, MeasureReps: 2, Fast: true}
	rows := RunMultiFidelity(cfg, nil)
	if len(rows) != len(MultiFidelityWorkloads) {
		t.Fatalf("rows = %d, want %d", len(rows), len(MultiFidelityWorkloads))
	}
	passed := 0
	for _, r := range rows {
		t.Logf("%s: best %.1fs vs %.1fs, reached=%v at %.0fs of robotune's %.0fs (ratio %.3f), pass=%v",
			r.Workload, r.BOHBBest, r.RoboBest, r.Reached, r.CostToReach, r.RoboCost, r.CostRatio, r.Pass)
		if r.Pass {
			passed++
		}
	}
	if passed < 2 {
		t.Fatalf("only %d/%d workloads meet the 5%%-quality / 50%%-cost targets:\n%s",
			passed, len(rows), RenderMultiFidelity(rows))
	}
}

// TestMultiFidelityNoSurrogateFallbacks: SuggestOr turns a failed fit
// or a panic in the acquisition search into a uniform point, so a
// broken surrogate or gradient could show only as worse tuning. At the
// gate's scale (seed 3), neither ROBOTune nor BOHB falls back once on
// any of the three workloads.
func TestMultiFidelityNoSurrogateFallbacks(t *testing.T) {
	cfg := Config{Seed: 3, Budget: 40, Repeats: 1, MeasureReps: 2, Fast: true}
	for _, r := range RunMultiFidelity(cfg, nil) {
		if r.RoboFallbacks != 0 || r.BOHBFallbacks != 0 {
			t.Errorf("%s: %d ROBOTune and %d BOHB iterations fell back to a uniform draw",
				r.Workload, r.RoboFallbacks, r.BOHBFallbacks)
		}
	}
}
