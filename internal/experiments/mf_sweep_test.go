package experiments

import (
	"os"
	"testing"
)

// TestMFSweep reruns the multi-fidelity comparison at the gate's scale
// across seeds 1–8, logs every row and one verdict line per seed, and
// counts the seeds that meet the gate's criterion (at least 2 of 3
// workloads pass). It shows how representative the pinned gate seed
// is, and gates on the counts measured before the acquisition search
// got analytic gradients: the criterion met on at least 3 of 8 seeds
// and at least 12 of 24 rows passing. It takes about half a minute, so
// it runs only with MF_SWEEP=1 (a CI step of its own).
func TestMFSweep(t *testing.T) {
	if os.Getenv("MF_SWEEP") == "" {
		t.Skip("set MF_SWEEP=1")
	}
	const seeds = 8
	met, rowsPassed := 0, 0
	for seed := uint64(1); seed <= seeds; seed++ {
		cfg := Config{Seed: seed, Budget: 40, Repeats: 1, MeasureReps: 2, Fast: true}
		rows := RunMultiFidelity(cfg, nil)
		passed := 0
		for _, r := range rows {
			if r.Pass {
				passed++
			}
			t.Logf("seed %d %s: best %.1f vs %.1f reached=%v ratio %.3f pass=%v",
				seed, r.Workload, r.BOHBBest, r.RoboBest, r.Reached, r.CostRatio, r.Pass)
		}
		verdict := "criterion not met"
		if passed >= 2 {
			verdict = "criterion met"
			met++
		}
		rowsPassed += passed
		t.Logf("seed %d: %d/%d workloads pass, %s", seed, passed, len(rows), verdict)
	}
	t.Logf("criterion met on %d of %d seeds (%d of %d rows pass)",
		met, seeds, rowsPassed, seeds*len(MultiFidelityWorkloads))
	if met < 3 || rowsPassed < 12 {
		t.Errorf("criterion met on %d seeds with %d rows passing; want at least 3 seeds and 12 rows", met, rowsPassed)
	}
}
