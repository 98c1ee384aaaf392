package core

// Golden pin for the steppers spark_parity_golden.json leaves out:
// BestConfig over several RBS rounds, Gunther, successive halving,
// CMA-ES, random search, and ROBOTune with a workload Mapper (so its
// probe phase runs and, in the second session, hands over a mapped
// selection). Every scenario runs under a fault plan, so failed and
// capped runs feed the tuners' ranking keys. The same rule holds as
// for TestSparkBackendParityGolden: regenerating the file
// (ROBOTUNE_UPDATE_GOLDEN=1) is only legitimate in a change that
// deliberately alters tuning behavior.

import (
	"testing"

	"repro/internal/conf"
	"repro/internal/mapping"
	"repro/internal/sparksim"
	"repro/internal/tuners"
)

func TestStepperParityGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("full tuning runs; skipped in -short mode")
	}
	space := conf.SparkSpace()
	got := map[string]paritySnapshot{}
	// run tunes one session of workload w (dataset index ds) under a
	// default fault plan and records its snapshot under key.
	run := func(key string, tn tuners.Tuner, w sparksim.Workload, budget int, seed uint64) {
		ev := sparksim.NewEvaluator(sparksim.PaperCluster(), w, seed, 480)
		plan := sparksim.DefaultFaultPlan()
		plan.Seed = seed + 1
		ev.Faults = plan
		res := tn.Run(tuners.NewSession(ev, space, tuners.Request{Budget: budget, Seed: seed}))
		got[key] = snapshotOf(res, ev, seed*31+7)
	}

	run("bestconfig-rbs", tuners.BestConfig{RoundSize: 8}, sparksim.TeraSort(30), 40, 11)
	run("gunther", tuners.Gunther{}, sparksim.KMeans(200), 40, 12)
	run("successive-halving", tuners.SuccessiveHalving{}, sparksim.PageRank(5), 40, 13)
	run("cmaes", tuners.CMAES{}, sparksim.LogisticRegression(100), 40, 14)
	run("random-search", tuners.RandomSearch{}, sparksim.ConnectedComponents(5), 20, 15)

	// ROBOTune with a Mapper: the first session probes, finds nothing
	// to map to and runs the selection sweep; the second (a renamed
	// PageRank, so a fresh cache key) probes and inherits the first
	// session's selection.
	opts := fastOptions()
	opts.GenericSamples = 30
	opts.Mapper = mapping.NewMapper(space, 8, 99)
	opts.MapThreshold = 0.8
	r := New(nil, opts)
	run("robotune-mapper-probe", r, sparksim.PageRank(5), 20, 16)
	renamed := sparksim.PageRank(7.5)
	renamed.Name = "WebGraphRank"
	run("robotune-mapper-mapped", r, renamed, 20, 17)
	if s := got["robotune-mapper-mapped"]; s.SelectionEvals != opts.Mapper.ProbeCount() {
		t.Errorf("mapped session spent %d selection evals, want only the %d probes", s.SelectionEvals, opts.Mapper.ProbeCount())
	}

	checkGolden(t, "stepper_parity_golden.json", got)
}
