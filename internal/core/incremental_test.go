package core

import (
	"testing"

	"repro/internal/conf"
	"repro/internal/sparksim"
	"repro/internal/tuners"
)

// TestTuneIncrementalSurrogateParity is the campaign-level guarantee
// for the GP fast path: a full tuning run must be bit-identical
// whether the BO engine extends its cached Cholesky factor between
// hyperparameter refits or refits the surrogate from scratch every
// iteration. The incremental path changes iteration cost from O(n³)
// to O(n²); it must never change a single suggested configuration.
func TestTuneIncrementalSurrogateParity(t *testing.T) {
	space := conf.SparkSpace()
	run := func(disable bool) tuners.Result {
		o := fastOptions()
		o.GenericSamples = 30
		o.Forest.Trees = 20
		o.PermuteRepeats = 2
		o.BO.DisableIncremental = disable
		r := New(nil, o)
		ev := newEvaluator(sparksim.TeraSort(20), 29)
		return r.Run(tuners.NewSession(ev, space, tuners.Request{Budget: 25, Seed: 29}))
	}
	inc := run(false)
	full := run(true)
	if !inc.Found || !full.Found {
		t.Fatal("campaign found nothing")
	}
	if inc.BestSeconds != full.BestSeconds || inc.SearchCost != full.SearchCost {
		t.Errorf("best %v / cost %v with incremental, %v / %v with full refits",
			inc.BestSeconds, inc.SearchCost, full.BestSeconds, full.SearchCost)
	}
	if len(inc.Trace) != len(full.Trace) {
		t.Fatalf("trace length %d with incremental, %d with full refits", len(inc.Trace), len(full.Trace))
	}
	for i := range full.Trace {
		if inc.Trace[i] != full.Trace[i] {
			t.Fatalf("trace[%d] = %v with incremental, %v with full refits", i, inc.Trace[i], full.Trace[i])
		}
	}
	if !inc.Best.Equal(full.Best) {
		t.Error("best config differs between incremental and full refits")
	}
}
