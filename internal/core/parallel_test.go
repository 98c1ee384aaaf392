package core

import (
	"testing"

	"repro/internal/conf"
	"repro/internal/sparksim"
	"repro/internal/tuners"
)

// TestTuneWorkersParity is the end-to-end determinism contract: a full
// campaign (selection forest, permutation importance, GP fits,
// acquisition multistarts) must be bit-identical whether the tuner's
// internal math runs serially or on many goroutines. Every parallel
// path derives per-item RNGs from the seed and reduces in index order,
// so the worker count can never leak into the results.
func TestTuneWorkersParity(t *testing.T) {
	space := conf.SparkSpace()
	run := func(workers int) tuners.Result {
		o := fastOptions()
		o.Workers = workers
		o.GenericSamples = 30
		o.Forest.Trees = 20
		o.PermuteRepeats = 2
		r := New(nil, o)
		ev := newEvaluator(sparksim.TeraSort(20), 17)
		return r.Run(tuners.NewSession(ev, space, tuners.Request{Budget: 25, Seed: 17}))
	}
	serial := run(1)
	if !serial.Found {
		t.Fatal("serial campaign found nothing")
	}
	for _, w := range []int{2, 8} {
		got := run(w)
		if got.BestSeconds != serial.BestSeconds || got.SearchCost != serial.SearchCost {
			t.Errorf("workers=%d: best %v / cost %v, serial %v / %v",
				w, got.BestSeconds, got.SearchCost, serial.BestSeconds, serial.SearchCost)
		}
		if len(got.Trace) != len(serial.Trace) {
			t.Fatalf("workers=%d: trace length %d, serial %d", w, len(got.Trace), len(serial.Trace))
		}
		for i := range serial.Trace {
			if got.Trace[i] != serial.Trace[i] {
				t.Fatalf("workers=%d: trace[%d] = %v, serial %v", w, i, got.Trace[i], serial.Trace[i])
			}
		}
		if len(got.SelectedParams) != len(serial.SelectedParams) {
			t.Fatalf("workers=%d: selection %v, serial %v", w, got.SelectedParams, serial.SelectedParams)
		}
		for i := range serial.SelectedParams {
			if got.SelectedParams[i] != serial.SelectedParams[i] {
				t.Errorf("workers=%d: selected[%d] = %s, serial %s",
					w, i, got.SelectedParams[i], serial.SelectedParams[i])
			}
		}
		if !got.Best.Equal(serial.Best) {
			t.Errorf("workers=%d: best config differs from serial", w)
		}
	}
}

// TestWorkersPropagateThroughOptions asserts the single -workers knob
// reaches every layer unless a layer pins its own value.
func TestWorkersPropagateThroughOptions(t *testing.T) {
	o := Options{Workers: 6}.withDefaults()
	if o.Forest.Workers != 6 {
		t.Errorf("Forest.Workers = %d, want 6", o.Forest.Workers)
	}
	if o.BO.Workers != 6 {
		t.Errorf("BO.Workers = %d, want 6", o.BO.Workers)
	}
	o2 := Options{Workers: 6}
	o2.Forest.Trees = 10
	o2.Forest.Workers = 2
	o2 = o2.withDefaults()
	if o2.Forest.Workers != 2 {
		t.Errorf("explicit Forest.Workers overridden: %d", o2.Forest.Workers)
	}
}
