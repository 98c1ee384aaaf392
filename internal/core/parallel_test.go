package core

import (
	"math"
	"math/rand/v2"
	"testing"

	"repro/internal/backend"
	"repro/internal/conf"
	"repro/internal/mapping"
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

// TestStepperInterleavings is tuners' interleaving check for ROBOTune:
// the selection sweep is handed out in random chunks and a random
// subset of the trials in flight is observed in random order after
// each Propose, against an objective that is a function of the
// configuration. A stepper that credits an observation to the wrong
// sample trains a different forest, so ROBOTune must propose exactly
// the sequence it proposes when driven in order — probes, sweep, init
// and BO alike.
func TestStepperInterleavings(t *testing.T) {
	space := conf.SparkSpace()
	outcome := func(p tuners.Proposal) backend.EvalRecord {
		h := 0.0
		for j, v := range space.Encode(p.Config) {
			h += v * float64(j%7+1)
		}
		sec := 50 + 400*(h-math.Floor(h))
		rec := backend.EvalRecord{Config: p.Config, Seconds: sec, Raw: sec, Completed: true}
		if math.Mod(10*h, 1) < 0.1 {
			rec.Completed, rec.Seconds = false, math.Max(p.Cap, 480)
		}
		return rec
	}
	// drive runs a fresh stepper to completion and returns its
	// proposals; a nil rng asks for everything and observes in order.
	drive := func(rng *rand.Rand) []tuners.Proposal {
		o := fastOptions()
		o.GenericSamples = 12
		o.Mapper = mapping.NewMapper(space, 4, 99)
		st := New(nil, o).Stepper(space, 6, 5, "Interleaved", "D1")
		var all, inflight []tuners.Proposal
		for steps := 0; !st.Done(); steps++ {
			if steps > 10000 {
				t.Fatal("stepper never finished")
			}
			n := 0
			if rng != nil {
				n = rng.IntN(5)
			}
			props := st.Propose(n)
			all = append(all, props...)
			inflight = append(inflight, props...)
			if len(inflight) == 0 {
				break
			}
			k, pick := len(inflight), 0
			if rng != nil {
				k = 1 + rng.IntN(len(inflight))
			}
			for ; k > 0; k-- {
				if rng != nil {
					pick = rng.IntN(len(inflight))
				}
				p := inflight[pick]
				inflight = append(inflight[:pick], inflight[pick+1:]...)
				st.Observe(p.Config, outcome(p))
			}
		}
		return all
	}
	want := drive(nil)
	if n := 4 + 12 + 6; len(want) != n {
		t.Fatalf("in-order run proposed %d trials, want %d probes, samples and tuning trials", len(want), n)
	}
	for round := 1; round <= 10; round++ {
		got := drive(rand.New(rand.NewPCG(uint64(round), 99)))
		same := len(got) == len(want)
		for i := 0; same && i < len(got); i++ {
			same = got[i].Config.Equal(want[i].Config) && got[i].Cap == want[i].Cap
		}
		if !same {
			t.Errorf("round %d: shuffled driving proposed a different sequence (%d proposals, in order %d)", round, len(got), len(want))
		}
	}
}
