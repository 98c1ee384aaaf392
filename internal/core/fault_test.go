package core

import (
	"context"
	"math"
	"strings"
	"sync"
	"testing"

	"repro/internal/backend"
	"repro/internal/conf"
	"repro/internal/sparksim"
	"repro/internal/tuners"
)

func faultyEvaluator(w sparksim.Workload, seed uint64) *sparksim.Evaluator {
	ev := newEvaluator(w, seed)
	ev.Faults = backend.DefaultFaultPlan()
	return ev
}

// TestTuneUnderFaultsCompletes is the headline acceptance test: with
// executor loss, stragglers, transient errors and spurious OOMs
// injected on TeraSort, ROBOTune must run its full budget, retry
// transients, and return a clean result — no panic, no NaN.
func TestTuneUnderFaultsCompletes(t *testing.T) {
	r := New(nil, fastOptions())
	ev := faultyEvaluator(sparksim.TeraSort(20), 3)
	res := r.Run(tuners.NewSession(ev, conf.SparkSpace(), tuners.Request{
		Budget: 40,
		Seed:   3,
		Retry:  tuners.RetryPolicy{MaxRetries: 2},
	}))

	if !res.Found {
		t.Fatal("no configuration completed under the moderate fault plan")
	}
	if len(res.Trace) != 40 {
		t.Fatalf("trace length %d, want the full budget of 40 trials", len(res.Trace))
	}
	for i, v := range res.Trace {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatalf("trace[%d] = %v", i, v)
		}
	}
	if math.IsNaN(res.BestSeconds) {
		t.Fatal("BestSeconds is NaN")
	}
	// The default plan injects ~12% transient errors; across 100
	// selection + 40+ tuning trials some must have been observed and
	// retried.
	if res.Failures.Transient == 0 {
		t.Error("no transient failures observed under a 12% transient plan")
	}
	if res.Failures.Retries == 0 {
		t.Error("transient failures present but nothing was retried")
	}
	if res.Cancelled {
		t.Error("result marked cancelled without a cancelled context")
	}
	if out := r.Explain(conf.SparkSpace(), res); strings.Contains(out, "NaN") {
		t.Errorf("Explain contains NaN:\n%s", out)
	} else if !strings.Contains(out, "robustness:") {
		t.Errorf("Explain misses the robustness line:\n%s", out)
	}
}

// TestTuneFaultPlanParity: same seed + same fault plan must be
// bit-identical across tuner worker counts and evaluation modes —
// the PR 1 determinism contract extended to faulty clusters.
func TestTuneFaultPlanParity(t *testing.T) {
	space := conf.SparkSpace()
	run := func(workers, parallel int) tuners.Result {
		o := fastOptions()
		o.Workers = workers
		o.Parallel = parallel
		o.GenericSamples = 30
		o.Forest.Trees = 20
		o.PermuteRepeats = 2
		r := New(nil, o)
		ev := faultyEvaluator(sparksim.TeraSort(20), 17)
		return r.Run(tuners.NewSession(ev, space, tuners.Request{Budget: 25, Seed: 17}))
	}
	serial := run(1, 1)
	if !serial.Found {
		t.Fatal("serial faulty campaign found nothing")
	}
	for _, w := range []int{2, 8} {
		got := run(w, 4)
		if got.BestSeconds != serial.BestSeconds || got.SearchCost != serial.SearchCost {
			t.Errorf("workers=%d: best %v / cost %v, serial %v / %v",
				w, got.BestSeconds, got.SearchCost, serial.BestSeconds, serial.SearchCost)
		}
		if len(got.Trace) != len(serial.Trace) {
			t.Fatalf("workers=%d: trace length %d vs %d", w, len(got.Trace), len(serial.Trace))
		}
		for i := range serial.Trace {
			if got.Trace[i] != serial.Trace[i] {
				t.Fatalf("workers=%d: trace[%d] = %v, serial %v", w, i, got.Trace[i], serial.Trace[i])
			}
		}
		if got.Failures != serial.Failures {
			t.Errorf("workers=%d: failure stats %+v, serial %+v", w, got.Failures, serial.Failures)
		}
		if !got.Best.Equal(serial.Best) {
			t.Errorf("workers=%d: best config differs", w)
		}
	}
}

// cancellingObjective wraps an evaluator and cancels the context
// after a fixed number of evaluations.
type cancellingObjective struct {
	*sparksim.Evaluator
	mu     sync.Mutex
	after  int
	count  int
	cancel context.CancelFunc
}

func (c *cancellingObjective) tick() {
	c.mu.Lock()
	c.count++
	if c.count == c.after {
		c.cancel()
	}
	c.mu.Unlock()
}

// EvaluateSpec keeps the cancel hook on the unified entry point the
// session actually routes through.
func (c *cancellingObjective) EvaluateSpec(cfg conf.Config, spec backend.EvalSpec) backend.EvalRecord {
	defer c.tick()
	return c.Evaluator.EvaluateSpec(cfg, spec)
}

// TestTuneCancelledReturnsBestSoFar: a context cancelled mid-session
// must stop the tuner within one evaluation and surface the
// best-so-far.
func TestTuneCancelledReturnsBestSoFar(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	ev := newEvaluator(sparksim.TeraSort(20), 5)
	obj := &cancellingObjective{Evaluator: ev, after: 70, cancel: cancel}
	r := New(nil, fastOptions())
	res := r.Run(tuners.NewSession(obj, conf.SparkSpace(), tuners.Request{
		Ctx:    ctx,
		Budget: 40,
		Seed:   5,
	}))

	if !res.Cancelled {
		t.Fatal("result not marked cancelled")
	}
	// 60 selection + 40 tuning trials were requested; cancellation at
	// evaluation 70 must stop the session within one more evaluation.
	total := obj.Evals()
	if total > 71 {
		t.Fatalf("session kept evaluating after cancel: %d evals", total)
	}
	if !res.Found {
		t.Fatal("best-so-far lost on cancellation")
	}
	if math.IsNaN(res.BestSeconds) {
		t.Fatal("BestSeconds is NaN after cancellation")
	}
	if out := r.Explain(conf.SparkSpace(), res); !strings.Contains(out, "cancelled") {
		t.Errorf("Explain misses the cancellation note:\n%s", out)
	}
}

// TestTunePreCancelledSession: a context cancelled before Run starts
// must come back immediately with a usable (empty) result.
func TestTunePreCancelledSession(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	ev := newEvaluator(sparksim.TeraSort(20), 6)
	r := New(nil, fastOptions())
	res := r.Run(tuners.NewSession(ev, conf.SparkSpace(), tuners.Request{Ctx: ctx, Budget: 40, Seed: 6}))
	if res.Found || !res.Cancelled {
		t.Fatalf("pre-cancelled session: %+v", res)
	}
	if ev.Evals() != 0 {
		t.Fatalf("pre-cancelled session charged %d evaluations", ev.Evals())
	}
}

// TestTuneAllFailuresGraceful: when every evaluation fails, ROBOTune
// must degrade gracefully — Found=false, non-NaN trace, clean
// Explain — instead of feeding junk into the GP or dividing by zero
// in the guard.
func TestTuneAllFailuresGraceful(t *testing.T) {
	obj := &tuners.FuncObjective{
		Fn:       func(c conf.Config) (float64, bool) { return 480, false },
		Workload: "doomed", Dataset: "d1",
	}
	r := New(nil, fastOptions())
	res := r.Run(tuners.NewSession(obj, conf.SparkSpace(), tuners.Request{Budget: 30, Seed: 7}))

	if res.Found {
		t.Fatal("Found=true with zero completed evaluations")
	}
	if len(res.Trace) != 30 {
		t.Fatalf("trace length %d, want 30", len(res.Trace))
	}
	for i, v := range res.Trace {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatalf("trace[%d] = %v", i, v)
		}
	}
	if res.Failures.Failed != 30+res.SelectionEvals {
		t.Errorf("Failed=%d, want every evaluation (%d)", res.Failures.Failed, 30+res.SelectionEvals)
	}
	out := r.Explain(conf.SparkSpace(), res)
	if strings.Contains(out, "NaN") {
		t.Errorf("Explain contains NaN:\n%s", out)
	}
	if !strings.Contains(out, "no configuration completed") {
		t.Errorf("Explain misses the all-failed note:\n%s", out)
	}
}
