package sparksim

import (
	"context"
	"strings"
	"testing"

	"repro/internal/backend"
	"repro/internal/conf"
	"repro/internal/sample"
)

// sampleConfigs draws n valid configurations for fault tests.
func sampleConfigs(n int, seed uint64) []conf.Config {
	sp := conf.SparkSpace()
	rng := sample.NewRNG(seed)
	cfgs := make([]conf.Config, n)
	u := make([]float64, sp.Dim())
	for i := range cfgs {
		for j := range u {
			u[j] = rng.Float64()
		}
		cfgs[i] = sp.Decode(u)
	}
	return cfgs
}

// recEq compares the observation payload of two records (Config is
// not comparable; identical indices imply identical configs here).
func recEq(a, b backend.EvalRecord) bool {
	return a.Seconds == b.Seconds && a.Raw == b.Raw &&
		a.Completed == b.Completed && a.OOM == b.OOM &&
		a.Infeasible == b.Infeasible && a.Transient == b.Transient &&
		a.Skipped == b.Skipped
}

// TestZeroPlanConsumesNoRandomness: a disabled plan must leave runs
// bit-identical to plain Run — same noise stream, same outcome.
func TestZeroPlanConsumesNoRandomness(t *testing.T) {
	cl := PaperCluster()
	w := TeraSort(300)
	for _, c := range sampleConfigs(20, 11) {
		a := Run(cl, w, c, sample.NewRNG(42), 480)
		b := RunWithFaults(cl, w, c, sample.NewRNG(42), 480, backend.FaultPlan{}, sample.NewRNG(7))
		if a.Seconds != b.Seconds || a.Completed != b.Completed || a.OOM != b.OOM {
			t.Fatalf("zero plan changed outcome: %+v vs %+v", a, b)
		}
	}
}

// TestFaultPlanDeterministic: the same (seed, plan) must reproduce the
// same fault sequence; a different plan seed must not.
func TestFaultPlanDeterministic(t *testing.T) {
	cl := PaperCluster()
	w := TeraSort(300)
	plan := DefaultFaultPlan()
	cfgs := sampleConfigs(40, 3)

	runAll := func(planSeed uint64) []backend.EvalRecord {
		p := plan
		p.Seed = planSeed
		ev := NewEvaluator(cl, w, 9, 480)
		ev.Faults = p
		recs := make([]backend.EvalRecord, len(cfgs))
		for i, c := range cfgs {
			recs[i] = ev.EvaluateSpec(c, backend.EvalSpec{})
		}
		return recs
	}
	a, b := runAll(5), runAll(5)
	for i := range a {
		if !recEq(a[i], b[i]) {
			t.Fatalf("record %d differs under identical plan: %+v vs %+v", i, a[i], b[i])
		}
	}
	c := runAll(6)
	same := true
	for i := range a {
		if !recEq(a[i], c[i]) {
			same = false
			break
		}
	}
	if same {
		t.Fatal("changing the fault seed left every record identical")
	}
}

// TestFaultKindsAllStrike: under aggressive probabilities every fault
// class must show up in the event logs across a batch of runs.
func TestFaultKindsAllStrike(t *testing.T) {
	cl := PaperCluster()
	w := TeraSort(300)
	plan := backend.FaultPlan{
		ExecutorLossProb: 0.5,
		StragglerProb:    0.3,
		StragglerFactor:  3,
		TransientErrProb: 0.3,
		SpuriousOOMProb:  0.3,
		Seed:             1,
	}
	seen := map[string]bool{}
	var transients, ooms int
	for i, c := range sampleConfigs(60, 17) {
		rng := sample.NewRNG(100 + uint64(i))
		frng := sample.NewRNG(900 + uint64(i))
		out := RunWithFaults(cl, w, c, rng, 480, plan, frng)
		for _, ev := range out.Events {
			for _, kind := range []string{"straggler amplification", "executor lost", "spurious OOM", "transient failure"} {
				if strings.Contains(ev, kind) {
					seen[kind] = true
				}
			}
		}
		if out.Transient {
			transients++
			if out.Completed {
				t.Fatalf("transient run reported Completed: %+v", out)
			}
		}
		if out.OOM {
			ooms++
		}
	}
	for _, kind := range []string{"straggler amplification", "executor lost", "spurious OOM", "transient failure"} {
		if !seen[kind] {
			t.Errorf("fault kind %q never observed in 60 runs", kind)
		}
	}
	if transients == 0 || ooms == 0 {
		t.Errorf("want transient and OOM outcomes, got %d transient / %d OOM", transients, ooms)
	}
}

// TestFaultBatchSequentialParity: with faults on, a parallel batch
// must commit bit-identical records to sequential evaluation.
func TestFaultBatchSequentialParity(t *testing.T) {
	cl := PaperCluster()
	w := TeraSort(300)
	cfgs := sampleConfigs(24, 23)

	seq := NewEvaluator(cl, w, 77, 480)
	seq.Faults = DefaultFaultPlan()
	a := make([]backend.EvalRecord, len(cfgs))
	for i, c := range cfgs {
		a[i] = seq.EvaluateSpec(c, backend.EvalSpec{})
	}
	par := NewEvaluator(cl, w, 77, 480)
	par.Faults = DefaultFaultPlan()
	b := par.EvaluateSpecCtx(context.Background(), cfgs, backend.EvalSpec{Workers: 4})
	if len(a) != len(b) {
		t.Fatalf("record count %d vs %d", len(a), len(b))
	}
	for i := range a {
		if !recEq(a[i], b[i]) {
			t.Fatalf("record %d: sequential %+v vs batch %+v", i, a[i], b[i])
		}
	}
	if seq.SearchCost() != par.SearchCost() {
		t.Fatalf("search cost %v vs %v", seq.SearchCost(), par.SearchCost())
	}
}

// TestEvaluateBatchCtxPreCancelled: a cancelled context must skip the
// whole batch — no observations, no cost, no charged evaluations.
func TestEvaluateBatchCtxPreCancelled(t *testing.T) {
	ev := NewEvaluator(PaperCluster(), TeraSort(300), 5, 480)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	recs := ev.EvaluateSpecCtx(ctx, sampleConfigs(8, 2), backend.EvalSpec{Workers: 4})
	if len(recs) != 8 {
		t.Fatalf("want 8 records, got %d", len(recs))
	}
	for i, r := range recs {
		if !r.Skipped || r.Completed || r.Seconds != 0 {
			t.Fatalf("record %d not cleanly skipped: %+v", i, r)
		}
	}
	if ev.Evals() != 0 || ev.SearchCost() != 0 {
		t.Fatalf("cancelled batch charged work: evals=%d cost=%v", ev.Evals(), ev.SearchCost())
	}
}

// TestExecutorLossShrinksLayout: losing an executor must reduce the
// slot count for the remaining stages, never below one executor.
func TestExecutorLossShrinksLayout(t *testing.T) {
	cl := PaperCluster()
	c := conf.SparkSpace().Default()
	ex, ok := PackExecutors(cl, c)
	if !ok {
		t.Fatal("default config must be feasible")
	}
	e := &engine{cl: cl, ex: ex}
	want := ex.Count - 1
	e.loseExecutor()
	if e.ex.Count != want || e.ex.TotalSlots != want*ex.SlotsEach {
		t.Fatalf("after loss: %+v, want count %d", e.ex, want)
	}
	e.ex.Count = 1
	e.loseExecutor()
	if e.ex.Count != 1 {
		t.Fatal("loseExecutor went below one executor")
	}
}
