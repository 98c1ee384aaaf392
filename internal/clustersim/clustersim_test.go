package clustersim

import (
	"context"
	"math"
	"reflect"
	"testing"
	"time"

	"repro/internal/backend"
	"repro/internal/conf"
	"repro/internal/sample"
)

func mustWorkload(t *testing.T, name string, di int) Workload {
	t.Helper()
	w, err := WorkloadByName(name, di)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// TestCatalog checks that every catalog entry validates and completes
// under the default configuration at the default cap.
func TestCatalog(t *testing.T) {
	def := Space().Default()
	for _, name := range Families {
		for di := 0; di < 3; di++ {
			w := mustWorkload(t, name, di)
			if err := w.Validate(); err != nil {
				t.Fatal(err)
			}
			out := Run(w, def, sample.NewRNG(1), DefaultCapSeconds)
			if !out.Completed {
				t.Errorf("%s: default config did not complete (%.1fs)", w.ID(), out.Seconds)
			}
			if out.Seconds <= 0 {
				t.Errorf("%s: non-positive objective %.1f", w.ID(), out.Seconds)
			}
		}
	}
	if _, err := WorkloadByName("NoSuch", 0); err == nil {
		t.Fatal("unknown workload accepted")
	}
	if _, err := WorkloadByName("BatchETL", 3); err == nil {
		t.Fatal("out-of-range dataset accepted")
	}
}

// TestDeterminism: the same seed yields bit-identical evaluations, and
// evaluation order does not perturb later indices.
func TestDeterminism(t *testing.T) {
	w := mustWorkload(t, "CIBuild", 0)
	rng := sample.NewRNG(3)
	sp := Space()
	a := NewEvaluator(w, 99, 0)
	b := NewEvaluator(w, 99, 0)
	for i := 0; i < 6; i++ {
		c := sp.Decode(sample.Uniform(1, sp.Dim(), rng)[0])
		ra := a.EvaluateSpec(c, backend.EvalSpec{})
		rb := b.EvaluateSpec(c, backend.EvalSpec{})
		if !reflect.DeepEqual(ra, rb) {
			t.Fatalf("eval %d diverged: %+v vs %+v", i, ra, rb)
		}
	}
	if a.SearchCost() != b.SearchCost() {
		t.Fatalf("cost diverged: %v vs %v", a.SearchCost(), b.SearchCost())
	}
}

// TestConfigMatters: the objective responds to the configuration —
// distinct policies produce distinct outcomes on the same trace.
func TestConfigMatters(t *testing.T) {
	w := mustWorkload(t, "BatchETL", 1)
	sp := Space()
	rng := sample.NewRNG(17)
	seen := map[float64]bool{}
	for i := 0; i < 8; i++ {
		c := sp.Decode(sample.Uniform(1, sp.Dim(), rng)[0])
		out := Run(w, c, sample.NewRNG(5), DefaultCapSeconds)
		seen[out.Seconds] = true
	}
	if len(seen) < 3 {
		t.Fatalf("objective insensitive to configuration: %d distinct values in 8 samples", len(seen))
	}
}

// TestBatchMatchesSequential: batch dispatch commits the same history
// and cost as one-at-a-time evaluation.
func TestBatchMatchesSequential(t *testing.T) {
	w := mustWorkload(t, "WebServing", 0)
	sp := Space()
	rng := sample.NewRNG(7)
	seq := NewEvaluator(w, 4, 0)
	bat := NewEvaluator(w, 4, 0)
	var batchCfgs []conf.Config
	for i := 0; i < 5; i++ {
		batchCfgs = append(batchCfgs, sp.Decode(sample.Uniform(1, sp.Dim(), rng)[0]))
	}
	var seqRecs []backend.EvalRecord
	for _, c := range batchCfgs {
		seqRecs = append(seqRecs, seq.EvaluateSpec(c, backend.EvalSpec{}))
	}
	batRecs := bat.EvaluateSpecCtx(context.Background(), batchCfgs, backend.EvalSpec{Workers: 3})
	for i := range seqRecs {
		if !reflect.DeepEqual(seqRecs[i], batRecs[i]) {
			t.Fatalf("record %d: sequential %+v != batch %+v", i, seqRecs[i], batRecs[i])
		}
	}
	if seq.SearchCost() != bat.SearchCost() {
		t.Fatalf("cost: sequential %v != batch %v", seq.SearchCost(), bat.SearchCost())
	}
}

// TestFidelityProxy: a reduced-fidelity evaluation is cheaper than the
// full trace and does not disturb the stream of later evaluations.
func TestFidelityProxy(t *testing.T) {
	w := mustWorkload(t, "CIBuild", 2)
	sp := Space()
	def := sp.Default()

	small := ApplyFidelity(backend.Fidelity{InputScale: 0.25, StageFrac: 0.5}, w)
	if len(small.Jobs) >= len(w.Jobs) {
		t.Fatalf("fidelity did not shrink trace: %d vs %d", len(small.Jobs), len(w.Jobs))
	}
	if len(ApplyFidelity(backend.Fidelity{}, w).Jobs) != len(w.Jobs) {
		t.Fatal("full fidelity altered trace")
	}

	a := NewEvaluator(w, 11, 0)
	b := NewEvaluator(w, 11, 0)
	ra := a.EvaluateSpec(def, backend.EvalSpec{Fidelity: backend.Fidelity{InputScale: 0.25}})
	rb := b.EvaluateSpec(def, backend.EvalSpec{Fidelity: backend.Fidelity{InputScale: 0.25}})
	if !reflect.DeepEqual(ra, rb) {
		t.Fatalf("proxy eval nondeterministic: %+v vs %+v", ra, rb)
	}
	full := a.EvaluateSpec(def, backend.EvalSpec{})
	if !a.SupportsFidelity() {
		t.Fatal("evaluator must advertise fidelity support")
	}
	if ra.Seconds >= full.Seconds {
		t.Fatalf("quarter-scale proxy (%.1fs) not cheaper than full trace (%.1fs)", ra.Seconds, full.Seconds)
	}
	// A proxy at index 0 must leave index 1 exactly as a full run
	// would: streams are per-index, not shared.
	c := NewEvaluator(w, 11, 0)
	cFull0 := c.EvaluateSpec(def, backend.EvalSpec{})
	_ = cFull0
	cNext := c.EvaluateSpec(def, backend.EvalSpec{})
	bNext := b.EvaluateSpec(def, backend.EvalSpec{})
	if !reflect.DeepEqual(cNext, bNext) {
		t.Fatalf("fidelity at index 0 shifted index 1: %+v vs %+v", cNext, bNext)
	}
}

// TestFaultsDeterministic: fault injection stays reproducible and
// degrades (never improves) the measured objective distribution.
func TestFaultsDeterministic(t *testing.T) {
	w := mustWorkload(t, "BatchETL", 0)
	def := Space().Default()
	plan := backend.DefaultFaultPlan()
	plan.Seed = 123
	plan.StragglerProb = 0.5
	plan.ExecutorLossProb = 0.3

	a := NewEvaluator(w, 9, 0)
	a.Faults = plan
	b := NewEvaluator(w, 9, 0)
	b.Faults = plan
	clean := NewEvaluator(w, 9, 0)
	var faultSum, cleanSum float64
	for i := 0; i < 4; i++ {
		ra := a.EvaluateSpec(def, backend.EvalSpec{})
		rb := b.EvaluateSpec(def, backend.EvalSpec{})
		if !reflect.DeepEqual(ra, rb) {
			t.Fatalf("faulty eval %d diverged: %+v vs %+v", i, ra, rb)
		}
		faultSum += ra.Raw
		cleanSum += clean.EvaluateSpec(def, backend.EvalSpec{}).Raw
	}
	if faultSum < cleanSum {
		t.Fatalf("faults improved the objective: %.1f < %.1f", faultSum, cleanSum)
	}
}

// TestZeroPlanConsumesNoRandomness: a zero fault plan must leave every
// outcome exactly as the fault-free run — switching faults off never
// shifts the noise stream.
func TestZeroPlanConsumesNoRandomness(t *testing.T) {
	sp := Space()
	rng := sample.NewRNG(11)
	for _, name := range Families {
		w := mustWorkload(t, name, 0)
		for i := 0; i < 20; i++ {
			c := sp.Decode(sample.Uniform(1, sp.Dim(), rng)[0])
			a := Run(w, c, sample.NewRNG(42), DefaultCapSeconds)
			b := RunWithFaults(w, c, sample.NewRNG(42), DefaultCapSeconds, backend.FaultPlan{}, sample.NewRNG(7))
			if a != b {
				t.Fatalf("%s config %d: zero plan changed outcome: %+v vs %+v", w.ID(), i, a, b)
			}
		}
	}
}

// TestMeasure: quality measurement is fault-free, repeatable and does
// not charge search cost.
func TestMeasure(t *testing.T) {
	w := mustWorkload(t, "WebServing", 1)
	def := Space().Default()
	ev := NewEvaluator(w, 5, 0)
	ev.Faults = backend.DefaultFaultPlan()
	q1 := ev.Measure(def, 3, 99)
	q2 := ev.Measure(def, 3, 99)
	if q1 != q2 {
		t.Fatalf("Measure not repeatable: %v vs %v", q1, q2)
	}
	if ev.SearchCost() != 0 {
		t.Fatalf("Measure charged search cost %v", ev.SearchCost())
	}
	if q1 <= 0 || math.IsInf(q1, 0) {
		t.Fatalf("implausible quality %v", q1)
	}
}

// TestInfeasible: a pod that cannot fit on an empty node fails fast.
func TestInfeasible(t *testing.T) {
	w := mustWorkload(t, "MLTrain", 0)
	w.Jobs = append([]Job(nil), w.Jobs...)
	w.Jobs[0].MemGB = w.NodeMemGB * 2
	out := Run(w, Space().Default(), sample.NewRNG(1), DefaultCapSeconds)
	if !out.Infeasible {
		t.Fatalf("oversized pod not flagged infeasible: %+v", out)
	}
}

// TestStuckTraceReturnsCap: a one-node trace whose node is lost can
// never finish. It ends with the cap outcome, and an unbounded cap
// (which means 1e9 s) returns at once instead of ticking up to it.
func TestStuckTraceReturnsCap(t *testing.T) {
	w := mustWorkload(t, "BatchETL", 0)
	w.Nodes = 1
	plan := backend.FaultPlan{ExecutorLossProb: 1}
	def := Space().Default()
	for _, tc := range []struct{ cap, want float64 }{{math.Inf(1), 1e9}, {1e6, 1e6}} {
		done := make(chan backend.Outcome, 1)
		go func() { done <- RunWithFaults(w, def, sample.NewRNG(1), tc.cap, plan, sample.NewRNG(2)) }()
		select {
		case out := <-done:
			if want := (backend.Outcome{Seconds: tc.want}); out != want {
				t.Errorf("cap %v: outcome %+v, want %+v", tc.cap, out, want)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("cap %v: no outcome after 5 s", tc.cap)
		}
	}
}

// TestRunAllocationsBounded: one replay allocates its buffers and the
// per-job noise rows and nothing per scheduler tick, so the count
// stays under a constant plus the job count at every loop period, with
// preemption on or off.
func TestRunAllocationsBounded(t *testing.T) {
	sp := Space()
	for _, name := range []string{"BatchETL", "CIBuild"} {
		w := mustWorkload(t, name, 2)
		for _, tick := range []float64{0.1, 1, 10} {
			for _, preempt := range []float64{0, 1} {
				c := sp.Default().With(SchedInterval, tick).With(PreemptionEnabled, preempt)
				allocs := testing.AllocsPerRun(3, func() { Run(w, c, sample.NewRNG(1), DefaultCapSeconds) })
				if limit := float64(16 + len(w.Jobs)); allocs > limit {
					t.Errorf("%s tick %v preempt %v: %.0f allocations per run, want <= %.0f", w.ID(), tick, preempt, allocs, limit)
				}
			}
		}
	}
}
