package sparksim

import (
	"testing"

	"repro/internal/backend"
	"repro/internal/conf"
)

func TestResourceCostObjectiveScalesWithFootprint(t *testing.T) {
	ev := NewEvaluator(PaperCluster(), KMeans(200), 1, 480)
	rc := NewResourceCostEvaluator(ev, 0.1)

	big := tunedConfig(t) // 20 executors x 8 cores
	small := tunedConfig(t).With(conf.ExecutorInstances, 5)

	recBig := rc.EvaluateSpec(big, backend.EvalSpec{})
	recSmall := rc.EvaluateSpec(small, backend.EvalSpec{})
	if !recBig.Completed || !recSmall.Completed {
		t.Fatalf("runs failed: %+v %+v", recBig, recSmall)
	}
	// The big layout is faster in wall-clock...
	if recBig.Raw >= recSmall.Raw {
		t.Fatalf("premise broken: big layout (%v) not faster than small (%v)", recBig.Raw, recSmall.Raw)
	}
	// ...but its objective reflects 4x the resources.
	ratio := recBig.Seconds / recBig.Raw / (recSmall.Seconds / recSmall.Raw)
	if ratio < 3.5 || ratio > 4.5 {
		t.Errorf("rate ratio = %v, want ~4 (4x executors)", ratio)
	}
}

func TestResourceCostEvaluatorKeepsTimeAccounting(t *testing.T) {
	ev := NewEvaluator(PaperCluster(), TeraSort(20), 2, 480)
	rc := NewResourceCostEvaluator(ev, 0.1)
	rec := rc.EvaluateSpec(tunedConfig(t), backend.EvalSpec{})
	// Search cost stays in simulated seconds (the paper's metric),
	// not in priced units.
	if rc.SearchCost() != min(rec.Raw, 480) {
		t.Errorf("search cost %v, want raw time %v", rc.SearchCost(), rec.Raw)
	}
	if rc.Evals() != 1 {
		t.Errorf("evals = %d", rc.Evals())
	}
	if rc.WorkloadName() != "TeraSort" {
		t.Errorf("identity lost: %q", rc.WorkloadName())
	}
}

func TestResourceCostInfeasiblePricedAtWorstCase(t *testing.T) {
	ev := NewEvaluator(PaperCluster(), TeraSort(20), 3, 480)
	rc := NewResourceCostEvaluator(ev, 0.1)
	bad := tunedConfig(t).
		With(conf.ExecutorMemory, 184320).
		With(conf.ExecutorMemoryOverhead, 8192).
		With(conf.OffHeapEnabled, 1).
		With(conf.OffHeapSize, 16384)
	rec := rc.EvaluateSpec(bad, backend.EvalSpec{})
	if !rec.Infeasible {
		t.Fatal("expected infeasible")
	}
	if rec.Seconds < 480*160 {
		t.Errorf("infeasible objective %v should be priced at full cluster", rec.Seconds)
	}
}

func TestMeasureCostConsistent(t *testing.T) {
	ev := NewEvaluator(PaperCluster(), TeraSort(20), 4, 480)
	rc := NewResourceCostEvaluator(ev, 0.1)
	c := tunedConfig(t)
	timeOnly := ev.Measure(c, 3, 9)
	priced := rc.MeasureCost(c, 3, 9)
	if priced <= timeOnly {
		t.Errorf("priced cost %v should exceed bare seconds %v", priced, timeOnly)
	}
	if rc.SearchCost() != 0 {
		t.Error("MeasureCost charged search cost")
	}
}

func min(a, b float64) float64 {
	if a < b {
		return a
	}
	return b
}
