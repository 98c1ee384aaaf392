package sparksim

import (
	"math"
	"strings"
	"testing"

	"repro/internal/backend"
	"repro/internal/conf"
	"repro/internal/sample"
)

func TestExtraWorkloadsRunUnderTunedConfig(t *testing.T) {
	cl := PaperCluster()
	c := tunedConfig(t)
	for _, w := range ExtraWorkloads() {
		out := Run(cl, w, c, sample.NewRNG(3), math.Inf(1))
		if !out.Completed {
			t.Errorf("%s did not complete under tuned config: %+v", w.ID(), out)
			continue
		}
		if out.Seconds < 5 || out.Seconds > 2500 {
			t.Errorf("%s implausible duration %v", w.ID(), out.Seconds)
		}
	}
}

func TestTriangleCountIsMemoryHungry(t *testing.T) {
	// The wedge join should OOM under the Spark default like the
	// paper's graph workloads do.
	cl := PaperCluster()
	def := conf.SparkSpace().Default()
	out := Run(cl, TriangleCount(3), def, sample.NewRNG(4), math.Inf(1))
	if !out.OOM {
		t.Errorf("TriangleCount under default should OOM, got %+v", out)
	}
}

func TestWordCountIsScanBound(t *testing.T) {
	// Doubling input should roughly double tuned execution time for a
	// scan-bound job on a saturated cluster (unlike cached iterative
	// jobs).
	cl := PaperCluster()
	c := tunedConfig(t).With(conf.ExecutorInstances, 5)
	small := Run(cl, WordCount(30), c, sample.NewRNG(5), math.Inf(1))
	large := Run(cl, WordCount(60), c, sample.NewRNG(5), math.Inf(1))
	ratio := large.Seconds / small.Seconds
	if ratio < 1.5 || ratio > 2.6 {
		t.Errorf("WordCount 60GB/30GB time ratio %v, want ~2", ratio)
	}
}

func TestSQLAggregationBroadcastSensitivity(t *testing.T) {
	// The broadcast dimension table makes broadcast compression and
	// block size matter more than for the paper workloads.
	cl := PaperCluster()
	base := tunedConfig(t)
	on := Run(cl, SQLAggregation(60), base.With(conf.BroadcastCompress, 1), sample.NewRNG(6), math.Inf(1))
	off := Run(cl, SQLAggregation(60), base.With(conf.BroadcastCompress, 0), sample.NewRNG(6), math.Inf(1))
	if on.Seconds == off.Seconds {
		t.Error("broadcast compression has no effect on SQLAggregation")
	}
}

func TestExtraWorkloadsTunable(t *testing.T) {
	// Integration: ROBOTune-style subspace search is exercised in
	// core tests; here just confirm random search finds completing
	// configurations so the workloads are usable objectives.
	cl := PaperCluster()
	space := conf.SparkSpace()
	for _, w := range ExtraWorkloads() {
		ev := NewEvaluator(cl, w, 9, 480)
		found := false
		for i, u := range sample.LHS(25, space.Dim(), sample.NewRNG(9)) {
			_ = i
			if rec := ev.EvaluateSpec(space.Decode(u), backend.EvalSpec{}); rec.Completed {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("%s: no completing config in 25 LHS samples", w.ID())
		}
	}
}

func TestDescribeAndValidate(t *testing.T) {
	for _, w := range append(ExtraWorkloads(), PageRank(5), KMeans(200), TeraSort(20)) {
		if err := w.Validate(); err != nil {
			t.Errorf("%s: %v", w.ID(), err)
		}
		out := w.Describe()
		if out == "" || !containsAll(out, w.Name, "stage", "source") {
			t.Errorf("%s: bad Describe output", w.ID())
		}
		if w.TotalInputMB() <= 0 {
			t.Errorf("%s: TotalInputMB = %v", w.ID(), w.TotalInputMB())
		}
	}
}

func containsAll(s string, subs ...string) bool {
	for _, sub := range subs {
		if !strings.Contains(s, sub) {
			return false
		}
	}
	return true
}

func TestValidateCatchesBadPlans(t *testing.T) {
	bad := []Workload{
		{Name: "empty"},
		{Name: "noInput", Stages: []Stage{{Name: "a", InputMB: 0, ExpandFactor: 1}}},
		{Name: "noExpand", Stages: []Stage{{Name: "a", InputMB: 10}}},
		{Name: "negKnob", Stages: []Stage{{Name: "a", InputMB: 10, ExpandFactor: 1, Skew: -1}}},
		{Name: "cacheNoKey", Stages: []Stage{{Name: "a", Source: FromCache, InputMB: 10, ExpandFactor: 1}}},
		{Name: "cacheBeforeWrite", Stages: []Stage{
			{Name: "a", Source: FromCache, CacheKey: "x", InputMB: 10, ExpandFactor: 1}}},
		{Name: "cacheOutNoKey", Stages: []Stage{
			{Name: "a", InputMB: 10, ExpandFactor: 1, CacheOutMB: 5}}},
	}
	for _, w := range bad {
		if err := w.Validate(); err == nil {
			t.Errorf("%s: invalid plan accepted", w.Name)
		}
	}
}
