package sparksim

import (
	"context"
	"math"
	"strings"
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/backend"
	"repro/internal/conf"
	"repro/internal/sample"
)

func space() *conf.Space { return conf.SparkSpace() }

// tunedConfig is a reasonable hand-tuned configuration used across
// tests: balanced executors, Kryo, healthy parallelism.
func tunedConfig(t *testing.T) conf.Config {
	t.Helper()
	c, err := space().FromRaw(map[string]float64{
		conf.ExecutorCores:      8,
		conf.ExecutorMemory:     24576,
		conf.ExecutorInstances:  20,
		conf.DefaultParallelism: 200,
		conf.MemoryFraction:     0.75,
		conf.Serializer:         1,
	})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestPackExecutorsBasics(t *testing.T) {
	cl := PaperCluster()
	c := tunedConfig(t)
	ex, ok := PackExecutors(cl, c)
	if !ok {
		t.Fatal("tuned config should be feasible")
	}
	// 8-core executors: 4 per node by cores; memory allows more, so 4.
	if ex.PerNode != 4 {
		t.Errorf("PerNode = %d, want 4", ex.PerNode)
	}
	if ex.Count != 20 {
		t.Errorf("Count = %d, want 20 (requested instances)", ex.Count)
	}
	if ex.SlotsEach != 8 || ex.TotalSlots != 160 {
		t.Errorf("slots = %d/%d, want 8/160", ex.SlotsEach, ex.TotalSlots)
	}
	if ex.UsableMB <= 0 || ex.StorageMB <= 0 || ex.ExecutionMB <= 0 {
		t.Errorf("memory regions: %+v", ex)
	}
	// Unified memory: usable = (heap-300)*fraction.
	want := (24576.0 - 300) * 0.75
	if math.Abs(ex.UsableMB-want) > 1 {
		t.Errorf("UsableMB = %v, want %v", ex.UsableMB, want)
	}
}

func TestPackExecutorsInstancesCap(t *testing.T) {
	cl := PaperCluster()
	c := tunedConfig(t).With(conf.ExecutorInstances, 1000)
	// Physically capped at 4 per node * 5 nodes = 20... but the
	// parameter max is 40; use With to exceed and verify the cap.
	ex, ok := PackExecutors(cl, c)
	if !ok || ex.Count != 20 {
		t.Errorf("Count = %d, want physical cap 20", ex.Count)
	}
}

func TestPackExecutorsInfeasible(t *testing.T) {
	cl := PaperCluster()
	// An executor bigger than a node cannot be placed.
	c := tunedConfig(t).
		With(conf.ExecutorMemory, 184320).
		With(conf.ExecutorMemoryOverhead, 8192).
		With(conf.OffHeapEnabled, 1).
		With(conf.OffHeapSize, 16384)
	if _, ok := PackExecutors(cl, c); ok {
		t.Error("oversized executor should be infeasible")
	}
	// task.cpus > executor cores gives zero slots.
	c2 := tunedConfig(t).With(conf.ExecutorCores, 2).With(conf.TaskCPUs, 4)
	if _, ok := PackExecutors(cl, c2); ok {
		t.Error("task.cpus > cores should be infeasible")
	}
}

func TestPackExecutorsTaskCPUs(t *testing.T) {
	cl := PaperCluster()
	c := tunedConfig(t).With(conf.TaskCPUs, 2)
	ex, ok := PackExecutors(cl, c)
	if !ok || ex.SlotsEach != 4 {
		t.Errorf("SlotsEach = %d, want 4 with task.cpus=2", ex.SlotsEach)
	}
}

// TestDefaultConfigOutcomes checks the §5.2 findings: the default
// 1 GB-executor configuration OOMs PageRank and ConnectedComponents,
// survives KMeans/LogisticRegression/TeraSort-20GB (slowly), and hits
// runtime errors on the larger TeraSort datasets.
func TestDefaultConfigOutcomes(t *testing.T) {
	cl := PaperCluster()
	def := space().Default()
	cases := []struct {
		w       Workload
		wantOOM bool
	}{
		{PageRank(5), true},
		{PageRank(10), true},
		{ConnectedComponents(5), true},
		{ConnectedComponents(10), true},
		{KMeans(200), false},
		{LogisticRegression(100), false},
		{TeraSort(20), false},
		{TeraSort(30), true},
		{TeraSort(40), true},
	}
	for _, tc := range cases {
		out := Run(cl, tc.w, def, sample.NewRNG(1), math.Inf(1))
		if out.OOM != tc.wantOOM {
			t.Errorf("%s default: OOM = %v, want %v (events: %v)", tc.w.ID(), out.OOM, tc.wantOOM, out.Events)
		}
		if !tc.wantOOM && out.Seconds <= 0 {
			t.Errorf("%s default: nonpositive time %v", tc.w.ID(), out.Seconds)
		}
	}
}

// TestTunedBeatsDefault mirrors §5.2's speedups over the default
// configuration for the workloads that complete.
func TestTunedBeatsDefault(t *testing.T) {
	cl := PaperCluster()
	def := space().Default()
	tuned := tunedConfig(t)
	cases := []struct {
		w        Workload
		minRatio float64
	}{
		{KMeans(200), 5},               // paper: 27.1x on average
		{LogisticRegression(100), 1.5}, // paper: 2.17x
		{TeraSort(20), 2},              // paper: 4.16x
	}
	for _, tc := range cases {
		d := Run(cl, tc.w, def, sample.NewRNG(1), math.Inf(1))
		u := Run(cl, tc.w, tuned, sample.NewRNG(1), math.Inf(1))
		if !d.Completed || !u.Completed {
			t.Fatalf("%s: unexpected failure d=%+v u=%+v", tc.w.ID(), d, u)
		}
		if ratio := d.Seconds / u.Seconds; ratio < tc.minRatio {
			t.Errorf("%s: default/tuned = %.2f, want >= %.1f", tc.w.ID(), ratio, tc.minRatio)
		}
	}
}

func TestRunDeterministic(t *testing.T) {
	cl := PaperCluster()
	w := PageRank(5)
	c := tunedConfig(t)
	a := Run(cl, w, c, sample.NewRNG(7), math.Inf(1))
	b := Run(cl, w, c, sample.NewRNG(7), math.Inf(1))
	if a.Seconds != b.Seconds || a.Completed != b.Completed {
		t.Fatalf("same seed, different outcomes: %v vs %v", a.Seconds, b.Seconds)
	}
}

func TestRunNoisy(t *testing.T) {
	cl := PaperCluster()
	w := KMeans(200)
	c := tunedConfig(t)
	a := Run(cl, w, c, sample.NewRNG(1), math.Inf(1))
	b := Run(cl, w, c, sample.NewRNG(2), math.Inf(1))
	if a.Seconds == b.Seconds {
		t.Fatal("different seeds should produce different observations")
	}
	// But not wildly different: multiplicative noise is a few percent.
	ratio := a.Seconds / b.Seconds
	if ratio < 0.7 || ratio > 1.5 {
		t.Errorf("noise too large: %v vs %v", a.Seconds, b.Seconds)
	}
}

func TestRunTruncation(t *testing.T) {
	cl := PaperCluster()
	w := KMeans(400)
	def := space().Default() // very slow for KMeans
	out := Run(cl, w, def, sample.NewRNG(1), 100)
	if out.Completed {
		t.Fatal("default KMeans-400M should not complete within 100s")
	}
	found := false
	for _, e := range out.Events {
		if strings.Contains(e, "truncated") {
			found = true
		}
	}
	if !found {
		t.Errorf("expected truncation event, got %v", out.Events)
	}
}

func TestMoreDataTakesLonger(t *testing.T) {
	cl := PaperCluster()
	// Use a modest config so stages have multiple waves and data
	// volume shows up in wall time.
	c := tunedConfig(t).With(conf.ExecutorInstances, 5)
	small := Run(cl, TeraSort(20), c, sample.NewRNG(3), math.Inf(1))
	large := Run(cl, TeraSort(40), c, sample.NewRNG(3), math.Inf(1))
	if large.Seconds <= small.Seconds {
		t.Errorf("TeraSort 40GB (%v) should exceed 20GB (%v)", large.Seconds, small.Seconds)
	}
}

func TestTinyParallelismHurts(t *testing.T) {
	cl := PaperCluster()
	base := tunedConfig(t)
	tiny := base.With(conf.DefaultParallelism, 8)
	wb := Run(cl, TeraSort(20), base, sample.NewRNG(4), math.Inf(1))
	wt := Run(cl, TeraSort(20), tiny, sample.NewRNG(4), math.Inf(1))
	if !wt.OOM && wt.Seconds < wb.Seconds {
		t.Errorf("parallelism=8 (%v s, oom=%v) should be worse than 200 (%v s)", wt.Seconds, wt.OOM, wb.Seconds)
	}
}

func TestKryoHelpsShuffleHeavyWorkload(t *testing.T) {
	cl := PaperCluster()
	java := tunedConfig(t).With(conf.Serializer, 0)
	kryo := tunedConfig(t).With(conf.Serializer, 1)
	j := Run(cl, TeraSort(30), java, sample.NewRNG(5), math.Inf(1))
	k := Run(cl, TeraSort(30), kryo, sample.NewRNG(5), math.Inf(1))
	if k.Seconds >= j.Seconds {
		t.Errorf("kryo (%v) should beat java (%v) on TeraSort", k.Seconds, j.Seconds)
	}
}

func TestCompressionHelpsTeraSort(t *testing.T) {
	cl := PaperCluster()
	on := tunedConfig(t).With(conf.ShuffleCompress, 1)
	off := tunedConfig(t).With(conf.ShuffleCompress, 0)
	a := Run(cl, TeraSort(30), on, sample.NewRNG(6), math.Inf(1))
	b := Run(cl, TeraSort(30), off, sample.NewRNG(6), math.Inf(1))
	if a.Seconds >= b.Seconds {
		t.Errorf("shuffle compression on (%v) should beat off (%v) for TeraSort", a.Seconds, b.Seconds)
	}
}

func TestCachePressureEventForSmallMemoryKMeans(t *testing.T) {
	cl := PaperCluster()
	c := tunedConfig(t).
		With(conf.ExecutorMemory, 8192).
		With(conf.ExecutorInstances, 3).
		With(conf.MemoryStorageFraction, 0.2)
	out := Run(cl, KMeans(400), c, sample.NewRNG(8), math.Inf(1))
	found := false
	for _, e := range out.Events {
		if strings.Contains(e, "cache pressure") {
			found = true
		}
	}
	if !found {
		t.Errorf("expected cache pressure, events = %v", out.Events)
	}
}

func TestCacheEvictionCostsTime(t *testing.T) {
	cl := PaperCluster()
	roomy := tunedConfig(t)
	cramped := tunedConfig(t).
		With(conf.ExecutorMemory, 8192).
		With(conf.ExecutorInstances, 3)
	a := Run(cl, KMeans(400), roomy, sample.NewRNG(9), math.Inf(1))
	b := Run(cl, KMeans(400), cramped, sample.NewRNG(9), math.Inf(1))
	if b.Seconds < a.Seconds*1.5 {
		t.Errorf("evicting config (%v) should be much slower than roomy (%v)", b.Seconds, a.Seconds)
	}
}

func TestAllPaperWorkloadsRunUnderSomeConfig(t *testing.T) {
	cl := PaperCluster()
	c := tunedConfig(t)
	for name, wls := range PaperWorkloads() {
		for i, w := range wls {
			out := Run(cl, w, c, sample.NewRNG(uint64(i)), math.Inf(1))
			if !out.Completed {
				t.Errorf("%s D%d did not complete under tuned config: %+v", name, i+1, out)
			}
			if out.Seconds < 5 || out.Seconds > 2000 {
				t.Errorf("%s D%d implausible duration %v", name, i+1, out.Seconds)
			}
		}
	}
}

func TestWorkloadByName(t *testing.T) {
	w, err := WorkloadByName("PageRank", 2)
	if err != nil || w.Dataset != "10M pages" {
		t.Errorf("WorkloadByName = %v, %v", w.Dataset, err)
	}
	if _, err := WorkloadByName("Nope", 0); err == nil {
		t.Error("unknown workload accepted")
	}
	if _, err := WorkloadByName("KMeans", 3); err == nil {
		t.Error("dataset index 3 accepted")
	}
}

func TestRunNeverNegativeProperty(t *testing.T) {
	cl := PaperCluster()
	s := space()
	w := TeraSort(20)
	f := func(seed uint64) bool {
		rng := sample.NewRNG(seed)
		u := make([]float64, s.Dim())
		for i := range u {
			u[i] = rng.Float64()
		}
		out := Run(cl, w, s.Decode(u), sample.NewRNG(seed), 480)
		return out.Seconds > 0 && !math.IsNaN(out.Seconds) && !math.IsInf(out.Seconds, 0)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestEvaluatorAccounting(t *testing.T) {
	ev := NewEvaluator(PaperCluster(), KMeans(200), 1, 480)
	c := tunedConfig(t)
	r1 := ev.EvaluateSpec(c, backend.EvalSpec{})
	r2 := ev.EvaluateSpec(c, backend.EvalSpec{})
	if ev.Evals() != 2 {
		t.Fatalf("Evals = %d", ev.Evals())
	}
	if r1.Seconds == r2.Seconds {
		t.Error("per-evaluation noise missing (identical observations)")
	}
	cost := ev.SearchCost()
	if math.Abs(cost-(math.Min(r1.Raw, 480)+math.Min(r2.Raw, 480))) > 1e-9 {
		t.Errorf("SearchCost = %v, want sum of consumed time", cost)
	}
	if !r1.Completed && !r2.Completed {
		t.Errorf("tuned config never completed: %+v, %+v", r1, r2)
	}
}

func TestEvaluatorFailureChargesOnlyConsumedTime(t *testing.T) {
	ev := NewEvaluator(PaperCluster(), PageRank(10), 3, 480)
	def := space().Default() // OOMs quickly
	r := ev.EvaluateSpec(def, backend.EvalSpec{})
	if !r.OOM {
		t.Fatalf("default PageRank should OOM, got %+v", r)
	}
	if r.Seconds != 480 {
		t.Errorf("failed eval objective = %v, want cap 480", r.Seconds)
	}
	if ev.SearchCost() >= 480 {
		t.Errorf("failed eval should charge only consumed time, charged %v", ev.SearchCost())
	}
}

func TestEvaluatorCapDefaults(t *testing.T) {
	ev := NewEvaluator(PaperCluster(), KMeans(200), 1, 0)
	if ev.CapSeconds != 480 {
		t.Errorf("default cap = %v, want the paper's 480", ev.CapSeconds)
	}
}

func TestEvaluatorMeasureDoesNotChargeCost(t *testing.T) {
	ev := NewEvaluator(PaperCluster(), KMeans(200), 1, 480)
	m := ev.Measure(tunedConfig(t), 3, 99)
	if m <= 0 {
		t.Fatalf("Measure = %v", m)
	}
	if ev.SearchCost() != 0 || ev.Evals() != 0 {
		t.Error("Measure charged search cost")
	}
}

func TestEvaluatorConcurrent(t *testing.T) {
	ev := NewEvaluator(PaperCluster(), TeraSort(20), 1, 480)
	c := tunedConfig(t)
	var wg sync.WaitGroup
	recs := make([][]backend.EvalRecord, 8)
	for i := range recs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 5; j++ {
				recs[i] = append(recs[i], ev.EvaluateSpec(c, backend.EvalSpec{}))
			}
		}()
	}
	wg.Wait()
	var cost float64
	for _, rs := range recs {
		for _, r := range rs {
			cost += math.Min(r.Raw, 480)
		}
	}
	if ev.Evals() != 40 {
		t.Errorf("Evals=%d, want 40", ev.Evals())
	}
	if math.Abs(ev.SearchCost()-cost) > 1e-9*cost {
		t.Errorf("SearchCost = %v, want the %v the 40 records consumed", ev.SearchCost(), cost)
	}
}

func TestInfeasibleConfigFailsFast(t *testing.T) {
	ev := NewEvaluator(PaperCluster(), KMeans(200), 1, 480)
	bad := tunedConfig(t).
		With(conf.ExecutorMemory, 184320).
		With(conf.ExecutorMemoryOverhead, 8192).
		With(conf.OffHeapEnabled, 1).
		With(conf.OffHeapSize, 16384)
	r := ev.EvaluateSpec(bad, backend.EvalSpec{})
	if !r.Infeasible {
		t.Fatal("expected infeasible")
	}
	if r.Seconds != 480 {
		t.Errorf("objective for infeasible = %v, want cap", r.Seconds)
	}
	if ev.SearchCost() > 30 {
		t.Errorf("infeasible should be cheap to discover, cost %v", ev.SearchCost())
	}
}

func TestExecutorCoresMemoryBalanceMatters(t *testing.T) {
	// Figure 8's premise: imbalanced cores:memory performs poorly.
	cl := PaperCluster()
	w := PageRank(10)
	balanced := tunedConfig(t)
	starvedMem := tunedConfig(t).With(conf.ExecutorMemory, 8192).With(conf.ExecutorCores, 32)
	b := Run(cl, w, balanced, sample.NewRNG(11), math.Inf(1))
	s := Run(cl, w, starvedMem, sample.NewRNG(11), math.Inf(1))
	if !b.Completed {
		t.Fatal("balanced config failed")
	}
	if s.Completed && s.Seconds < b.Seconds {
		t.Errorf("32 cores + 8GB (%v) should not beat balanced (%v)", s.Seconds, b.Seconds)
	}
}

func TestEvaluateBatchMatchesSequential(t *testing.T) {
	space := space()
	design := sample.LHS(24, space.Dim(), sample.NewRNG(31))
	cfgs := make([]conf.Config, len(design))
	for i, u := range design {
		cfgs[i] = space.Decode(u)
	}

	seq := NewEvaluator(PaperCluster(), TeraSort(20), 99, 480)
	var seqRecs []backend.EvalRecord
	for _, c := range cfgs {
		seqRecs = append(seqRecs, seq.EvaluateSpec(c, backend.EvalSpec{}))
	}

	par := NewEvaluator(PaperCluster(), TeraSort(20), 99, 480)
	parRecs := par.EvaluateSpecCtx(context.Background(), cfgs, backend.EvalSpec{Workers: 8})

	if len(parRecs) != len(seqRecs) {
		t.Fatalf("record counts differ: %d vs %d", len(parRecs), len(seqRecs))
	}
	for i := range seqRecs {
		if parRecs[i].Seconds != seqRecs[i].Seconds || parRecs[i].Completed != seqRecs[i].Completed {
			t.Fatalf("record %d differs: parallel %+v vs sequential %+v", i, parRecs[i], seqRecs[i])
		}
	}
	if par.SearchCost() != seq.SearchCost() {
		t.Errorf("cost differs: %v vs %v", par.SearchCost(), seq.SearchCost())
	}
	if par.Evals() != seq.Evals() {
		t.Errorf("evals differ: %d vs %d", par.Evals(), seq.Evals())
	}
}

func TestEvaluateBatchEmpty(t *testing.T) {
	ev := NewEvaluator(PaperCluster(), TeraSort(20), 1, 480)
	if got := ev.EvaluateSpecCtx(context.Background(), nil, backend.EvalSpec{Workers: 4}); got != nil {
		t.Errorf("empty batch = %v", got)
	}
	if ev.Evals() != 0 {
		t.Error("empty batch charged evaluations")
	}
}

func TestCrossClusterOptimaDiffer(t *testing.T) {
	// A configuration tuned for one cluster should lose to native
	// tuning on the other: executor sizing depends on node shape.
	space := space()
	w := TeraSort(30)

	bestOn := func(cl Cluster, seed uint64) (conf.Config, float64) {
		ev := NewEvaluator(cl, w, seed, 480)
		best := math.Inf(1)
		var bestCfg conf.Config
		for _, u := range sample.LHS(120, space.Dim(), sample.NewRNG(seed)) {
			rec := ev.EvaluateSpec(space.Decode(u), backend.EvalSpec{})
			if rec.Completed && rec.Seconds < best {
				best, bestCfg = rec.Seconds, rec.Config
			}
		}
		return bestCfg, best
	}
	paperBest, _ := bestOn(PaperCluster(), 7)
	cloudBest, _ := bestOn(CloudCluster(), 7)

	cloudEv := NewEvaluator(CloudCluster(), w, 99, 480)
	transferred := cloudEv.Measure(paperBest, 5, 3)
	native := cloudEv.Measure(cloudBest, 5, 3)
	if native >= transferred {
		t.Errorf("native cloud tuning (%v) should beat transferred config (%v)", native, transferred)
	}
}

func TestCloudClusterFeasibilityDiffers(t *testing.T) {
	// A 100 GB executor fits the paper cluster's 192 GB nodes but not
	// a 64 GB cloud VM.
	big := tunedConfig(t).With(conf.ExecutorMemory, 102400)
	if _, ok := PackExecutors(PaperCluster(), big); !ok {
		t.Fatal("100GB executor should fit the paper cluster")
	}
	if _, ok := PackExecutors(CloudCluster(), big); ok {
		t.Fatal("100GB executor should not fit a 64GB cloud VM")
	}
}
